"""Integer Laurent polynomials in two variables and annihilation tests.

A polynomial acts on a coloring by convolution: (f.c)_n = sum over
terms f_t * c(n - t).  Under this convention multiplying by the term
x^a y^b translates the coloring by (a, b), so the difference
polynomial x^a y^b - 1 annihilates a coloring exactly when (a, b) is
one of its period vectors.  All arithmetic is exact.  There is no I/O
here: format_poly gives the canonical text, analysis_io the JSON form.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from itertools import chain
from types import MappingProxyType

from .colorings import Configuration, PeriodicConfig, WindowConfig, _block_rows
from .grid import CertificateError, DiscreteDomain, Frozen, Vec2
from .linalg import nullspace_vector


class TrivialAnnihilatorWarning(UserWarning):
    """The zero polynomial annihilates everything; the answer says nothing."""


class ZeroSeriesWarning(UserWarning):
    """The coloring is identically zero on the inspected region."""


def _term_key(e: Vec2):
    # canonical term order: descending lexicographic on (x-exp, y-exp)
    return (-e.x, -e.y)


class LaurentPoly:
    """Finitely supported map exponent -> nonzero integer coefficient."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        for e, coeff in (terms or {}).items():
            coeff = int(coeff)
            if coeff:
                clean[Vec2(e[0], e[1])] = coeff
        self._terms = clean
        self._hash = None

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({Vec2(0, 0): 1})

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> tuple[Vec2, ...]:
        return tuple(sorted(self._terms, key=_term_key))

    def coefficient(self, e) -> int:
        return self._terms.get(Vec2(e[0], e[1]), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self._terms)
        for e, coeff in other._terms.items():
            acc[e] = acc.get(e, 0) + coeff
        return LaurentPoly(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -coeff for e, coeff in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: coeff * other for e, coeff in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[Vec2, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


def _power_text(e: Vec2) -> str:
    parts = []
    for name, exp in (("x", e.x), ("y", e.y)):
        if exp == 1:
            parts.append(name)
        elif exp != 0:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


def format_poly(f: LaurentPoly) -> str:
    """Canonical text form, e.g. ``x^2*y^3 - x^2 - y^3 + 1``."""
    if f.is_zero:
        return "0"
    chunks = []
    for e in f.support():
        coeff = f.coefficient(e)
        mono = _power_text(e)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(chunks)


def difference_poly(v) -> LaurentPoly:
    """x^a y^b - 1 for v = (a, b); annihilates c iff v is a period of c."""
    v = Vec2.nonzero(v, "difference polynomial needs a nonzero vector")
    return LaurentPoly({v: 1, Vec2(0, 0): -1})


def _summed_rows(f: LaurentPoly, width: int, height: int, read) -> list:
    """The rows of the sum over f's terms e of coeff times read(e)."""
    rows = [[0] * width] * height
    for e, coeff in f.terms.items():
        rows = [[v + coeff * s for v, s in zip(row, line)]
                for row, line in zip(rows, read(e))]
    return rows


def _fc_block(f: LaurentPoly, c: PeriodicConfig) -> list:
    """One fundamental block of f.c, which has the periods of c, so f.c
    vanishes on all of Z^2 exactly when this block is zero."""
    a, b, h = c.span_x, c.shear, c.span_y
    return _summed_rows(f, a, h, lambda e: _block_rows(
        a, b, h, c.block, -e.x, -e.y, a, h))


def apply(f: LaurentPoly, c: Configuration, window: DiscreteDomain) -> dict[Vec2, int]:
    """Values of the formal product f.c on the window cells.  On a
    rectangle, f.c of a periodic c is one summed block read by rows, and
    a window c sums row slices when its reads stay in c.rect; anything
    else sums cell by cell (or raises OutOfWindow)."""
    r = window.bounding_rect() if window.is_rectangle() else None
    if r and isinstance(c, PeriodicConfig):
        rows = _block_rows(c.span_x, c.shear, c.span_y, _fc_block(f, c),
                           r.x0, r.y0, r.width, r.height)
        return dict(zip(window.cells, chain.from_iterable(rows)))
    box = c.rect if isinstance(c, WindowConfig) else None
    if r and box and all(box.contains((r.x0 - x, r.y0 - y))
                         and box.contains((r.x1 - x, r.y1 - y))
                         for x, y in f.terms):
        w, h, dx, dy = r.width, r.height, r.x0 - box.x0, r.y0 - box.y0
        rows = _summed_rows(f, w, h, lambda e: [
            line[dx - e.x:dx - e.x + w]
            for line in c.values[dy - e.y:dy - e.y + h]])
        return dict(zip(window.cells, chain.from_iterable(rows)))
    items = [(e, f.coefficient(e)) for e in f.support()]
    return {n: sum(coeff * c.color_at(n - e) for e, coeff in items)
            for n in window.cells}


def annihilates(f: LaurentPoly, c: Configuration, window: DiscreteDomain) -> bool:
    """True when f.c vanishes on the whole window."""
    if f.is_zero:
        warnings.warn("zero polynomial annihilates trivially",
                      TrivialAnnihilatorWarning, stacklevel=2)
        return True
    return all(v == 0 for v in apply(f, c, window).values())


class AnnihilatorCertificate(Frozen):
    """A nonzero annihilator together with the window it was checked on.

    periodic_annihilator stores only its window's size, and ``window``
    builds that rectangle on first read; the certificate then compares,
    hashes, prints and pickles as the one the constructor gives for the
    same poly and window.
    """

    poly: LaurentPoly
    window: DiscreteDomain

    def __init__(self, poly: LaurentPoly, window: DiscreteDomain):
        if poly.is_zero:
            raise ValueError("certificate polynomial must be nonzero")
        Frozen.__init__(self, poly, window)

    @cached_property
    def window(self) -> DiscreteDomain:
        # reached only by a certificate that stores its window's size
        return DiscreteDomain.rect(*self.__dict__["_window_size"])


def periodic_annihilator(c: PeriodicConfig) -> AnnihilatorCertificate:
    """(x^a - 1)(x^b y^h - 1) for c's periods (a, 0) and (b, h), verified.

    The product is written out from its four terms, which are distinct
    since a, h >= 1.  The check is global: one block of the product
    applied to c is zero.  The certificate names a window of two blocks
    in each direction, 2a x 2h, built when it is first read.
    """
    a, b, h = c.span_x, c.shear, c.span_y
    poly = LaurentPoly({(a + b, h): 1, (a, 0): -1, (b, h): -1, (0, 0): 1})
    if any(map(any, _fc_block(poly, c))):
        raise CertificateError("period difference product failed to annihilate")
    cert = object.__new__(AnnihilatorCertificate)
    cert.__dict__.update(poly=poly, _window_size=(2 * a, 2 * h))
    return cert


def annihilator_search(c: Configuration, window: DiscreteDomain,
                       support_box: DiscreteDomain) -> AnnihilatorCertificate | None:
    """Nonzero annihilator supported on the given cells, or None.

    Sets up one linear equation per window cell and extracts a
    primitive integer kernel vector by exact elimination.  The result,
    when found, annihilates on exactly the given window.  A window c
    whose rectangle holds every read gives the equations from its rows.
    """
    support = support_box.cells
    if not support:
        raise ValueError("support box must be nonempty")
    if not window.cells:
        raise ValueError("window must be nonempty")
    w, s = window.bounding_rect(), support_box.bounding_rect()
    if (isinstance(c, WindowConfig)
            and c.rect.contains((w.x0 - s.x1, w.y0 - s.y1))
            and c.rect.contains((w.x1 - s.x0, w.y1 - s.y0))):
        x0, y0, values = c.rect.x0, c.rect.y0, c.values
        offsets = [(t.x + x0, t.y + y0) for t in support]
        rows = [[values[y - ty][x - tx] for tx, ty in offsets]
                for x, y in window.cells]
    else:
        rows = [[c.color_at(n - t) for t in support] for n in window.cells]
    if not any(map(any, rows)):
        warnings.warn("coloring is the zero series on the window",
                      ZeroSeriesWarning, stacklevel=2)
    vec = nullspace_vector(rows)
    if vec is None:
        return None
    poly = LaurentPoly(dict(zip(support, vec)))
    if not annihilates(poly, c, window):
        raise CertificateError("kernel vector failed re-verification")
    return AnnihilatorCertificate(poly, window)
