"""Colorings of Z^2 and their analysis: patterns, complexity, periods.

A coloring is either total and doubly periodic (stored as a reduced
fundamental block over its period lattice) or a finite rectangular
window.  Values are plain integers.  Everything here is immutable and
every operation is pure.  A decision reads no coloring, so it never
loads this module; the cells, domains and patterns it builds on are in
grid.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from operator import itemgetter

from .grid import (ORIGIN, DiscreteDomain, EmptyWindow, Frozen, OutOfWindow,
                   Pattern, Rect, Vec2)


class Configuration:
    """Common interface of periodic and window colorings."""

    def color_at(self, n: Vec2) -> int:
        raise NotImplementedError

    def translate(self, t: Vec2) -> "Configuration":
        raise NotImplementedError


def _lattice_hnf(gens: list[Vec2]) -> tuple[int, int, int]:
    """Reduce lattice generators to the basis (a, 0), (b, c).

    Returns (a, b, c) with a > 0, c > 0, 0 <= b < a.  Raises if the
    generators do not span a rank-2 lattice.  Euclid runs each generator
    against w, whose y is (up to sign) the gcd of the y components so
    far, until its y is 0, and its x then folds into a.  Every step is
    unimodular, so the lattice never changes.
    """
    a, w = 0, ORIGIN
    for g in gens:
        g = Vec2(g[0], g[1])
        while g.y:
            w, g = g, w - (w.y // g.y) * g
        a = math.gcd(a, g.x)
    if a == 0 or w.y == 0:
        raise ValueError("period vectors must be linearly independent")
    if w.y < 0:
        w = -w
    return a, w.x % a, w.y


def _block_color(a: int, b: int, c: int, block, n) -> int:
    k, j = divmod(n[1], c)
    i = (n[0] - k * b) % a
    return block[j][i]


def _block_rows(a: int, b: int, c: int, block, x0: int, y0: int,
                width: int, height: int) -> list:
    """The colors of [x0, x0+width) x [y0, y0+height), row by row: row
    y = k*c + j is cut from block row j repeated, from (x0 - k*b) % a."""
    lines = [row * (width // a + 2) for row in block]
    rows = []
    for y in range(y0, y0 + height):
        k, j = divmod(y, c)
        start = (x0 - k * b) % a
        rows.append(lines[j][start:start + width])
    return rows


def _saturate(a: int, b: int, c: int, block) -> tuple[int, int, int, tuple]:
    """Grow the stored lattice to the full period lattice of the block.

    Every period is congruent modulo the stored lattice to exactly one
    coset representative (i, j), i < a and j < c, so the stored basis
    and the representatives that preserve the block generate it."""
    periods = [Vec2(i, j) for j in range(c) for i in range(a) if (i or j)
               and _block_rows(a, b, c, block, -i, -j, a, c) == list(block)]
    if not periods:
        return a, b, c, block
    a2, b2, c2 = _lattice_hnf([Vec2(a, 0), Vec2(b, c), *periods])
    return a2, b2, c2, tuple(_block_rows(a, b, c, block, 0, 0, a2, c2))


class PeriodicConfig(Configuration, Frozen):
    """Total coloring with two independent periods.

    Canonical storage: the *maximal* period lattice in Hermite form
    (a, 0), (b, c) with 0 <= b < a, and the block on [0,a) x [0,c).
    Equal colorings therefore compare equal regardless of which period
    pair was used to build them.
    """

    span_x: int
    shear: int
    span_y: int
    block: tuple[tuple[int, ...], ...]

    def __init__(self, span_x: int, shear: int, span_y: int,
                 block: tuple[tuple[int, ...], ...]):
        block = tuple(tuple(int(v) for v in row) for row in block)
        if span_x < 1 or span_y < 1 or not 0 <= shear < span_x:
            raise ValueError("invalid reduced period basis")
        if len(block) != span_y or any(len(r) != span_x for r in block):
            raise ValueError("block does not match the fundamental rectangle")
        Frozen.__init__(self, *_saturate(span_x, shear, span_y, block))

    @classmethod
    def from_periods(cls, p1: Vec2, p2: Vec2,
                     values: Callable[[int, int], int]) -> "PeriodicConfig":
        p1, p2 = Vec2(*p1), Vec2(*p2)
        a, b, c = _lattice_hnf([p1, p2])
        for j in range(c):
            for i in range(a):
                v = values(i, j)
                for p in (p1, p2):
                    if values(i + p.x, j + p.y) != v:
                        raise ValueError(
                            f"values are not {tuple(p)}-periodic at ({i},{j})")
        block = tuple(tuple(values(i, j) for i in range(a)) for j in range(c))
        return cls(a, b, c, block)

    @classmethod
    def from_block(cls, rows: Iterable[Iterable[int]]) -> "PeriodicConfig":
        block = tuple(tuple(int(v) for v in row) for row in rows)
        if not block or not block[0]:
            raise ValueError("block must be nonempty")
        return cls(len(block[0]), 0, len(block), block)

    @classmethod
    def constant(cls, color: int) -> "PeriodicConfig":
        return cls.from_block([[color]])

    @property
    def p1(self) -> Vec2:
        return Vec2(self.span_x, 0)

    @property
    def p2(self) -> Vec2:
        return Vec2(self.shear, self.span_y)

    def color_at(self, n) -> int:
        return _block_color(self.span_x, self.shear, self.span_y, self.block, n)

    def translate(self, t) -> "PeriodicConfig":
        a, b, c = self.span_x, self.shear, self.span_y
        return PeriodicConfig(a, b, c, _block_rows(a, b, c, self.block,
                                                   -t[0], -t[1], a, c))


class WindowConfig(Configuration, Frozen):
    """Coloring known on one axis-aligned rectangle only."""

    rect: Rect
    values: tuple[tuple[int, ...], ...]  # rows, values[j][i] at (x0+i, y0+j)

    def __init__(self, rect: Rect, values: tuple[tuple[int, ...], ...]):
        rect = Rect(*rect)
        values = tuple(tuple(int(v) for v in row) for row in values)
        if len(values) != rect.height or any(len(r) != rect.width for r in values):
            raise ValueError("window values do not match the rectangle")
        Frozen.__init__(self, rect, values)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]],
                  origin: Vec2 = ORIGIN) -> "WindowConfig":
        values = tuple(tuple(int(v) for v in row) for row in rows)
        if not values or not values[0]:
            raise ValueError("window must be nonempty")
        return cls(Rect.of_size(len(values[0]), len(values), origin), values)

    def color_at(self, n) -> int:
        if not self.rect.contains(n):
            raise OutOfWindow(f"cell {tuple(n)} outside window {tuple(self.rect)}")
        return self.values[n[1] - self.rect.y0][n[0] - self.rect.x0]

    def translate(self, t) -> "WindowConfig":
        return WindowConfig(self.rect.translate(t), self.values)

    def domain(self) -> DiscreteDomain:
        r = self.rect
        return DiscreteDomain.rect(r.width, r.height, Vec2(r.x0, r.y0))


def _fitting_translates(shape: DiscreteDomain,
                        window: DiscreteDomain) -> Iterator[Vec2]:
    """Translations t with shape + t inside the window, canonical order:
    the translates _pattern_values reads cell by cell."""
    if not len(window):
        return
    # a rectangle holds every translate its bounding rectangle allows
    inside = None if window.is_rectangle() else window.__contains__
    sb = shape.bounding_rect()
    wb = window.bounding_rect()
    for ty in range(wb.y0 - sb.y0, wb.y1 - sb.y1 + 1):
        for tx in range(wb.x0 - sb.x0, wb.x1 - sb.x1 + 1):
            t = Vec2(tx, ty)
            if inside is None or all(inside(cell + t) for cell in shape.cells):
                yield t


def patterns_of(c: Configuration, shape: DiscreteDomain,
                window: DiscreteDomain) -> list[Pattern]:
    """Distinct shape-patterns read at every translate inside the window.

    Patterns are re-indexed to the shape's own cells and returned sorted
    by their value tuples, so the result does not depend on enumeration
    order.  An empty shape has exactly one (empty) pattern.  The values
    come from _pattern_values: row slices of one block read, sized to the
    shape's box, for a periodic coloring on a rectangular window whose
    width leaves the shape span_x translates, and a cell-by-cell walk
    over every fitting translate otherwise.  A PeriodicConfig or
    WindowConfig holds only ints, so its tuples become Patterns without
    the public constructor's checks; any other configuration's go
    through Pattern(shape, values).
    """
    values = sorted(_pattern_values(c, shape, window))
    if type(c) not in (PeriodicConfig, WindowConfig):
        return [Pattern(shape, vals) for vals in values]
    patterns = []
    for vals in values:
        pattern = Pattern.__new__(Pattern)
        Frozen.__init__(pattern, shape, vals)
        patterns.append(pattern)
    return patterns


def _pattern_values(c: Configuration, shape: DiscreteDomain,
                    window: DiscreteDomain) -> set[tuple[int, ...]]:
    """The value tuples of patterns_of, as a set.

    On a periodic configuration and a rectangular window, a shape whose
    translates span at least span_x columns is read from row slices: from
    the window's first translate t0, the translates t0 + (i, j) with
    i < span_x and j < rows = min(translate rows, span_y) meet each
    lattice coset that a fitting translate meets once, and they lie in
    the shape's box grown by span_x - 1 columns and rows - 1 rows, one
    _block_rows read.  Anything else is read cell by cell at every
    fitting translate.
    """
    if not shape.cells:
        return {()}
    s = shape.bounding_rect()
    if isinstance(c, PeriodicConfig) and window.is_rectangle():
        w, a = window.bounding_rect(), c.span_x
        rows = min(w.height - s.height + 1, c.span_y)
        if rows > 0 and w.width - s.width + 1 >= a:
            lines = _block_rows(a, c.shear, c.span_y, c.block, w.x0, w.y0,
                                s.width + a - 1, s.height + rows - 1)
            cells = [(x - s.x0, y - s.y0) for x, y in shape.cells]
            seen = set()
            for j in range(rows):
                seen.update(zip(*[lines[y + j][x:x + a] for x, y in cells]))
            return seen
    seen = {tuple(c.color_at(cell + t) for cell in shape.cells)
            for t in _fitting_translates(shape, window)}
    if not seen:
        raise EmptyWindow(f"no translate of the {len(shape)}-cell "
                          f"shape fits in the window")
    return seen


def _box_reader(c: Configuration, window: DiscreteDomain, width: int,
                height: int) -> Callable[[DiscreteDomain], set]:
    """_pattern_values for many shapes that fit in a width x height box.

    The translates t0 + (i, j) of the window's first translate t0 with
    i < span_x and j < span_y meet every lattice coset once, and each
    translate a shape can take lies in one of them.  On a periodic
    configuration and a rectangular window at least span_x - 1 columns
    wider and span_y - 1 rows taller than the box, the box is read at
    each from row slices of one _block_rows read, and a shape's values
    are the projection of those box tuples onto its cells, moved to the
    box's corner.  The box itself gets the box tuples, so a search whose
    n x m rectangle is the box does not hold a second copy of them.  In
    any other case each shape is read on its own by _pattern_values.
    """
    w = window.bounding_rect() if window.is_rectangle() else None
    if not (isinstance(c, PeriodicConfig) and w is not None
            and w.width - width + 1 >= c.span_x
            and w.height - height + 1 >= c.span_y):
        return lambda shape: _pattern_values(c, shape, window)
    a, h = c.span_x, c.span_y
    lines = _block_rows(a, c.shear, h, c.block, w.x0, w.y0, width + a - 1,
                        height + h - 1)
    seen = set()
    for j in range(h):
        seen.update(zip(*[lines[y + j][x:x + a]
                          for y in range(height) for x in range(width)]))
    boxes = list(seen)

    def project(shape: DiscreteDomain) -> set[tuple[int, ...]]:
        cells = shape.cells
        if not cells:
            return {()}
        if len(cells) == width * height:  # the box: its tuples, no copies
            return set(boxes)
        s = shape.bounding_rect()
        base = s.y0 * width + s.x0  # the shape's corner, row-major in box
        get = itemgetter(*[y * width + x - base for x, y in cells])
        if len(cells) == 1:  # itemgetter of one index gives no tuple
            return set(zip(map(get, boxes)))
        return set(map(get, boxes))
    return project


class ComplexityReport(Frozen):
    """Pattern count against the low-complexity bound |D|."""

    count: int
    bound: int
    window_cells: int

    @property
    def low(self) -> bool:
        return self.count <= self.bound

    def __bool__(self) -> bool:
        return self.low


def is_low_complexity(c: Configuration, shape: DiscreteDomain,
                      window: DiscreteDomain) -> ComplexityReport:
    count = len(_pattern_values(c, shape, window))
    return ComplexityReport(count, len(shape), len(window))


class PeriodScan(Frozen):
    """Observed period vectors, plus candidates with no comparable pair."""

    periods: tuple[Vec2, ...]
    skipped: tuple[Vec2, ...]

    def __iter__(self) -> Iterator[Vec2]:
        return iter(self.periods)

    def __contains__(self, t) -> bool:
        return Vec2(t[0], t[1]) in self.periods

    def __len__(self) -> int:
        return len(self.periods)


def find_periods(c: Configuration, window: DiscreteDomain | None,
                 bound: int) -> PeriodScan:
    """Nonzero vectors t (Chebyshev norm <= bound) preserving the coloring.

    A periodic configuration keeps the (x, y) in its stored, maximal
    lattice: y = k*span_y and x = k*shear modulo span_x.  Windows compare
    every cell pair (n, n-t) available inside the window.  Candidates
    with no comparable pair are skipped and reported, not periods.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if isinstance(c, PeriodicConfig):
        a, b, h = c.span_x, c.shear, c.span_y
        side = range(-bound, bound + 1)
        return PeriodScan(tuple(
            Vec2(x, y) for y in side if y % h == 0 for x in side
            if (x or y) and (x - y // h * b) % a == 0), ())
    if window is None:
        raise ValueError("window configurations need an explicit window")
    candidates = [Vec2(x, y)
                  for y in range(-bound, bound + 1)
                  for x in range(-bound, bound + 1)
                  if (x, y) != (0, 0)]
    cells = list(window.cells)
    periods, skipped = [], []
    for t in candidates:
        compared = False
        holds = True
        for n in cells:
            m = n - t
            if m in window:
                compared = True
                if c.color_at(n) != c.color_at(m):
                    holds = False
                    break
        if not compared:
            skipped.append(t)
        elif holds:
            periods.append(t)
    return PeriodScan(tuple(periods), tuple(skipped))
