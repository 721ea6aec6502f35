"""Lattice values: vectors, rectangles, alphabets, domains and patterns.

Everything here is immutable and every operation is pure.  Colorings
of the whole grid and their analysis (patterns_of, complexity, period
scans) are in colorings; their names still resolve here, loading that
module on first access.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from operator import attrgetter


def _lazy(namespace: dict, names: dict):
    """A module __getattr__ (PEP 562) serving the names in ``names``.

    Each is read on first access from the sibling module named beside
    it, or is that submodule when the module is None, and is kept in
    ``namespace``, the module's globals, so later reads are plain
    lookups.  Any other name raises AttributeError, so a probe such as
    hasattr(module, "__path__") imports nothing.
    """
    package = namespace["__package__"]

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        from importlib import import_module

        module = names[name]
        if module is None:  # a submodule: importing it binds it
            return import_module(f"{package}.{name}")
        value = namespace[name] = getattr(
            import_module(f"{package}.{module}"), name)
        return value
    return __getattr__


class OutOfWindow(LookupError):
    """A cell outside a window configuration's rectangle was read."""


class EmptyWindow(ValueError):
    """No translate of the shape fits inside the window."""


class ZeroVector(ValueError):
    """A direction or period argument was the zero vector."""


class CertificateError(RuntimeError):
    """A result failed its own re-check, so no verified answer exists."""


class Frozen:
    """Base of the immutable value classes.

    A subclass's fields are the names it annotates, in order, and a
    class attribute of the same name is that field's default.  The
    constructor takes the fields in order or by name; a class that
    validates its input ends its own __init__ with Frozen.__init__.
    Instances are equal when their classes are the same and their
    fields are equal, and hash as the tuple of their fields.  The repr
    reads ``Name(field=value, ...)``.  Assignment and deletion raise
    AttributeError.  There are no __slots__: pickle and deepcopy
    restore the instance dict directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(vars(cls).get("__annotations__", ()))
        if not fields:  # a subclass adding no field keeps its base's
            return
        cls._fields = fields
        values = attrgetter(*fields)  # the tuple, or the one field

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self) if len(fields) > 1 else (values(self),))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            values = self._bind(values, named)
        state = self.__dict__
        for name, value in zip(fields, values):  # faster than state.update
            state[name] = value

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> tuple:
        """The fields from values in order, then by name, then defaults."""
        fields = cls._fields
        bound = dict(zip(fields, values), **named)
        if (len(bound) < len(values) + len(named)  # extra or repeated
                or not bound.keys() <= set(fields)
                or not all(f in bound or hasattr(cls, f) for f in fields)):
            raise TypeError(f"{cls.__qualname__} takes each of the fields "
                            f"{', '.join(fields)} once, in order or by name")
        return tuple(bound[f] if f in bound else getattr(cls, f)
                     for f in fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Vec2(namedtuple("Vec2", "x y")):
    """Integer lattice vector; doubles as cell, translation and exponent."""

    __slots__ = ()

    @classmethod
    def nonzero(cls, v, message: str) -> "Vec2":
        """v as a Vec2; raises ZeroVector(message) if it is zero."""
        u = cls(v[0], v[1])
        if u.is_zero():
            raise ZeroVector(message)
        return u

    def __add__(self, other) -> "Vec2":  # type: ignore[override]
        return Vec2(self.x + other[0], self.y + other[1])

    def __sub__(self, other) -> "Vec2":
        return Vec2(self.x - other[0], self.y - other[1])

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, k: int) -> "Vec2":  # type: ignore[override]
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__  # type: ignore[assignment]

    def dot(self, other) -> int:
        return self.x * other[0] + self.y * other[1]

    def cross(self, other) -> int:
        return self.x * other[1] - self.y * other[0]

    def perp(self) -> "Vec2":
        # same length, rotated so that (x, y) -> (y, -x)
        return Vec2(self.y, -self.x)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


ORIGIN = Vec2(0, 0)


def _canonical_key(v: Vec2):
    # iteration order everywhere: lexicographic by (y, x)
    return (v.y, v.x)


class Rect(namedtuple("Rect", "x0 y0 x1 y1")):
    """Axis-aligned rectangle with inclusive corners."""

    __slots__ = ()

    @classmethod
    def of_size(cls, width: int, height: int, origin: Vec2 = ORIGIN) -> "Rect":
        if width < 1 or height < 1:
            raise ValueError("rectangle sides must be positive")
        ox, oy = origin
        return cls(ox, oy, ox + width - 1, oy + height - 1)

    @property
    def width(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        return self.y1 - self.y0 + 1

    def contains(self, v) -> bool:
        return self.x0 <= v[0] <= self.x1 and self.y0 <= v[1] <= self.y1

    def translate(self, t) -> "Rect":
        return Rect(self.x0 + t[0], self.y0 + t[1], self.x1 + t[0], self.y1 + t[1])


class Alphabet(Frozen):
    """Strictly increasing tuple of the distinct integer colors in use."""

    colors: tuple[int, ...]

    def __init__(self, colors: tuple[int, ...]):
        colors = tuple(int(c) for c in colors)
        if not colors:
            raise ValueError("alphabet must be nonempty")
        if any(a >= b for a, b in zip(colors, colors[1:])):
            raise ValueError("alphabet colors must be strictly increasing")
        Frozen.__init__(self, colors)

    @classmethod
    def of(cls, colors: Iterable[int]) -> "Alphabet":
        cs = [int(c) for c in colors]
        if len(set(cs)) != len(cs):
            raise ValueError("alphabet colors must be distinct")
        return cls(tuple(sorted(cs)))

    def __contains__(self, color: int) -> bool:
        return color in self.colors

    def __len__(self) -> int:
        return len(self.colors)

    def __iter__(self) -> Iterator[int]:
        return iter(self.colors)


class DiscreteDomain(Frozen):
    """Finite set of cells in canonical (y, x) order.

    May be empty: edge and box constructions legitimately produce empty
    cell sets.  Operations that need a nonempty shape check for it.
    """

    cells: tuple[Vec2, ...]

    def __init__(self, cells: Iterable):
        self._adopt(tuple(sorted({Vec2(int(c[0]), int(c[1])) for c in cells},
                                 key=_canonical_key)))

    def _adopt(self, canon: tuple, rect: Rect | None = None) -> "DiscreteDomain":
        """Store cells that are already distinct Vec2s in canonical order,
        with no sort, and return self; ``rect`` is their bounding
        rectangle, found from the cells when not given.  rect, minus and
        edge build their domains through it on cls.__new__(cls)."""
        if rect is None and canon:
            xs = [c.x for c in canon]
            rect = Rect(min(xs), canon[0].y, max(xs), canon[-1].y)
        self.__dict__.update(_set=frozenset(canon), _rect=rect)
        Frozen.__init__(self, canon)
        return self

    @classmethod
    def rect(cls, width: int, height: int, origin: Vec2 = ORIGIN) -> "DiscreteDomain":
        """A rectangle's cells, already distinct and canonical: no sort."""
        r = Rect.of_size(width, height, origin)
        new, xs = tuple.__new__, range(r.x0, r.x1 + 1)
        return cls.__new__(cls)._adopt(tuple([new(Vec2, (x, y))
                                              for y in range(r.y0, r.y1 + 1)
                                              for x in xs]), r)

    def __iter__(self) -> Iterator[Vec2]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, v) -> bool:
        return Vec2(v[0], v[1]) in self._set

    def translate(self, t) -> "DiscreteDomain":
        return DiscreteDomain(tuple(c + t for c in self.cells))

    def minus(self, other: "DiscreteDomain") -> "DiscreteDomain":
        return DiscreteDomain.__new__(DiscreteDomain)._adopt(
            tuple([c for c in self.cells if c not in other._set]))

    def bounding_rect(self) -> Rect:
        if not self.cells:
            raise ValueError("empty domain has no bounding rectangle")
        return self._rect

    def max_extent(self) -> int:
        r = self.bounding_rect()
        return max(r.width, r.height)

    def is_rectangle(self) -> bool:
        if not self.cells:
            return False
        r = self.bounding_rect()
        return len(self.cells) == r.width * r.height


class Pattern(Frozen):
    """Coloring of a finite domain; equality includes the domain."""

    domain: DiscreteDomain
    values: tuple[int, ...]  # aligned with domain.cells

    def __init__(self, domain: DiscreteDomain, values: tuple[int, ...]):
        values = tuple(int(v) for v in values)
        if len(values) != len(domain):
            raise ValueError("pattern values must cover the domain exactly")
        Frozen.__init__(self, domain, values)

    @classmethod
    def of(cls, domain: DiscreteDomain, mapping) -> "Pattern":
        return cls(domain, tuple(mapping[c] for c in domain.cells))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]],
                  origin: Vec2 = ORIGIN) -> "Pattern":
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        dom = DiscreteDomain.rect(len(rows[0]), len(rows), origin)
        return cls(dom, tuple(rows[c.y - origin[1]][c.x - origin[0]]
                              for c in dom.cells))

    def items(self) -> Iterator[tuple[Vec2, int]]:
        return zip(self.domain.cells, self.values)



# the names that moved to colorings, resolved on first access
_MOVED = dict.fromkeys((
    "ComplexityReport", "Configuration", "PeriodScan", "PeriodicConfig",
    "WindowConfig", "find_periods", "is_low_complexity", "patterns_of"),
    "colorings")
__getattr__ = _lazy(globals(), _MOVED)
