"""Edges, convexity and the balanced-set conditions.

A convex cell set D is balanced for a direction u in a coloring when
(i) the coloring is low complexity on D, (ii) dropping the edge of D
in direction u loses almost no patterns, and (iii) no cut of D
perpendicular to u is much shorter than that edge.  Every count is a
set of patterns_of's value tuples, so the numbers here are the same
numbers the complexity reports show.  is_balanced reads its domain and
the domain minus its edge by colorings._pattern_values, so a sparse
domain costs its cells, not its bounding box.  A search counts all its
sets through one colorings._box_reader: on a periodic coloring and a
rectangular window that leaves the box a translate in every lattice
coset, the box is read once per coset and each count projects those
tuples onto its set's cells; otherwise each set is read on its own.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from functools import cache

from .colorings import Configuration, _box_reader, _pattern_values
from .colorings import patterns_of  # noqa: F401  perfbench's tracer wraps it here
from .grid import ORIGIN, DiscreteDomain, Frozen, Vec2


class NotConvex(ValueError):
    """The balanced conditions are defined for convex cell sets only."""


class NotLowComplexityWarning(UserWarning):
    """Search precondition violated; existence is no longer guaranteed."""


def edge(domain: DiscreteDomain, u) -> DiscreteDomain:
    """Cells of the domain furthest in direction u."""
    u = Vec2.nonzero(u, "edge direction must be nonzero")
    if not len(domain):
        raise ValueError("edge of an empty domain is undefined")
    top = max(c.dot(u) for c in domain.cells)
    return DiscreteDomain.__new__(DiscreteDomain)._adopt(
        tuple([c for c in domain.cells if c.dot(u) == top]))


def _hull(points: list[Vec2]) -> list[Vec2]:
    """Convex hull, counterclockwise, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1] - out[-2]).cross(p - out[-1]) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def is_convex(domain: DiscreteDomain) -> bool:
    """True when the domain equals the lattice points of its real hull.

    The domain lies in its hull, so it is convex when it has as many
    cells as the hull has lattice points, which Pick's theorem counts
    from the hull's edges: (twice the area + boundary points) // 2 + 1.
    A collinear hull has two edges and gives gcd + 1.  A full rectangle
    is convex without the hull.
    """
    if len(domain) <= 1 or domain.is_rectangle():
        return True
    hull = _hull(list(domain.cells))
    edges = list(zip(hull, hull[1:] + hull[:1]))
    twice_area = sum(a.cross(b) for a, b in edges)
    boundary = sum(math.gcd(*(b - a)) for a, b in edges)
    return len(domain) == (twice_area + boundary) // 2 + 1


class BalancedReport(Frozen):
    """The three balanced-set condition counts and their verdicts."""

    direction: Vec2
    pattern_count: int        # distinct D-patterns in the window
    size: int                 # |D|
    inner_pattern_count: int  # distinct (D minus edge)-patterns
    edge_size: int
    min_line_count: int       # shortest cut of D perpendicular to u
    edge_cells: DiscreteDomain

    @property
    def cond_low_complexity(self) -> bool:
        return self.pattern_count <= self.size

    @property
    def cond_edge_extension(self) -> bool:
        return self.inner_pattern_count < self.pattern_count + self.edge_size

    @property
    def cond_line_length(self) -> bool:
        return self.min_line_count >= self.edge_size - 1

    @property
    def balanced(self) -> bool:
        return (self.cond_low_complexity and self.cond_edge_extension
                and self.cond_line_length)

    def __bool__(self) -> bool:
        return self.balanced

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.pattern_count, self.inner_pattern_count, self.edge_size)


def is_balanced(c: Configuration, domain: DiscreteDomain, u,
                window: DiscreteDomain) -> BalancedReport:
    """Evaluate the three balanced-set conditions for u on the window."""
    u = Vec2.nonzero(u, "balanced direction must be nonzero")
    if not is_convex(domain):
        raise NotConvex("balanced sets must be convex")
    domain.bounding_rect()  # an empty domain raises ValueError
    return _report(lambda shape: _pattern_values(c, shape, window), domain,
                   u, len(_pattern_values(c, domain, window)))


def _report(read: Callable[[DiscreteDomain], set], domain: DiscreteDomain,
            u: Vec2, full: int) -> BalancedReport:
    """The report for a convex domain whose pattern count is full."""
    e = edge(domain, u)
    inner = len(read(domain.minus(e)))
    levels: dict[int, int] = {}
    for cell in domain.cells:
        s = cell.dot(u)
        levels[s] = levels.get(s, 0) + 1
    return BalancedReport(u, full, len(domain), inner, len(e),
                          min(levels.values()), e)


class BalancedSearchResult(Frozen):
    """The first balanced set found, the orientation and its report."""

    domain: DiscreteDomain
    orientation: Vec2  # u or -u
    report: BalancedReport


def _canonical_order(d: DiscreteDomain):
    r = d.bounding_rect()
    return (r.height, r.width, [(cell.y, cell.x) for cell in d.cells])


def _closes_segments(p: Vec2, cells: set[Vec2]) -> bool:
    """Every lattice point between p and a cell is a cell.

    Convex sets pass; this cheap necessary test spares most is_convex
    calls while the candidates grow.
    """
    for a in cells:
        dx, dy = p.x - a.x, p.y - a.y
        g = math.gcd(dx, dy)
        if any(Vec2(a.x + k * dx // g, a.y + k * dy // g) not in cells
               for k in range(1, g)):
            return False
    return True


@cache
def _convex_sets(size: int, box: int) -> tuple[DiscreteDomain, ...]:
    """Convex sets of size cells inside [0, box)^2, anchored at the origin.

    Anchored sets touch x = 0 and y = 0, which dedups translated copies.
    Removing a hull vertex keeps a set convex, and a set of two or more
    cells has a hull vertex whose removal leaves a cell on y = 0: one
    above that row, or an end of a horizontal segment.  So each set of
    this size is an anchored set one cell smaller, shifted right inside
    the box, plus one cell.  Sorted by box height, box width, then
    row-major cells.
    """
    if size == 1:
        return (DiscreteDomain((ORIGIN,)),)
    seen: dict[frozenset, DiscreteDomain | None] = {}
    for d in _convex_sets(size - 1, box):
        for tx in range(box - d.bounding_rect().width + 1):
            moved = {cell + (tx, 0) for cell in d.cells}
            # a set shifted off x = 0 needs the new cell on x = 0
            for y in range(box):
                for x in range(1 if tx else box):
                    p = Vec2(x, y)
                    if p in moved:
                        continue
                    key = frozenset(moved | {p})
                    if key in seen:
                        continue
                    grown = None
                    if _closes_segments(p, moved):
                        grown = DiscreteDomain(tuple(key))
                        if not is_convex(grown):
                            grown = None
                    seen[key] = grown
    return tuple(sorted((d for d in seen.values() if d is not None),
                        key=_canonical_order))


def _convex_candidates(max_size: int, bbox_cap: int):
    """Convex sets in canonical order: size, bounding box, cell list.

    Each size's sets are built once per process, when the search first
    reaches that size.
    """
    for size in range(1, max_size + 1):
        yield from _convex_sets(size, min(size, bbox_cap))


def balanced_search(c: Configuration, n: int, m: int, u,
                    window: DiscreteDomain,
                    area_budget: int = 6) -> BalancedSearchResult | None:
    """First convex set balanced for u or -u, in canonical order.

    The enumeration is bounded: sets of up to area_budget cells whose
    bounding box has both sides at most min(size, n*m), so a convex set
    wider or taller than its size, such as {(0,0), (2,1)}, is never
    tried.  None is a budget statement, not a refutation.  The
    candidate sets are built once per process and reused; their cost
    grows 3-4x per cell of area_budget (about 0.4 s at 6 cells, 1.6 s
    and 51 MB at 7), so the command line caps area_budget at its
    MAX_AREA_BUDGET (7).  The n x m rectangle, every candidate and every
    candidate minus its edge fit in a box max(n, s) wide and max(m, s)
    tall, s = min(area_budget, n*m), so one _box_reader of that box
    counts them all from one block read, as projections of the box's
    values, when the window leaves the box every lattice coset.
    """
    u = Vec2.nonzero(u, "search direction must be nonzero")
    rect = DiscreteDomain.rect(n, m)
    cap = min(area_budget, n * m)
    read = _box_reader(c, window, max(n, cap), max(m, cap))
    rect_count = len(read(rect))
    if rect_count > n * m:
        warnings.warn(
            f"coloring has {rect_count} > {n * m} patterns "
            f"on the {n}x{m} rectangle; balanced set may not exist",
            NotLowComplexityWarning, stacklevel=2)
    for d in _convex_candidates(area_budget, n * m):
        full = len(read(d))
        if full > len(d.cells):
            continue  # condition (i) fails for u and -u alike
        for orientation in (u, -u):
            report = _report(read, d, orientation, full)
            if report.balanced:
                return BalancedSearchResult(d, orientation, report)
    return None
