"""Edges, convexity, fits, stripes and the balanced-set conditions.

A convex cell set D is balanced for a direction u in a coloring when
(i) the coloring is low complexity on D, (ii) dropping the edge of D
in direction u loses almost no patterns, and (iii) no cut of D
perpendicular to u is much shorter than that edge.  All counting goes
through grid.patterns_of, so the numbers here are the same numbers the
complexity reports show.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .grid import (Configuration, DiscreteDomain, Rect, Vec2, ZeroVector,
                   find_periods, is_low_complexity, patterns_of, PeriodScan)


class NotConvex(ValueError):
    """The balanced conditions are defined for convex cell sets only."""


class DoesNotFit(ValueError):
    """No translate of the set lies inside the target region."""


class NotLowComplexityWarning(UserWarning):
    """Search precondition violated; existence is no longer guaranteed."""


def edge(domain: DiscreteDomain, u) -> DiscreteDomain:
    """Cells of the domain furthest in direction u."""
    u = Vec2(u[0], u[1])
    if u.is_zero():
        raise ZeroVector("edge direction must be nonzero")
    if not len(domain):
        raise ValueError("edge of an empty domain is undefined")
    top = max(c.dot(u) for c in domain.cells)
    return DiscreteDomain(tuple(c for c in domain.cells if c.dot(u) == top))


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
    """True when the domain equals the lattice points of its real hull."""
    cells = list(domain.cells)
    if len(cells) <= 1:
        return True
    hull = _hull(cells)
    if len(hull) <= 2:
        # collinear: the segment's lattice points must all be present
        lo, hi = min(cells), max(cells)
        d = hi - lo
        g = math.gcd(abs(d.x), abs(d.y))
        step = Vec2(d.x // g, d.y // g)
        return len(cells) == g + 1 and all(
            lo + i * step in domain for i in range(g + 1))
    edges = list(zip(hull, hull[1:] + hull[:1]))
    box = domain.bounding_rect()
    inside = 0
    for p in box.cells():
        if all((b - a).cross(p - a) >= 0 for a, b in edges):
            if p not in domain:
                return False
            inside += 1
    return inside == len(cells)


@dataclass(frozen=True)
class Stripe:
    """Band -k < <x,u> <= 0; its interior drops the boundary line."""

    u: Vec2
    k: int

    def __post_init__(self):
        u = Vec2(self.u[0], self.u[1])
        if u.is_zero():
            raise ZeroVector("stripe direction must be nonzero")
        if self.k < 1:
            raise ValueError("stripe width must be >= 1")
        object.__setattr__(self, "u", u)

    def contains(self, x) -> bool:
        s = Vec2(x[0], x[1]).dot(self.u)
        return -self.k < s <= 0

    def interior_contains(self, x) -> bool:
        s = Vec2(x[0], x[1]).dot(self.u)
        return -self.k < s < 0

    def cells_in(self, window: DiscreteDomain) -> DiscreteDomain:
        return DiscreteDomain(tuple(x for x in window.cells if self.contains(x)))


def fits(domain: DiscreteDomain, region, window: DiscreteDomain | Rect | None = None):
    """First translation t (canonical order) with domain + t inside region.

    The region may be a DiscreteDomain, a Stripe, or any cell
    predicate; the window bounds the searched translations.  Returns
    None when no searched translate fits.
    """
    if isinstance(region, DiscreteDomain):
        pred: Callable = region.__contains__
        if window is None:
            window = region.bounding_rect()
    elif isinstance(region, Stripe):
        pred = region.contains
        if window is None:
            raise ValueError("stripe fitting needs an explicit window")
    else:
        pred = region
        if window is None:
            raise ValueError("predicate fitting needs an explicit window")
    wrect = window if isinstance(window, Rect) else window.bounding_rect()
    drect = domain.bounding_rect()
    for ty in range(wrect.y0 - drect.y0, wrect.y1 - drect.y1 + 1):
        for tx in range(wrect.x0 - drect.x0, wrect.x1 - drect.x1 + 1):
            t = Vec2(tx, ty)
            if all(pred(c + t) for c in domain.cells):
                return t
    return None


@dataclass(frozen=True)
class BalancedReport:
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
    u = Vec2(u[0], u[1])
    if u.is_zero():
        raise ZeroVector("balanced direction must be nonzero")
    if not is_convex(domain):
        raise NotConvex("balanced sets must be convex")
    e = edge(domain, u)
    full = len(patterns_of(c, domain, window))
    inner = len(patterns_of(c, domain.minus(e), window))
    levels: dict[int, int] = {}
    for cell in domain.cells:
        s = cell.dot(u)
        levels[s] = levels.get(s, 0) + 1
    return BalancedReport(u, full, len(domain), inner, len(e),
                          min(levels.values()), e)


@dataclass(frozen=True)
class BalancedSearchResult:
    domain: DiscreteDomain
    orientation: Vec2  # u or -u
    report: BalancedReport


def _convex_candidates(max_size: int, bbox_cap: int):
    """Convex sets in canonical order: size, bounding box, cell list.

    Representatives are anchored by touching all four sides of their
    bounding box, which dedups translated copies.
    """
    for size in range(1, max_size + 1):
        for h in range(1, min(size, bbox_cap) + 1):
            for w in range(1, min(size, bbox_cap) + 1):
                if w * h < size:
                    continue
                grid = [Vec2(x, y) for y in range(h) for x in range(w)]
                for combo in combinations(grid, size):
                    xs = {c.x for c in combo}
                    ys = {c.y for c in combo}
                    if 0 not in xs or w - 1 not in xs:
                        continue
                    if 0 not in ys or h - 1 not in ys:
                        continue
                    d = DiscreteDomain(combo)
                    if is_convex(d):
                        yield d


def balanced_search(c: Configuration, n: int, m: int, u,
                    window: DiscreteDomain,
                    area_budget: int = 6) -> BalancedSearchResult | None:
    """First convex set balanced for u or -u, in canonical order.

    The enumeration is bounded (size up to area_budget, boxes up to
    n*m); None is a budget statement, not a refutation.
    """
    u = Vec2(u[0], u[1])
    if u.is_zero():
        raise ZeroVector("search direction must be nonzero")
    rect_report = is_low_complexity(c, DiscreteDomain.rect(n, m), window)
    if not rect_report.low:
        warnings.warn(
            f"coloring has {rect_report.count} > {rect_report.bound} patterns "
            f"on the {n}x{m} rectangle; balanced set may not exist",
            NotLowComplexityWarning, stacklevel=2)
    for d in _convex_candidates(area_budget, n * m):
        for orientation in (u, -u):
            report = is_balanced(c, d, orientation, window)
            if report.balanced:
                return BalancedSearchResult(d, orientation, report)
    return None


@dataclass(frozen=True)
class StripeScenarioReport:
    """Desk-scale corroboration of the stripe disagreement scenario.

    When two colorings agree on a stripe's interior but not on the
    whole stripe, periodicity perpendicular to the stripe direction is
    expected; this harness checks the hypotheses and reports the
    perpendicular periods actually observed.  It corroborates, it does
    not prove.
    """

    fit_at: Vec2
    interior_agree: bool
    stripe_differ: bool
    perpendicular_periods: tuple[Vec2, ...]
    period_scan: PeriodScan | None

    @property
    def hypotheses_hold(self) -> bool:
        return self.interior_agree and self.stripe_differ

    @property
    def corroborated(self) -> bool | None:
        if not self.hypotheses_hold:
            return None
        return bool(self.perpendicular_periods)


def stripe_scenario_check(d: Configuration, e: Configuration,
                          domain: DiscreteDomain, u, k: int,
                          window: DiscreteDomain,
                          period_bound: int = 4) -> StripeScenarioReport:
    u = Vec2(u[0], u[1])
    stripe = Stripe(u, k)
    t = fits(domain, stripe, window)
    if t is None:
        raise DoesNotFit(f"no translate of the set fits in the width-{k} stripe")
    stripe_cells = stripe.cells_in(window)
    interior = [x for x in stripe_cells if stripe.interior_contains(x)]
    interior_agree = all(d.color_at(x) == e.color_at(x) for x in interior)
    stripe_equal = all(d.color_at(x) == e.color_at(x) for x in stripe_cells)
    scan = None
    perpendicular: tuple[Vec2, ...] = ()
    if interior_agree and not stripe_equal:
        scan = find_periods(d, window, period_bound)
        perpendicular = tuple(p for p in scan.periods if p.dot(u) == 0)
    return StripeScenarioReport(t, interior_agree, not stripe_equal,
                                perpendicular, scan)
