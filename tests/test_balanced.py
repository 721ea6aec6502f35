import math
import random
import warnings
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecraft import balanced, colorings
from tilecraft.balanced import (NotConvex, NotLowComplexityWarning,
                                _convex_candidates, _convex_sets,
                                balanced_search, edge, is_balanced, is_convex)
from tilecraft.grid import (DiscreteDomain, PeriodicConfig, Vec2, WindowConfig,
                            ZeroVector, patterns_of)

import oracles


def W(w, h, origin=Vec2(0, 0)):
    return DiscreteDomain.rect(w, h, origin)


# --- edge --------------------------------------------------------------------

def test_edge_rect_right():
    d = DiscreteDomain.rect(3, 2, Vec2(1, 1))
    assert edge(d, Vec2(1, 0)).cells == (Vec2(3, 1), Vec2(3, 2))


def test_edge_rect_down():
    d = DiscreteDomain.rect(3, 2, Vec2(1, 1))
    assert edge(d, Vec2(0, -1)).cells == (Vec2(1, 1), Vec2(2, 1), Vec2(3, 1))


def test_edge_triangle_diagonal():
    d = DiscreteDomain([(0, 0), (1, 0), (0, 1)])
    assert set(edge(d, Vec2(1, 1)).cells) == {Vec2(1, 0), Vec2(0, 1)}


def test_edge_zero_vector():
    with pytest.raises(ZeroVector):
        edge(DiscreteDomain.rect(2, 2), Vec2(0, 0))


def test_edge_subset_single_line():
    d = DiscreteDomain([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
    for u in (Vec2(1, 0), Vec2(1, 1), Vec2(-1, 2)):
        e = edge(d, u)
        assert set(e.cells) <= set(d.cells)
        levels = {c.dot(u) for c in e.cells}
        assert len(levels) == 1


# --- is_convex -----------------------------------------------------------------

def test_convex_rectangles():
    for w, h in ((1, 1), (2, 3), (4, 4)):
        assert is_convex(DiscreteDomain.rect(w, h))


def test_full_rectangles_are_convex_without_the_hull(monkeypatch):
    def no_hull(cells):
        raise AssertionError("a full rectangle needs no hull")
    monkeypatch.setattr(balanced, "_hull", no_hull)
    for w, h, origin in ((1, 1, (0, 0)), (1, 7, (0, 0)), (5, 1, (-2, 3)),
                         (2, 3, (0, 0)), (4, 4, (-1, -1)), (30, 20, (7, -5))):
        assert is_convex(DiscreteDomain.rect(w, h, Vec2(*origin)))
    with pytest.raises(AssertionError, match="no hull"):
        is_convex(DiscreteDomain([(0, 0), (1, 0), (0, 1)]))


def test_convex_collinear_gap():
    assert not is_convex(DiscreteDomain([(0, 0), (2, 0)]))
    assert is_convex(DiscreteDomain([(0, 0), (1, 0), (2, 0)]))


def test_convex_triangle():
    assert is_convex(DiscreteDomain([(0, 0), (1, 0), (0, 1)]))


def test_convex_missing_interior():
    ring = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
    assert not is_convex(DiscreteDomain(ring))


def test_convex_needs_more_than_segment_closure():
    # every segment between vertices carries no further lattice points,
    # yet the hull contains (1, 1): segment closure alone is not convexity
    tri = DiscreteDomain([(0, 0), (2, 1), (1, 2)])
    assert not is_convex(tri)
    assert is_convex(DiscreteDomain([(0, 0), (2, 1), (1, 2), (1, 1)]))


def test_convex_translation_invariant():
    d = DiscreteDomain([(0, 0), (1, 0), (0, 1)])
    bad = DiscreteDomain([(0, 0), (2, 1), (4, 2), (0, 1)])
    for t in (Vec2(3, -2), Vec2(-1, 5)):
        assert is_convex(d.translate(t)) == is_convex(d)
        assert is_convex(bad.translate(t)) == is_convex(bad)


def test_convex_matches_the_caratheodory_oracle_on_the_3x3_box():
    box = list(DiscreteDomain.rect(3, 3).cells)
    for mask in range(1, 1 << len(box)):
        d = DiscreteDomain([c for i, c in enumerate(box) if mask >> i & 1])
        assert is_convex(d) == oracles.naive_is_convex(d), d.cells
    # seeded domains in an offset 5x4 box: random subsets, the lattice
    # points of the hull of 3-4 random cells, and those hulls minus a cell
    rng = random.Random(27)
    box = list(DiscreteDomain.rect(5, 4, Vec2(-2, 3)).cells)
    domains, long_edges = [], 0
    for _ in range(334):
        domains.append(rng.sample(box, rng.randint(1, len(box))))
        corners = rng.sample(box, rng.randint(3, 4))
        hull = [p for p in box if oracles.naive_in_hull(p, corners)]
        gone = rng.choice(hull)
        domains += [hull, [p for p in hull if p != gone]]
        a, b, c = corners[:3]
        if len(corners) == 3 and (b - a).cross(c - a):  # sides are edges
            long_edges += any(math.gcd(*(q - p)) > 1
                              for p, q in combinations(corners, 2))
    assert long_edges >= 50
    for cells in domains:
        d = DiscreteDomain(cells)
        assert is_convex(d) == oracles.naive_is_convex(d), d.cells


def test_convex_matches_the_caratheodory_oracle_on_collinear_sets():
    for step in (Vec2(1, 0), Vec2(0, 1), Vec2(1, 1), Vec2(2, 1),
                 Vec2(1, -2), Vec2(-3, 2)):
        line = [Vec2(-1, 2) + k * step for k in range(5)]
        for mask in range(1, 1 << len(line)):
            d = DiscreteDomain([c for i, c in enumerate(line) if mask >> i & 1])
            assert is_convex(d) == oracles.naive_is_convex(d), d.cells


def test_convex_cuts_contiguous():
    shapes = [DiscreteDomain.rect(3, 2),
              DiscreteDomain([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]),
              DiscreteDomain([(0, 0), (1, 0), (0, 1)])]
    for d in shapes:
        assert is_convex(d)
        for u in (Vec2(0, 1), Vec2(1, 0)):
            levels = {}
            for c in d.cells:
                levels.setdefault(c.dot(u), []).append(c)
            for cells in levels.values():
                xs = sorted(c.dot(u.perp()) for c in cells)
                assert xs == list(range(xs[0], xs[0] + len(xs)))


# --- is_balanced -------------------------------------------------------------------

def test_balanced_constant(constant_zero):
    rep = is_balanced(constant_zero, DiscreteDomain.rect(2, 2), Vec2(0, 1),
                      W(10, 10))
    assert rep.counts == (1, 1, 2)
    assert rep.min_line_count == 2
    assert rep.balanced


def test_balanced_checkerboard(checkerboard):
    rep = is_balanced(checkerboard, DiscreteDomain.rect(2, 2), Vec2(0, 1),
                      W(10, 10))
    assert rep.counts == (2, 2, 2)
    assert rep.balanced


def test_balanced_five_pattern_window_fails(five_pattern_window):
    rep = is_balanced(five_pattern_window, DiscreteDomain.rect(2, 2),
                      Vec2(0, 1), five_pattern_window.domain())
    assert rep.pattern_count == 5
    assert not rep.cond_low_complexity
    assert not rep.balanced


def test_balanced_rejects_nonconvex(constant_zero):
    with pytest.raises(NotConvex):
        is_balanced(constant_zero, DiscreteDomain([(0, 0), (2, 0)]),
                    Vec2(0, 1), W(8, 8))


def test_balanced_counts_shared_with_patterns_of(checkerboard):
    d = DiscreteDomain.rect(2, 2)
    rep = is_balanced(checkerboard, d, Vec2(0, 1), W(10, 10))
    assert rep.pattern_count == len(patterns_of(checkerboard, d, W(10, 10)))
    inner = d.minus(rep.edge_cells)
    assert rep.inner_pattern_count == len(
        patterns_of(checkerboard, inner, W(10, 10)))


# --- balanced_search ----------------------------------------------------------------

def test_search_constant_singleton(constant_zero):
    res = balanced_search(constant_zero, 2, 2, Vec2(0, 1), W(10, 10))
    assert res is not None
    assert len(res.domain) == 1
    assert res.report.counts == (1, 1, 1)


def test_search_checkerboard(checkerboard):
    res = balanced_search(checkerboard, 2, 2, Vec2(1, 0), W(10, 10))
    assert res is not None
    revalidated = is_balanced(checkerboard, res.domain, res.orientation,
                              W(10, 10))
    assert revalidated.balanced


def test_search_five_pattern_warns(five_pattern_window):
    # with the budget exhausted at singletons (two colors present, so
    # condition (i) fails) the search reports NotFound and warns
    with pytest.warns(NotLowComplexityWarning):
        res = balanced_search(five_pattern_window, 2, 2, Vec2(0, 1),
                              five_pattern_window.domain(), area_budget=1)
    assert res is None


def test_convex_candidates_match_naive_filter():
    # the naive filter orders by size first, so its sets of at most s cells
    # are exactly its output for max_size s
    naive = {cap: [d.cells for d in oracles.naive_convex_candidates(5, cap)]
             for cap in range(1, 6)}
    naive[4, 6] = [d.cells for d in oracles.naive_convex_candidates(6, 4)]
    _convex_sets.cache_clear()
    for memo in ("cold", "warm"):
        for cap in range(1, 6):
            for max_size in range(1, 6):
                grown = [d.cells for d in _convex_candidates(max_size, cap)]
                expected = [cells for cells in naive[cap]
                            if len(cells) <= max_size]
                assert grown == expected, (memo, max_size, cap)
        assert [d.cells for d in _convex_candidates(6, 4)] == naive[4, 6], memo


_DIRECTIONS = [Vec2(0, 1), Vec2(1, 0), Vec2(1, 1), Vec2(1, -1), Vec2(-1, 2),
               Vec2(2, 1), Vec2(0, -2), Vec2(0, 0)]


@st.composite
def _search_cases(draw):
    colors = draw(st.integers(2, 3))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    origin = Vec2(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    # windows from just fitting the n x m rectangle (too small for the
    # wider candidates) to four cells more each way, some rows starting
    # one cell later
    ww, wh = n + draw(st.integers(0, 4)), m + draw(st.integers(0, 4))
    starts = draw(st.lists(st.integers(0, 1), min_size=wh, max_size=wh))
    if draw(st.booleans()):
        starts = [0] * wh
    window = DiscreteDomain([origin + (x, y) for y in range(wh)
                             for x in range(starts[y], ww)])
    if draw(st.booleans()):
        a, c_ = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        b = draw(st.integers(0, a - 1))  # b > 0 shears the lattice
        block = draw(st.lists(
            st.lists(st.integers(0, colors - 1), min_size=a, max_size=a),
            min_size=c_, max_size=c_))
        config = PeriodicConfig(a, b, c_, block)
    else:
        # a window coloring covering the window, now and then a column short
        short = draw(st.integers(0, 7)) == 0
        w = max(1, ww + draw(st.integers(0, 1)) - short)
        rows = draw(st.lists(
            st.lists(st.integers(0, colors - 1), min_size=w, max_size=w),
            min_size=wh, max_size=wh))
        config = WindowConfig.from_rows(rows, origin)
    u = draw(st.sampled_from(_DIRECTIONS))
    return config, n, m, u, window, draw(st.integers(1, 4))


def _search_outcome(search, case):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = search(*case)
        except Exception as exc:  # compared by type against the oracle
            result = type(exc)
    return result, [(w.category, str(w.message)) for w in caught]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_search_cases())
def test_balanced_search_matches_naive_search(case):
    assert (_search_outcome(balanced_search, case)
            == _search_outcome(oracles.naive_balanced_search, case))


@st.composite
def _shared_read_cases(draw):
    """Sheared periodic colorings on windows about as wide and tall as
    balanced_search's one block read, with the search's arguments and a
    window coloring equal to the periodic one on the window.

    The rectangular windows run from the read box plus span_x - 1
    columns to three columns more, and from one row too short for
    span_y translates of the tallest set to three rows more; ragged
    windows and the window coloring take the cell-by-cell path."""
    colors = draw(st.integers(2, 3))
    a, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    b = draw(st.integers(0, a - 1))
    config = PeriodicConfig(a, b, h, draw(st.lists(
        st.lists(st.integers(0, colors - 1), min_size=a, max_size=a),
        min_size=h, max_size=h)))
    n, m, area_budget = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                         draw(st.integers(1, 4)))
    side = max(n, m, min(area_budget, n * m))
    ww = side + config.span_x - 1 + draw(st.integers(0, 3))
    wh = max(1, side + config.span_y - 1 + draw(st.integers(-1, 3)))
    origin = Vec2(draw(st.integers(-5, 5)), draw(st.integers(-5, 5)))
    cells = [origin + (x, y) for y in range(wh) for x in range(ww)]
    if draw(st.integers(0, 3)) == 0:  # ragged: a few cells left out
        dropped = draw(st.sets(st.sampled_from(cells), min_size=1,
                               max_size=3))
        cells = [cell for cell in cells if cell not in dropped]
    window = DiscreteDomain(cells)
    copy = WindowConfig.from_rows(
        [[oracles.block_color(config.span_x, config.shear, config.span_y,
                              config.block, (x, y))
          for x in range(origin.x, origin.x + ww)]
         for y in range(origin.y, origin.y + wh)], origin)
    u = draw(st.sampled_from(_DIRECTIONS[:-1]))
    return config, copy, n, m, u, window, area_budget


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_shared_read_cases())
def test_shared_block_read_matches_naive_search(case):
    # the naive search counts each set through its own read, and on the
    # window coloring cell by cell through the oracles' block_color
    config, copy, n, m, u, window, area_budget = case
    found = _search_outcome(balanced_search,
                            (config, n, m, u, window, area_budget))
    assert found == _search_outcome(oracles.naive_balanced_search,
                                    (config, n, m, u, window, area_budget))
    assert found == _search_outcome(oracles.naive_balanced_search,
                                    (copy, n, m, u, window, area_budget))
    result, _warnings = found
    domains = [DiscreteDomain.rect(n, m)]
    if isinstance(result, balanced.BalancedSearchResult):
        assert is_balanced(config, result.domain, result.orientation,
                           window) == result.report
        domains.append(result.domain)
    for d in domains:
        assert (_search_outcome(is_balanced, (config, d, u, window))
                == _search_outcome(is_balanced, (copy, d, u, window)))


def test_search_reads_the_block_once(monkeypatch):
    # no set is balanced until the 3-cell ones, so the search counts
    # the rectangle and many candidates and inner sets, all from one read
    config = PeriodicConfig(2, 1, 2, ((0, 1), (1, 1)))
    assert config.shear == 1
    window = W(9, 8, Vec2(-3, 2))
    expected = oracles.naive_balanced_search(config, 2, 2, Vec2(1, 0),
                                             window, 4)
    assert len(expected.domain) == 3
    reads = []
    real = colorings._block_rows

    def counted(*args):
        reads.append(args)
        return real(*args)
    monkeypatch.setattr(colorings, "_block_rows", counted)
    assert balanced_search(config, 2, 2, Vec2(1, 0), window, 4) == expected
    assert len(reads) == 1


def test_is_balanced_reads_the_block_once(monkeypatch):
    # the domain and the domain minus its edge are projections of one
    # read of the domain's bounding box
    config = PeriodicConfig(2, 1, 2, ((0, 1), (1, 1)))
    window = W(9, 8, Vec2(-3, 2))
    found = oracles.naive_balanced_search(config, 2, 2, Vec2(1, 0),
                                          window, 4)
    copy = WindowConfig.from_rows(
        [[config.color_at((x, y)) for x in range(-3, 6)]
         for y in range(2, 10)], Vec2(-3, 2))
    cases = [(W(2, 2), Vec2(1, 0)), (found.domain, found.orientation)]
    expected = [is_balanced(copy, d, u, window) for d, u in cases]
    reads = []
    real = colorings._block_rows

    def counted(*args):
        reads.append(args)
        return real(*args)
    monkeypatch.setattr(colorings, "_block_rows", counted)
    assert [is_balanced(config, d, u, window) for d, u in cases] == expected
    assert len(reads) == len(cases)
