import math
import pickle
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecraft import colorings
from tilecraft.algebra import LaurentPoly, annihilates, apply, difference_poly
from tilecraft.balanced import balanced_search, edge, is_balanced
from tilecraft.colorings import (_block_color, _block_rows, _lattice_hnf,
                                  _box_reader, _saturate)
from tilecraft.grid import (Alphabet, DiscreteDomain, EmptyWindow, OutOfWindow,
                            Pattern, PeriodicConfig, Rect, Vec2, WindowConfig,
                            ZeroVector, find_periods, is_low_complexity,
                            patterns_of)
from tilecraft.sft import PatternSet, box_cells, determinism_probe

import oracles
from conftest import FIVE_PATTERN_ROWS


def rect_window(w, h, origin=Vec2(0, 0)):
    return DiscreteDomain.rect(w, h, origin)


# --- translate -------------------------------------------------------------

def test_translate_identity(checkerboard):
    assert checkerboard.translate(Vec2(0, 0)) == checkerboard


def test_translate_stripes(vertical_stripes):
    shifted = vertical_stripes.translate(Vec2(1, 0))
    for x in range(-3, 4):
        for y in range(-2, 3):
            assert shifted.color_at(Vec2(x, y)) == (x - 1) % 2


def test_translate_window():
    w = WindowConfig.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    t = w.translate(Vec2(5, 5))
    assert t.rect == Rect(5, 5, 7, 7)
    assert t.color_at(Vec2(5, 5)) == 1
    assert t.color_at(Vec2(7, 7)) == 9


def test_translate_composition(checkerboard, five_pattern_window):
    rng = random.Random(7)
    for c in (checkerboard, five_pattern_window):
        for _ in range(20):
            s = Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
            t = Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
            once = c.translate(s).translate(t)
            combined = c.translate(s + t)
            probe = combined.domain().cells if isinstance(c, WindowConfig) \
                else rect_window(4, 4).cells
            for n in probe:
                assert once.color_at(n) == combined.color_at(n)


# --- color_at --------------------------------------------------------------

def test_color_at_checkerboard(checkerboard):
    assert checkerboard.color_at(Vec2(3, 4)) == (3 + 4) % 2 == 1


def test_color_at_constant(constant_zero):
    for n in (Vec2(0, 0), Vec2(-17, 31), Vec2(5, 5)):
        assert constant_zero.color_at(n) == 0


def test_color_at_out_of_window():
    w = WindowConfig.from_rows([[0, 1], [1, 0]])
    with pytest.raises(OutOfWindow):
        w.color_at(Vec2(9, 9))


# --- patterns_of -----------------------------------------------------------

def test_patterns_constant(constant_zero, square2):
    pats = patterns_of(constant_zero, square2, rect_window(10, 10))
    assert len(pats) == 1
    assert pats[0].values == (0, 0, 0, 0)


def test_patterns_checkerboard_domino(checkerboard):
    domino = DiscreteDomain([(0, 0), (1, 0)])
    pats = patterns_of(checkerboard, domino, rect_window(6, 6))
    assert sorted(p.values for p in pats) == [(0, 1), (1, 0)]


def test_patterns_checkerboard_square(checkerboard, square2):
    pats = patterns_of(checkerboard, square2, rect_window(6, 6))
    assert len(pats) == 2 <= len(square2)


def test_patterns_empty_window(square2, checkerboard):
    with pytest.raises(EmptyWindow):
        patterns_of(checkerboard, square2, rect_window(1, 1))


def test_patterns_window_must_be_readable(square2, five_pattern_window):
    # window extends past the configuration's rectangle
    with pytest.raises(OutOfWindow):
        patterns_of(five_pattern_window, square2, rect_window(6, 6))


def test_patterns_monotone_in_window(checkerboard, five_pattern_window, square2):
    for c in (checkerboard, five_pattern_window):
        small = set(patterns_of(c, square2, rect_window(3, 3)))
        big = set(patterns_of(c, square2, rect_window(4, 4)))
        assert small <= big


def test_pattern_count_bound():
    rng = random.Random(11)
    shape = DiscreteDomain.rect(2, 2)
    for _ in range(10):
        rows = [[rng.choice([0, 1]) for _ in range(5)] for _ in range(5)]
        c = WindowConfig.from_rows(rows)
        count = len(patterns_of(c, shape, c.domain()))
        assert count <= 2 ** len(shape)


def test_patterns_translation_covariant(checkerboard, vertical_stripes):
    # the same patterns appear when configuration and window shift together
    rng = random.Random(41)
    shape = DiscreteDomain.rect(2, 2)
    for c in (checkerboard, vertical_stripes):
        for _ in range(10):
            t = Vec2(rng.randint(-4, 4), rng.randint(-4, 4))
            base = patterns_of(c, shape, rect_window(5, 5))
            moved = patterns_of(c.translate(t), shape,
                                rect_window(5, 5, Vec2(0, 0) + t))
            assert base == moved


def _unfolded(c, window, f):
    """c as a WindowConfig on a rectangle covering every cell that
    patterns_of(c, _, window) and apply(f, c, window) can read."""
    if not len(window):
        return WindowConfig.from_rows([[c.color_at(Vec2(0, 0))]])
    w = window.bounding_rect()
    xs = [0] + [e.x for e in f.support()]
    ys = [0] + [e.y for e in f.support()]
    rect = Rect(w.x0 - max(xs), w.y0 - max(ys), w.x1 - min(xs), w.y1 - min(ys))
    return WindowConfig(rect, tuple(
        tuple(c.color_at(Vec2(x, y)) for x in range(rect.x0, rect.x1 + 1))
        for y in range(rect.y0, rect.y1 + 1)))


def _patterns_or_empty(c, shape, window):
    try:
        return patterns_of(c, shape, window)
    except EmptyWindow:
        return EmptyWindow


@st.composite
def _block_path_cases(draw):
    if draw(st.booleans()):  # sheared: 0 < b and two or more block rows
        a, c_ = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        b = draw(st.integers(1, a - 1))
    else:
        a, c_ = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        b = draw(st.integers(0, a - 1))
    block = draw(st.lists(st.lists(st.integers(0, 2), min_size=a, max_size=a),
                          min_size=c_, max_size=c_))
    config = PeriodicConfig(a, b, c_, block)
    # a shape inside a 3x3 box that may reach negative coordinates
    corner = Vec2(draw(st.integers(-3, 1)), draw(st.integers(-3, 1)))
    box = [corner + (x, y) for y in range(3) for x in range(3)]
    shape = DiscreteDomain(draw(st.sets(st.sampled_from(box), min_size=1)))
    origin = Vec2(draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
    if draw(st.booleans()):
        # a rectangle whose translates span 1 .. span_x + 2 columns and
        # 1 .. span_y + 1 rows: narrower or shorter than a block, or not
        s = shape.bounding_rect()
        cols = draw(st.integers(1, config.span_x + 2))
        rows = draw(st.integers(1, config.span_y + 1))
        window = DiscreteDomain.rect(s.width + cols - 1, s.height + rows - 1,
                                     origin)
    else:
        # offset windows of up to 9 rows, each row a run of up to 7 cells:
        # empty, smaller than a block, rectangular or ragged
        rows = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 7)),
                             max_size=9))
        if rows and draw(st.booleans()):
            rows = [rows[0]] * len(rows)
        window = DiscreteDomain([origin + (start + x, y)
                                 for y, (start, width) in enumerate(rows)
                                 for x in range(width)])
    if draw(st.booleans()):
        # a lattice vector's difference polynomial annihilates
        k, m = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
        period = config.p1 * k + config.p2 * m
        f = difference_poly(period) if not period.is_zero() else LaurentPoly.one()
    else:
        f = LaurentPoly(draw(st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-2, 2).filter(bool), min_size=0, max_size=4)))
    t = Vec2(draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
    return config, shape, window, f, t


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_block_path_cases())
def test_periodic_block_path_matches_unfolded_window(case):
    # the periodic path reads row slices of the block; the window path
    # reads every cell and serves as the reference
    c, shape, window, f, t = case
    ref = _unfolded(c, window, f)
    assert (_patterns_or_empty(c, shape, window)
            == _patterns_or_empty(ref, shape, window))
    assert list(apply(f, c, window).items()) == list(apply(f, ref, window).items())
    with warnings.catch_warnings():  # the zero polynomial warns
        warnings.simplefilter("ignore")
        assert annihilates(f, c, window) == annihilates(f, ref, window)
    moved, ref_moved = c.translate(t), ref.translate(t)
    assert (moved.span_x, moved.shear, moved.span_y) == (
        c.span_x, c.shear, c.span_y)
    assert all(moved.color_at(n) == ref_moved.color_at(n)
               for n in ref_moved.domain().cells)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_block_rows_match_block_color(data):
    # any Hermite basis (a, 0), (b, c), sheared or not, read from origins
    # left of and below zero, in widths below, equal to and above a
    a, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    b = data.draw(st.integers(0, a - 1))
    block = data.draw(st.lists(st.tuples(*[st.integers(0, 9)] * a),
                               min_size=c, max_size=c))
    x0, y0 = data.draw(st.integers(-13, 4)), data.draw(st.integers(-13, 4))
    width = data.draw(st.integers(0, 3 * a + 2))
    height = data.draw(st.integers(0, 2 * c + 2))
    rows = _block_rows(a, b, c, block, x0, y0, width, height)
    expected = [[oracles.block_color(a, b, c, block, (x, y))
                 for x in range(x0, x0 + width)]
                for y in range(y0, y0 + height)]
    assert [list(row) for row in rows] == expected
    assert [[_block_color(a, b, c, block, (x, y))
             for x in range(x0, x0 + width)]
            for y in range(y0, y0 + height)] == expected


# a sheared lattice four rows tall; color 2 sits in block row 3 only,
# so a one-row shape meets it only at the fourth row coset
_TALL = PeriodicConfig(3, 1, 4, ((0, 1, 1), (1, 0, 0), (0, 0, 1), (1, 2, 0)))
_TALL_SHAPES = [DiscreteDomain(cells) for cells in (
    [(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1)],
    [(0, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)], [(2, 0), (0, 2)],
    [(x, y) for y in range(3) for x in range(3)])]


def _cell_by_cell(c, shape, window, rows=None):
    """The value tuples at every translate of shape inside a rectangular
    window, read through the oracles' block_color; rows, when given,
    keeps the translates of the window's first rows only."""
    w, s = window.bounding_rect(), shape.bounding_rect()
    ys = range(w.y0 - s.y0, w.y1 - s.y1 + 1)[:rows]
    return {tuple(oracles.block_color(c.span_x, c.shear, c.span_y, c.block,
                                      cell + (tx, ty)) for cell in shape.cells)
            for ty in ys for tx in range(w.x0 - s.x0, w.x1 - s.x1 + 1)}


def test_box_reader_projects_only_when_its_box_meets_every_coset(
        monkeypatch):
    assert (_TALL.span_x, _TALL.shear, _TALL.span_y) == (3, 1, 4)
    side, origin = 3, Vec2(-2, 4)  # window rows 4, 5, 6 miss block row 3
    # side + span_y - 2 rows: the box has 3 row cosets, a row shape has 4
    short = rect_window(side + 2, side + 2, origin)
    row = _TALL_SHAPES[0]
    assert (len(_cell_by_cell(_TALL, row, short, rows=3))
            < len(_cell_by_cell(_TALL, row, short)))
    read = _box_reader(_TALL, short, side, side)
    for shape in _TALL_SHAPES:
        assert read(shape) == _cell_by_cell(_TALL, shape, short), shape
    # one row taller, every shape is a projection of the box's one read
    tall = rect_window(side + 2, side + 3, origin)
    reads = []
    real = colorings._block_rows

    def counted(*args):
        reads.append(args)
        return real(*args)

    def refused(*args):
        raise AssertionError("read cell by cell")
    monkeypatch.setattr(colorings, "_block_rows", counted)
    monkeypatch.setattr(colorings, "_fitting_translates", refused)
    read = _box_reader(_TALL, tall, side, side)
    for shape in _TALL_SHAPES:
        assert read(shape) == _cell_by_cell(_TALL, shape, tall), shape
    assert len(reads) == 1
    # the box's own read shares its tuples rather than copying them
    box = _TALL_SHAPES[-1]
    assert {id(t) for t in read(box)} == {id(t) for t in read(box)}


def _rows_only(monkeypatch):
    """The list of _block_rows reads that follow; a cell-by-cell walk
    fails the test."""
    reads = []
    real = colorings._block_rows

    def counted(*args):
        reads.append(args)
        return real(*args)

    def refused(*args):
        raise AssertionError("read cell by cell")
    monkeypatch.setattr(colorings, "_block_rows", counted)
    monkeypatch.setattr(colorings, "_fitting_translates", refused)
    return reads


def test_box_reader_reads_each_shape_from_row_slices_on_a_short_window(
        monkeypatch):
    # the box misses a row coset, so each shape is read on its own, and
    # every one is still wide enough for the row-slice path
    short = rect_window(5, 5, Vec2(-2, 4))
    reads = _rows_only(monkeypatch)
    read = _box_reader(_TALL, short, 3, 3)
    for shape in _TALL_SHAPES:
        assert read(shape) == _cell_by_cell(_TALL, shape, short), shape
    assert len(reads) == len(_TALL_SHAPES)


@pytest.mark.parametrize("k", [1, 7, 40])
def test_sparse_shape_reads_rows_sized_to_its_box(monkeypatch, k):
    # two cells k apart on a diagonal, on a window two translate rows
    # tall and wide enough for span_x translates: one read of the
    # shape's box grown by span_x - 1 columns and one row
    shape = DiscreteDomain([(0, 0), (k, k)])
    window = rect_window(k + 6, k + 2, Vec2(3, -5))
    reads = _rows_only(monkeypatch)
    values = [p.values for p in patterns_of(_TALL, shape, window)]
    assert values == sorted(_cell_by_cell(_TALL, shape, window))
    assert [args[-2:] for args in reads] == [(k + 1 + 2, k + 1 + 1)]


class _FractionColors(colorings.Configuration):
    """A user coloring whose color_at gives int-valued Fractions."""

    def color_at(self, n):
        return Fraction((n.x + 2 * n.y) % 3)


def test_patterns_of_another_configuration_holds_ints():
    patterns = patterns_of(_FractionColors(), rect_window(2, 1),
                           rect_window(4, 4))
    assert [p.values for p in patterns] == [(0, 1), (1, 2), (2, 0)]
    assert all(type(v) is int for p in patterns for v in p.values)


@pytest.mark.parametrize("a, b, c, block", [
    (2, 1, 2, [[0, 1], [1, 1]]),
    (3, 1, 2, [[0, 0, 1], [0, 1, 1]]),
    (3, 2, 2, [[0, 1, 2], [1, 1, 0]]),
    (4, 3, 2, [[0, 1, 1, 0], [1, 0, 0, 0]]),
    (4, 1, 3, [[0, 0, 1, 1], [0, 1, 0, 0], [1, 0, 0, 0]]),  # none found
])
@pytest.mark.parametrize("u", [Vec2(1, 0), Vec2(0, 1)])
def test_balanced_search_on_sheared_blocks_matches_unfolded_window(
        a, b, c, block, u):
    config = PeriodicConfig(a, b, c, block)
    assert (config.span_x, config.shear, config.span_y) == (a, b, c)
    window = rect_window(13, 11, Vec2(-3, -2))
    found = []
    for coloring in (config, _unfolded(config, window, LaurentPoly.one())):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = balanced_search(coloring, 2, 2, u, window, 4)
        found.append((result, [w.category for w in caught]))
    assert found[0] == found[1]


def test_pattern_not_translation_invariant():
    a = Pattern.from_rows([[0, 1]])
    b = Pattern.from_rows([[0, 1]], Vec2(1, 0))
    assert a != b


def test_pattern_equality_order_independent():
    cells = [Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)]
    a = Pattern.of(DiscreteDomain(cells), {Vec2(0, 0): 1, Vec2(1, 0): 2,
                                           Vec2(0, 1): 3})
    b = Pattern.of(DiscreteDomain(list(reversed(cells))),
                   {Vec2(0, 1): 3, Vec2(0, 0): 1, Vec2(1, 0): 2})
    assert a == b and hash(a) == hash(b)


# --- low complexity --------------------------------------------------------

def test_low_complexity_constant(constant_zero):
    rep = is_low_complexity(constant_zero, DiscreteDomain.rect(3, 3),
                            rect_window(12, 12))
    assert rep.low and rep.count == 1


def test_low_complexity_checkerboard(checkerboard, square2):
    rep = is_low_complexity(checkerboard, square2, rect_window(12, 12))
    assert rep.low and rep.count == 2


def test_low_complexity_five_pattern_window(five_pattern_window, square2):
    rep = is_low_complexity(five_pattern_window, square2,
                            five_pattern_window.domain())
    assert not rep.low and rep.count == 5 and rep.bound == 4


# --- find_periods ----------------------------------------------------------

def test_find_periods_checkerboard(checkerboard):
    scan = find_periods(checkerboard, rect_window(8, 8), 2)
    for t in (Vec2(1, 1), Vec2(-1, 1), Vec2(2, 0), Vec2(0, 2)):
        assert t in scan
    assert Vec2(1, 0) not in scan
    # tested against its block, a periodic coloring needs no window and
    # skips no candidate
    assert scan.skipped == () and find_periods(checkerboard, None, 2) == scan


def test_find_periods_constant(constant_zero):
    scan = find_periods(constant_zero, rect_window(8, 8), 2)
    assert len(scan) == 24  # all nonzero vectors in the 5x5 candidate square


def test_find_periods_stripes(vertical_stripes):
    scan = find_periods(vertical_stripes, rect_window(8, 8), 2)
    assert Vec2(0, 1) in scan and Vec2(2, 0) in scan
    assert Vec2(1, 0) not in scan


def test_find_periods_window_skips_degenerate():
    w = WindowConfig.from_rows([[0, 1], [1, 0]])
    scan = find_periods(w, w.domain(), 2)
    # (2, 2) has no comparable cell pair inside a 2x2 window
    assert Vec2(2, 2) in scan.skipped


def test_find_periods_without_a_window_fails_before_any_candidate():
    # at bound 300 the candidates alone are 360,000 vectors, about 33 MB
    w = WindowConfig.from_rows([[0, 1], [1, 0]])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="explicit window"):
            find_periods(w, None, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_find_periods_contains_declared():
    rng = random.Random(3)
    for _ in range(20):
        p1 = Vec2(rng.randint(1, 3), 0)
        p2 = Vec2(rng.randint(0, 2), rng.randint(1, 3))
        colors = {}
        c = PeriodicConfig.from_periods(
            p1, p2,
            lambda x, y: colors.setdefault(
                ((x - (y // p2.y) * p2.x) % p1.x, y % p2.y), rng.randint(0, 5)))
        bound = max(max(abs(p.x), abs(p.y)) for p in (p1, p2))
        scan = find_periods(c, None, bound)
        assert p1 in scan and p2 in scan


def test_find_periods_periodic_lists_the_block_periods():
    # every candidate in the bound's square, kept when the oracle's
    # cell-by-cell block comparison holds: same vectors, same order
    rng = random.Random(41)
    for _ in range(200):
        a, h = rng.randint(1, 5), rng.randint(1, 5)
        block = [[rng.randrange(2) for _ in range(a)] for _ in range(h)]
        c = PeriodicConfig(a, rng.randrange(a), h, block)
        bound = rng.randint(1, 6)
        expected = tuple(
            Vec2(x, y) for y in range(-bound, bound + 1)
            for x in range(-bound, bound + 1) if (x, y) != (0, 0)
            and oracles._is_block_period(c.span_x, c.shear, c.span_y,
                                         c.block, Vec2(x, y)))
        scan = find_periods(c, None, bound)
        assert scan.periods == expected and scan.skipped == ()
        assert all(type(t) is Vec2 for t in scan)


# --- canonical storage -----------------------------------------------------

def test_periodic_equal_storage(checkerboard):
    via_block = PeriodicConfig.from_block([[0, 1], [1, 0]])
    assert checkerboard == via_block
    assert checkerboard.p1 == Vec2(2, 0) and checkerboard.p2 == Vec2(1, 1)


def test_periodic_saturates_constant():
    c = PeriodicConfig.from_block([[5, 5], [5, 5]])
    assert (c.span_x, c.span_y) == (1, 1)
    assert c == PeriodicConfig.constant(5)


def test_periodic_storage_basis_invariant():
    # any basis of the same lattice yields the identical stored object
    rng = random.Random(19)
    for _ in range(40):
        a, c = rng.randint(1, 3), rng.randint(1, 3)
        b = rng.randint(0, a - 1)
        colors = {(i, j): rng.randint(0, 7) for j in range(c) for i in range(a)}

        def val(x, y, a=a, b=b, c=c, colors=colors):
            k, j = divmod(y, c)
            return colors[((x - k * b) % a, j)]

        p1, p2 = Vec2(a, 0), Vec2(b, c)
        reference = PeriodicConfig.from_periods(p1, p2, val)
        for q1, q2 in ((p1 + p2, p2), (p1, p1 + p2), (2 * p1 + p2, p1 + p2)):
            assert q1.cross(q2) != 0
            assert PeriodicConfig.from_periods(q1, q2, val) == reference


def test_lattice_hnf_matches_the_invariants_oracle():
    # 1-5 generators with entries up to +-60, among them zero vectors and
    # parallel duplicates; the reduction raises exactly when the oracle
    # finds no rank-2 lattice
    rng = random.Random(1811)
    deficient = 0
    for _ in range(3000):
        bound = rng.choice((1, 3, 60))
        gens = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if roll < 0.1:
                gens.append(Vec2(0, 0))
            elif roll < 0.3 and gens:
                g = rng.choice(gens)
                d = math.gcd(*g) or 1
                k = 60 // max(abs(g.x) // d, abs(g.y) // d, 1)
                gens.append(rng.randint(-k, k) * Vec2(g.x // d, g.y // d))
            else:
                gens.append(Vec2(rng.randint(-bound, bound),
                                 rng.randint(-bound, bound)))
        expected = oracles.naive_lattice_basis(gens)
        if expected is None:
            deficient += 1
            with pytest.raises(ValueError, match="linearly independent"):
                _lattice_hnf(gens)
        else:
            assert _lattice_hnf(gens) == expected, gens
    assert 500 < deficient < 2500


@pytest.mark.parametrize("p1, p2", [((2, 1), (-4, -2)), ((3, 0), (1, 0)),
                                    ((0, 0), (1, 1)), ((2, 3), (0, 0))],
                         ids=["parallel", "parallel-axis", "zero-first",
                              "zero-second"])
def test_from_periods_needs_independent_periods(p1, p2):
    with pytest.raises(ValueError, match="linearly independent"):
        PeriodicConfig.from_periods(Vec2(*p1), Vec2(*p2), lambda i, j: 0)


def test_saturate_matches_former_loop():
    # random blocks, and tiled blocks: the coloring of a coarser lattice
    # read on a sublattice, so the stored lattice has to grow
    rng = random.Random(311)
    grown = 0
    for _ in range(1500):
        a, c = rng.randint(1, 6), rng.randint(1, 6)
        colors = rng.randint(1, 3)
        if rng.random() < 0.5:
            b = rng.randrange(a)
            block = tuple(tuple(rng.randrange(colors) for _ in range(a))
                          for _ in range(c))
        else:
            a0 = rng.choice([d for d in range(1, a + 1) if a % d == 0])
            c0 = rng.choice([d for d in range(1, c + 1) if c % d == 0])
            b0 = rng.randrange(a0)
            tile = [[rng.randrange(colors) for _ in range(a0)]
                    for _ in range(c0)]
            b = rng.choice([x for x in range(a)
                            if (x - c // c0 * b0) % a0 == 0])
            block = tuple(tuple(oracles.block_color(a0, b0, c0, tile, (i, j))
                                for i in range(a)) for j in range(c))
        expected = oracles.naive_saturate(a, b, c, block)
        assert _saturate(a, b, c, block) == expected
        grown += expected[0] * expected[2] < a * c
    assert grown > 500


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: edge(DiscreteDomain.rect(2, 2), (0, 0)),
                 "edge direction must be nonzero", id="edge"),
    pytest.param(lambda: is_balanced(PeriodicConfig.constant(0),
                                     DiscreteDomain.rect(2, 2), (0, 0),
                                     DiscreteDomain.rect(4, 4)),
                 "balanced direction must be nonzero", id="is_balanced"),
    pytest.param(lambda: balanced_search(PeriodicConfig.constant(0), 2, 2,
                                         (0, 0), DiscreteDomain.rect(4, 4)),
                 "search direction must be nonzero", id="balanced_search"),
    pytest.param(lambda: box_cells((0, 0), 2),
                 "box direction must be nonzero", id="box_cells"),
    pytest.param(lambda: determinism_probe(
                     PatternSet.full_shift(Alphabet.of([0, 1]),
                                           DiscreteDomain.rect(2, 2)),
                     (0, 0), 2, 4),
                 "probe direction must be nonzero", id="determinism_probe"),
    pytest.param(lambda: difference_poly((0, 0)),
                 "difference polynomial needs a nonzero vector",
                 id="difference_poly"),
])
def test_zero_direction_raises_its_message(call, message):
    with pytest.raises(ZeroVector, match=f"^{re.escape(message)}$"):
        call()


def test_is_period_matches_direct_comparison():
    rng = random.Random(29)
    for _ in range(20):
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        block = [[rng.randint(0, 3) for _ in range(w)] for _ in range(h)]
        c = PeriodicConfig.from_block(block)
        scan = find_periods(c, None, 3)
        sample = [Vec2(x, y) for y in range(-6, 7) for x in range(-6, 7)]
        for t in (Vec2(x, y) for y in range(-3, 4) for x in range(-3, 4)):
            if t.is_zero():
                continue
            direct = all(c.color_at(n) == c.color_at(n - t) for n in sample)
            assert (t in scan) == direct


def test_alphabet_canonical():
    a = Alphabet.of([3, 1, 2])
    assert a.colors == (1, 2, 3)
    with pytest.raises(ValueError):
        Alphabet.of([1, 1])
    with pytest.raises(ValueError):
        Alphabet.of([])


def test_domain_canonical_order():
    d = DiscreteDomain([(1, 1), (0, 0), (1, 0), (0, 1)])
    assert d.cells == (Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(1, 1))


def test_rect_domain_matches_the_general_constructor():
    rng = random.Random(43)
    for _ in range(100):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        origin = Vec2(rng.randint(-5, 5), rng.randint(-5, 5))
        d = DiscreteDomain.rect(w, h, origin)
        cells = [(x, y) for y in range(origin.y, origin.y + h)
                 for x in range(origin.x, origin.x + w)]
        rng.shuffle(cells)
        general = DiscreteDomain(cells)
        for e in (d, pickle.loads(pickle.dumps(d))):
            assert e.cells == general.cells
            assert all(type(c) is Vec2 for c in e.cells)
            assert e == general and hash(e) == hash(general)
            assert e.bounding_rect() == general.bounding_rect()
            assert e.is_rectangle()
            for y in range(origin.y - 1, origin.y + h + 1):
                for x in range(origin.x - 1, origin.x + w + 1):
                    assert ((x, y) in e) == ((x, y) in general)
    for w, h in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            DiscreteDomain.rect(w, h)


def test_edge_and_minus_match_the_general_constructor():
    # edge and minus filter cells that are already canonical, so they
    # skip the sort; the result must equal a domain built from scratch
    rng = random.Random(44)
    for _ in range(300):
        cells = {(rng.randint(-4, 4), rng.randint(-4, 4))
                 for _ in range(rng.randint(1, 12))}
        d = DiscreteDomain(cells)
        u = Vec2(rng.randint(-2, 2), rng.randint(-2, 2))
        if u.is_zero():
            u = Vec2(0, 1)
        top = max(x * u.x + y * u.y for x, y in cells)
        other = DiscreteDomain(c for c in cells if rng.random() < 0.5)
        for got, want in (
                (edge(d, u), [c for c in cells if c[0] * u.x + c[1] * u.y == top]),
                (d.minus(other), list(cells - set(other.cells))),
                (d.minus(d), [])):
            rng.shuffle(want)
            general = DiscreteDomain(want)
            for e in (got, pickle.loads(pickle.dumps(got))):
                assert e.cells == general.cells
                assert all(type(c) is Vec2 for c in e.cells)
                assert e == general and hash(e) == hash(general)
                assert e._rect == general._rect == (
                    (min(x for x, _ in want), min(y for _, y in want),
                     max(x for x, _ in want), max(y for _, y in want))
                    if want else None)
                assert all(((x, y) in e) == ((x, y) in general)
                           for x in range(-5, 6) for y in range(-5, 6))


def test_five_pattern_window_has_five_blocks(five_pattern_window, square2):
    # brute recount with a nested loop, independent of patterns_of
    seen = set()
    rows = FIVE_PATTERN_ROWS
    for y in range(3):
        for x in range(3):
            seen.add((rows[y][x], rows[y][x + 1],
                      rows[y + 1][x], rows[y + 1][x + 1]))
    assert len(seen) == 5
    assert len(patterns_of(five_pattern_window, square2,
                           five_pattern_window.domain())) == 5
