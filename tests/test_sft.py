import itertools
import json
import random
from pathlib import Path

import pytest

from tilecraft import sft
from tilecraft.algebra import difference_poly
from tilecraft.balanced import is_convex
from tilecraft.grid import (Alphabet, DiscreteDomain, PeriodicConfig, Vec2,
                            ZeroVector, patterns_of)
from tilecraft.sft import (BUDGET_EXCEEDED, Empty, NonEmptyPeriodic,
                           PatternSet, TorusWitness, Undecided, box_cells,
                           classify_directions, decide, decide_with_usage,
                           determinism_probe, torus_search, valid_square,
                           validate_witness)

import oracles
from conftest import make_pattern_set


# --- valid_square ------------------------------------------------------------

def test_square_all_zero(all_zero_set):
    grid = valid_square(all_zero_set, 4)
    assert grid == tuple((0,) * 4 for _ in range(4))


def test_square_left0_right1_unsatisfiable(left0_right1_set):
    assert valid_square(left0_right1_set, 3) is None
    # exhaustive cross-check over all 2^9 colorings
    allowed = {(0, 1, 0, 1)}
    for bits in range(2 ** 9):
        rows = [[(bits >> (3 * j + i)) & 1 for i in range(3)] for j in range(3)]
        ok = True
        for ty in range(2):
            for tx in range(2):
                block = (rows[ty][tx], rows[ty][tx + 1],
                         rows[ty + 1][tx], rows[ty + 1][tx + 1])
                if block not in allowed:
                    ok = False
        assert not ok


def test_square_checkerboard_first_witness(checkerboard_set):
    grid = valid_square(checkerboard_set, 4)
    assert grid[0][0] == 0  # ascending color order puts 0 first
    assert grid == tuple(tuple((x + y) % 2 for x in range(4)) for y in range(4))


def test_square_budget_exceeded(checkerboard_set):
    assert valid_square(checkerboard_set, 6, budget=3) is BUDGET_EXCEEDED


def test_square_side_too_small(checkerboard_set):
    with pytest.raises(ValueError):
        valid_square(checkerboard_set, 1)


def test_square_emptiness_monotone(left0_right1_set):
    # once no n x n coloring exists, larger squares stay unsatisfiable
    for n in (3, 4, 5):
        assert valid_square(left0_right1_set, n) is None


# --- torus_search ------------------------------------------------------------

def test_torus_all_zero(all_zero_set):
    w = torus_search(all_zero_set, 1, 1)
    assert w == TorusWitness(1, 1, ((0,),))


def test_torus_checkerboard(checkerboard_set):
    assert torus_search(checkerboard_set, 1, 1) is None
    w = torus_search(checkerboard_set, 2, 2)
    assert w.values == ((0, 1), (1, 0))


def test_torus_left0_right1_none(left0_right1_set):
    for p in range(1, 7):
        for q in range(1, 7):
            assert torus_search(left0_right1_set, p, q) is None


# --- decide ------------------------------------------------------------------

def test_decide_all_zero(all_zero_set):
    out = decide(all_zero_set)
    assert isinstance(out, NonEmptyPeriodic)
    assert (out.witness.p, out.witness.q) == (1, 1)


def test_decide_left0_right1(left0_right1_set):
    assert decide(left0_right1_set) == Empty(3)


def test_decide_full_shift(full_shift_set):
    out = decide(full_shift_set)
    assert isinstance(out, NonEmptyPeriodic)
    assert out.witness == TorusWitness(1, 1, ((0,),))
    assert not full_shift_set.low_complexity


def test_decide_undecided_reports_budget(checkerboard_set):
    out = decide(checkerboard_set, budget=2)
    assert isinstance(out, Undecided)
    assert out.nodes_used == 2
    assert out.low_complexity


@pytest.mark.parametrize("budget, nodes, max_n, max_pq", [
    (12, 12, 0, 0),   # spent inside the first square search
    (13, 13, 3, 0),   # the 3x3 square takes 13; none left for the 1x1 torus
    (14, 14, 3, 0),   # spent inside the 1x1 torus search
    (15, 15, 3, 1),   # spent exactly at the end of stage 1
    (48, 48, 4, 1),   # spent inside a stage-2 torus search
])
def test_decide_undecided_pins_how_far_the_stages_got(checkerboard_set, budget,
                                                      nodes, max_n, max_pq):
    assert decide_with_usage(checkerboard_set, budget) == (
        Undecided(nodes, max_n, max_pq, True), nodes)


def test_decide_builds_nothing_once_the_budget_is_spent(monkeypatch,
                                                        checkerboard_set):
    # the 3x3 square spends all 13 nodes; the 1x1 torus after it gets no
    # geometry and no prefix sets
    cache = sft._GeometryCache(sft._GEOMETRIES.cap)
    monkeypatch.setattr(sft, "_GEOMETRIES", cache)
    assert decide_with_usage(checkerboard_set, 13) == (
        Undecided(13, 3, 0, True), 13)
    assert [key[1:4] for key in cache.entries] == [(3, 3, False)]
    assert list(sft._search(sft._Compiled(checkerboard_set), 1, 1, True, 0)) \
        == [(BUDGET_EXCEEDED, 0)]
    assert [key[1:4] for key in cache.entries] == [(3, 3, False)]


def test_decide_finds_the_witness_at_the_first_sufficient_budget(
        checkerboard_set):
    assert decide_with_usage(checkerboard_set, 49) == (
        NonEmptyPeriodic(TorusWitness(2, 2, ((0, 1), (1, 0)))), 49)


def test_decide_deterministic(checkerboard_set, left0_right1_set):
    for ps in (checkerboard_set, left0_right1_set):
        assert decide(ps, 50_000) == decide(ps, 50_000)


# --- validate_witness ---------------------------------------------------------

def test_validate_checkerboard(checkerboard_set):
    w = TorusWitness(2, 2, ((0, 1), (1, 0)))
    assert validate_witness(checkerboard_set, w)


def test_validate_rejects_wrong(checkerboard_set):
    assert not validate_witness(checkerboard_set, TorusWitness(1, 1, ((0,),)))


def test_validate_full_shift(full_shift_set):
    assert validate_witness(full_shift_set, TorusWitness(1, 1, ((1,),)))


def test_decide_rejects_a_witness_that_fails_validation(monkeypatch,
                                                         checkerboard_set):
    # every search "finds" the all-zero grid, which the checkerboard set
    # forbids, so the first torus witness must fail its re-check
    def all_zero(comp, width, height, wrap, budget):
        yield [0] * (width * height), 1
    monkeypatch.setattr(sft, "_search", all_zero)
    with pytest.raises(RuntimeError, match="1x1 torus witness"):
        decide(checkerboard_set, 1_000)


def test_decide_renders_only_the_witness(monkeypatch, checkerboard_set):
    empty = make_pattern_set([(0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0)])
    assert valid_square(empty, 3) is not None  # stage 1's square is solved
    three = PatternSet.from_value_tuples(
        Alphabet.of([3, 5, 7]), DiscreteDomain.rect(2, 1),
        [(5, 3), (5, 7), (3, 5), (7, 5)])
    calls = []
    rows = sft._Compiled.rows
    monkeypatch.setattr(sft._Compiled, "rows",
                        lambda *args: calls.append(args[2:]) or rows(*args))
    assert decide(empty) == Empty(4)
    assert calls == []
    assert decide(checkerboard_set) == NonEmptyPeriodic(
        TorusWitness(2, 2, ((0, 1), (1, 0))))
    assert calls == [(2, 2)]
    # a probe reads its box and center from the first choices
    forced = determinism_probe(checkerboard_set, Vec2(1, 0), 2, 3)
    assert (forced.verdict, forced.box_colorings, forced.nodes_used) == (
        "forced", 2, 149)
    probe = determinism_probe(three, Vec2(1, 0), 2, 3)
    assert (probe.verdict, probe.box_colorings, probe.nodes_used) == (
        "non_forced", 4, 356)
    assert probe.witness.box_pattern.values == (3, 5, 3)
    assert probe.witness.centers == (3, 7)
    assert calls == [(2, 2)]


@pytest.mark.parametrize("colors, bits", [
    ((0, 1), 1), ((3, 5, 7), 2), ((-2, 0, 1, 4, 9), 3)])
def test_pattern_codes_match_a_per_cell_packing(colors, bits):
    rng = random.Random(len(colors))
    for shape in (DiscreteDomain.rect(3, 2),
                  DiscreteDomain([(0, 0), (2, 0), (1, 1), (0, 2)])):
        full = list(itertools.product(colors, repeat=len(shape)))
        ps = PatternSet.from_value_tuples(Alphabet.of(colors), shape,
                                          rng.sample(full, 12))
        comp = sft._Compiled(ps)
        assert comp.bits == bits
        assert comp.prefix.codes == [
            sum(colors.index(v) << k * bits for k, v in enumerate(t))
            for t in ps.value_tuples]


def test_witness_unfolding_patterns_allowed(checkerboard_set):
    w = torus_search(checkerboard_set, 2, 2)
    c = w.unfold()
    window = DiscreteDomain.rect(9, 9)
    pats = patterns_of(c, checkerboard_set.shape, window)
    assert set(pats) <= checkerboard_set.allowed


# --- box_cells ----------------------------------------------------------------

def test_box_row():
    cells = box_cells(Vec2(0, 1), 2).cells
    assert cells == (Vec2(-1, -1), Vec2(0, -1), Vec2(1, -1))


def test_box_empty():
    assert len(box_cells(Vec2(1, 0), 1)) == 0
    with pytest.raises(ZeroVector):
        box_cells(Vec2(0, 0), 2)


def test_box_skew_direct_enumeration():
    u = Vec2(-1, 2)
    k = 10
    box = box_cells(u, k)
    up = u.perp()
    brute = [Vec2(x, y)
             for y in range(-40, 41) for x in range(-40, 41)
             if -k < Vec2(x, y).dot(u) < 0 and -k < Vec2(x, y).dot(up) < k]
    assert sorted(box.cells, key=lambda v: (v.y, v.x)) == brute
    assert len(box) == 35


# --- determinism probes ---------------------------------------------------------

def test_probe_checkerboard_forced(checkerboard_set):
    rep = determinism_probe(checkerboard_set, Vec2(1, 0), 2, 4)
    assert rep.verdict == "forced"
    assert rep.box_colorings == 2  # one per phase


def test_probe_full_shift_non_forced(full_shift_set):
    rep = determinism_probe(full_shift_set, Vec2(1, 0), 3, 4)
    assert rep.verdict == "non_forced"
    assert rep.witness.centers == (0, 1)


def test_probe_all_zero_forced(all_zero_set):
    for u in (Vec2(1, 1), Vec2(0, 1), Vec2(2, -1)):
        rep = determinism_probe(all_zero_set, u, 1, 3)
        assert rep.verdict == "forced"


def test_probe_budget_inconclusive(full_shift_set):
    rep = determinism_probe(full_shift_set, Vec2(1, 0), 3, 4, budget=5)
    assert rep.verdict == "inconclusive"
    assert "budget" in rep.note


def test_probe_witness_locally_consistent(full_shift_set):
    # both center extensions of a non-forced witness must extend to a
    # locally valid square of the probe's radius
    radius = 4
    rep = determinism_probe(full_shift_set, Vec2(1, 0), 3, radius)
    assert rep.verdict == "non_forced"
    tuples = [p.values for p in full_shift_set.allowed]
    shape = [(c.x, c.y) for c in full_shift_set.shape.cells]
    offset = Vec2(radius, radius)
    for center in rep.witness.centers:
        fixed = {cell + offset: v for cell, v in rep.witness.box_pattern.items()}
        fixed[offset] = center
        assert oracles.naive_square_extends(
            tuples, shape, full_shift_set.alphabet.colors, 2 * radius + 1,
            fixed)


@pytest.mark.parametrize("colors, shapes, max_radius", [
    ((0, 1), [(2, 2)], 3),
    ((0, 1, 2), [(2, 2), (3, 1)], 2),
])
def test_probe_matches_naive_oracle(colors, shapes, max_radius):
    # verdict, witness and box_colorings against the brute-force probe on
    # seeded small sets; with three colors the probe search backjumps
    # over head cells often, and dense 2x2 and 3x1 sets exercise that
    rng = random.Random(5)
    directions = [Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(1, 1),
                  Vec2(-1, 1), Vec2(2, -1)]
    seen = {"forced": 0, "non_forced": 0}
    for _ in range(40):
        w, h = rng.choice(shapes)
        shape = DiscreteDomain.rect(w, h)
        full = list(itertools.product(colors, repeat=w * h))
        tuples = rng.sample(full, rng.randint(3, len(full) * 5 // 8))
        ps = PatternSet.from_value_tuples(Alphabet.of(colors), shape, tuples)
        u = rng.choice(directions)
        k = rng.randint(1, 2)
        radius = rng.randint(k, max_radius)
        rep = determinism_probe(ps, u, k, radius, budget=400_000)
        verdict, witness, count = oracles.naive_probe(
            tuples, [(c.x, c.y) for c in shape.cells], colors, u, k, radius)
        assert rep.verdict == verdict
        assert rep.box_colorings == count
        if witness is None:
            assert rep.witness is None
        else:
            assert (rep.witness.box_pattern.values,
                    rep.witness.centers) == witness
        seen[verdict] += 1
    assert min(seen.values()) >= 5


def test_probe_radius_check(checkerboard_set):
    with pytest.raises(ValueError):
        determinism_probe(checkerboard_set, Vec2(1, 0), 4, 2)


def test_probe_slow_path_row_constant_system():
    # rows are constant but independent, so the probe square has 3^9
    # valid colorings and the probe must project them onto the box:
    # horizontally the center is forced by its row, vertically nothing
    # forces it
    from itertools import product
    shape = DiscreteDomain.rect(2, 2)
    alphabet = Alphabet.of([0, 1, 2])
    tuples = [(a, a, b, b) for a, b in product((0, 1, 2), repeat=2)]
    ps = PatternSet.from_value_tuples(alphabet, shape, tuples)
    horizontal = determinism_probe(ps, Vec2(1, 0), 2, 4, budget=500_000)
    assert horizontal.verdict == "forced"
    assert horizontal.box_colorings == 27  # free rows through the box column
    vertical = determinism_probe(ps, Vec2(0, 1), 2, 4, budget=500_000)
    assert vertical.verdict == "non_forced"


def test_probe_independent_rows_small_budget():
    # the rows of a 3x1 set are independent; a box coloring whose row has
    # no completion must be refuted without trying every coloring of the
    # other rows, so both sides decide within 2,000 nodes
    ps = PatternSet.from_value_tuples(
        Alphabet.of([0, 1, 2]), DiscreteDomain.rect(3, 1),
        [(0, 0, 2), (0, 2, 0), (1, 0, 0), (1, 0, 1), (1, 2, 0), (2, 1, 2),
         (2, 2, 2)])
    for u in (Vec2(1, 0), Vec2(-1, 0)):
        rep = determinism_probe(ps, u, 3, 3, budget=2_000)
        assert (rep.verdict, rep.box_colorings) == ("forced", 1)


def test_classify(checkerboard_set, full_shift_set, all_zero_set):
    (cl,) = classify_directions(checkerboard_set, [Vec2(1, 0)], 2, 4)
    assert cl.label == "two_sided"
    (cl,) = classify_directions(full_shift_set, [Vec2(1, 0)], 2, 4)
    assert cl.label == "non_deterministic"
    (cl,) = classify_directions(all_zero_set, [Vec2(1, 1)], 2, 4)
    assert cl.label == "two_sided"


def test_probe_annihilator_direction_link(checkerboard):
    # unfolded 2x2 witness: directions not perpendicular to either period
    # must not be non-forced when probed against its own pattern oracle
    c = PeriodicConfig.from_block([[0, 1], [1, 0]])
    shape = DiscreteDomain.rect(3, 3)
    pats = patterns_of(c, shape, DiscreteDomain.rect(12, 12))
    ps = PatternSet(shape, Alphabet.of([0, 1]), frozenset(pats))
    product = difference_poly(Vec2(2, 0)) * difference_poly(Vec2(0, 2))
    for u in (Vec2(1, 1), Vec2(1, -1), Vec2(2, 1), Vec2(1, 2)):
        assert u.dot(Vec2(2, 0)) != 0 and u.dot(Vec2(0, 2)) != 0
        rep = determinism_probe(ps, u, 4, 6)
        assert rep.verdict == "forced", (u, rep)


# --- non-rectangular shapes --------------------------------------------------------

def test_decide_triangle_shape(checkerboard):
    # allowed patterns on a convex triangle, read off the checkerboard
    tri = DiscreteDomain([(0, 0), (1, 0), (0, 1)])
    pats = patterns_of(checkerboard, tri, DiscreteDomain.rect(8, 8))
    ps = PatternSet(tri, Alphabet.of([0, 1]), frozenset(pats))
    assert ps.low_complexity  # 2 patterns on 3 cells
    out = decide(ps, 100_000)
    assert isinstance(out, NonEmptyPeriodic)
    assert validate_witness(ps, out.witness)
    # unfolding only shows triangle patterns from the allowed set
    c = out.witness.unfold()
    assert set(patterns_of(c, tri, DiscreteDomain.rect(9, 9))) <= ps.allowed


def test_decide_domino_shape():
    domino = DiscreteDomain([(0, 0), (1, 0)])
    ps = PatternSet.from_value_tuples(Alphabet.of([0, 1]), domino,
                                      [(0, 1), (1, 0)])
    out = decide(ps, 100_000)
    assert isinstance(out, NonEmptyPeriodic)
    # 1x1 and 1x2 tori force a constant row, so the 2x1 torus is first
    assert out.witness == TorusWitness(2, 1, ((0, 1),))


def test_probe_triangle_shape(checkerboard):
    tri = DiscreteDomain([(0, 0), (1, 0), (0, 1)])
    pats = patterns_of(checkerboard, tri, DiscreteDomain.rect(8, 8))
    ps = PatternSet(tri, Alphabet.of([0, 1]), frozenset(pats))
    rep = determinism_probe(ps, Vec2(1, 1), 2, 4)
    assert rep.verdict == "forced"


# --- engine vs literal enumeration ------------------------------------------------

def test_square_existence_matches_exhaustive_oracle():
    import random
    import oracles
    from itertools import product
    rng = random.Random(55)
    all_tuples = list(product((0, 1), repeat=4))
    for _ in range(60):
        tuples = rng.sample(all_tuples, rng.randint(0, 5))
        ps = make_pattern_set(tuples)
        for n in (3, 4):
            engine = valid_square(ps, n, budget=200_000)
            assert engine is not BUDGET_EXCEEDED
            assert (engine is not None) == oracles.exhaustive_square_exists(
                tuples, n)


def test_torus_existence_matches_naive_oracle():
    import random
    import oracles
    from itertools import product
    rng = random.Random(56)
    all_tuples = list(product((0, 1), repeat=4))
    for _ in range(25):
        tuples = rng.sample(all_tuples, rng.randint(0, 6))
        ps = make_pattern_set(tuples)
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                engine = torus_search(ps, p, q, budget=200_000)
                assert engine is not BUDGET_EXCEEDED
                assert (engine is not None) == oracles.naive_torus_exists(
                    tuples, p, q)


def _convex_non_rectangles():
    """Convex, non-rectangular shapes of 2-5 cells in the 3x3 box, at the origin."""
    box = [(x, y) for y in range(3) for x in range(3)]
    shapes = []
    for bits in range(1, 1 << 9):
        cells = [c for i, c in enumerate(box) if bits >> i & 1]
        shape = DiscreteDomain(cells)
        if (2 <= len(cells) <= 5 and min(x for x, _ in cells) == 0
                and min(y for _, y in cells) == 0 and is_convex(shape)
                and not shape.is_rectangle()):
            shapes.append(shape)
    return shapes


def test_convex_shapes_match_naive_oracles(monkeypatch):
    # square and torus existence beyond the binary 2x2 case; each case is
    # searched with an empty geometry cache, then twice with one shared by
    # all cases, where 2- and 3-color sets on the same shapes meet
    rng = random.Random(58)
    shapes = rng.sample(_convex_non_rectangles(), 6)
    tori = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
    shared = sft._GeometryCache(sft._GEOMETRIES.cap)
    seen = {True: 0, False: 0}
    for _ in range(24):
        colors = rng.choice([(0, 1), (0, 1, 2)])
        shape = rng.choice(shapes)
        cells = [(c.x, c.y) for c in shape.cells]
        full = list(itertools.product(colors, repeat=len(cells)))
        tuples = rng.sample(full, rng.randint(1, len(cells) + 2))
        ps = PatternSet.from_value_tuples(Alphabet.of(colors), shape, tuples)
        n = shape.max_extent() + rng.randint(0, 1)
        expected = [oracles.naive_square_extends(tuples, cells, colors, n, {})]
        expected += [oracles.naive_torus_exists(tuples, p, q, cells, colors)
                     for p, q in tori]
        results = []
        for cache in (sft._GeometryCache(shared.cap), shared, shared):
            monkeypatch.setattr(sft, "_GEOMETRIES", cache)
            found = [valid_square(ps, n, budget=200_000)]
            found += [torus_search(ps, p, q, budget=200_000) for p, q in tori]
            assert BUDGET_EXCEEDED not in found
            assert [f is not None for f in found] == expected
            if found[0] is not None:
                assert oracles.naive_square_extends(tuples, cells, colors, n, {
                    (x, y): v for y, row in enumerate(found[0])
                    for x, v in enumerate(row)})
            assert all(validate_witness(ps, w) for w in found[1:] if w)
            results.append(found)
        assert results[0] == results[1] == results[2]
        for e in expected:
            seen[e] += 1
    assert min(seen.values()) >= 20


def test_geometry_cache_stays_under_its_cap(monkeypatch, checkerboard_set):
    cache = sft._GeometryCache(sft._GEOMETRIES.cap)
    monkeypatch.setattr(sft, "_GEOMETRIES", cache)
    built = []
    build = sft._geometry
    monkeypatch.setattr(sft, "_geometry",
                        lambda *key: built.append(key) or build(*key))
    three = PatternSet.from_value_tuples(
        Alphabet.of([0, 1, 2]), DiscreteDomain.rect(3, 1),
        [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    for ps in (checkerboard_set, three):
        decide(ps, 20_000)
        for u in (Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1),
                  Vec2(1, 1), Vec2(-1, 1)):
            determinism_probe(ps, u, 2, 4)
    assert sum(w * h * len(cells) for cells, w, h, *_ in set(built)) > cache.cap
    assert cache.weight == sum(w for w, _ in cache.entries.values())
    assert 0 < cache.weight <= cache.cap
    # a geometry heavier than the cap is built, used and dropped
    far = PatternSet.from_value_tuples(
        Alphabet.of([0, 1]), DiscreteDomain([(0, 0), (199, 0)]), [(0, 0)])
    kept = list(cache.entries)
    assert valid_square(far, 200, budget=1) is BUDGET_EXCEEDED
    assert built[-1][1:3] == (200, 200)
    assert list(cache.entries) == kept


def test_geometry_without_head_cells_carries_no_blame():
    # only a search with head cells reads the blame masks
    cells = DiscreteDomain([(0, 0), (1, 0), (0, 1), (2, 1)]).cells
    for wrap in (False, True):
        _, checks, _ = sft._geometry(cells, 5, 4, wrap, (), 1)
        assert sum(map(len, checks)) > 0
        assert all(check[4] == 0 for at in checks for check in at)
    _, checks, _ = sft._geometry(cells, 5, 5, False, ((2, 2), (3, 2)), 1)
    assert any(check[4] for at in checks for check in at)


def _check_geometry(cells, width, height, wrap, head, bits):
    """Compare _geometry with a direct reading of the grid and the shape."""
    masks, checks, n = sft._geometry(cells, width, height, wrap, head, bits)
    # the step order: row-major, or the head cells first and then the rest
    # by Chebyshev distance from the last head cell, ties row-major
    grid = [(x, y) for y in range(height) for x in range(width)]
    if head:
        hx, hy = head[-1]
        rest = [c for c in grid if c not in head]
        rest.sort(key=lambda c: (max(abs(c[0] - hx), abs(c[1] - hy)),
                                 c[1], c[0]))
        grid = [*head, *rest]
    steps = [y * width + x for x, y in grid]
    xs, ys = [c[0] for c in cells], [c[1] for c in cells]
    if wrap:
        origins = [(x, y) for y in range(height) for x in range(width)]
    else:
        origins = [(x, y) for y in range(-min(ys), height - max(ys))
                   for x in range(-min(xs), width - max(xs))]
    translates = [[((cx + x) % width, (cy + y) % height) for cx, cy in cells]
                  for x, y in origins]
    assert n == len(translates) and len(checks) == len(steps) == width * height
    assert sorted(steps) == list(range(width * height))
    if head:
        assert [(s % width, s // width) for s in steps[:len(head)]] == \
            list(head)
    step_of = {(s % width, s // width): i for i, s in enumerate(steps)}
    color = (1 << bits) - 1
    kept = [0] * n
    for pos, at in enumerate(checks):
        here = (steps[pos] % width, steps[pos] // width)
        # one check per (translate, shape cell) that lands on this step's cell
        assert sorted((t, shift) for t, _, shift, _, _ in at) == sorted(
            (t, k * bits) for t, tr in enumerate(translates)
            for k, cell in enumerate(tr) if cell == here)
        if not wrap:
            assert [c[0] for c in at] == sorted(c[0] for c in at)
        for t, low, shift, i, earlier in at:
            # low holds the translate's cells at earlier steps, plus the
            # ones already checked at this step
            before = sum(color << k * bits
                         for k, cell in enumerate(translates[t])
                         if step_of[cell] < pos)
            assert low & before == before and low == kept[t]
            assert not low & color << shift
            assert masks[i] == low | color << shift
            kept[t] = masks[i]
            assert earlier == (sum({1 << step_of[cell]
                                    for k, cell in enumerate(translates[t])
                                    if step_of[cell] < pos}) if head else 0)
    assert kept == [color * sum(1 << k * bits for k in range(len(cells)))] * n
    assert len(set(masks)) == len(masks)
    return masks


def _restrictions(ps, mask, bits):
    """The value tuples of ps restricted to the shape cells of mask."""
    color = (1 << bits) - 1
    ks = [k for k in range(len(ps.shape)) if mask >> k * bits & color]
    return {tuple(t[k] for k in ks) for t in ps.value_tuples}, ks


def test_geometry_and_prefix_sets_match_a_direct_reading():
    rng = random.Random(15)
    shapes = [DiscreteDomain.rect(2, 2), DiscreteDomain.rect(3, 1),
              *rng.sample(_convex_non_rectangles(), 5)]
    runs = 0
    for shape in shapes:
        cells = tuple((c.x, c.y) for c in shape.cells)
        for colors in ((0, 1), (3, 5, 7)):
            ps = PatternSet.from_value_tuples(
                Alphabet.of(colors), shape,
                rng.sample(list(itertools.product(colors, repeat=len(cells))),
                           len(cells) + 1))
            comp = sft._Compiled(ps)
            grids = [(n, n, False) for n in (shape.max_extent(),
                                            shape.max_extent() + 2)]
            grids += [(p, q, True) for p in (1, 2, 3) for q in (1, 2, 3)]
            # the 1x1 torus places each translate's cells in square order
            square = set(_check_geometry(comp.cells, *grids[0], (),
                                         comp.bits))
            assert set(_check_geometry(comp.cells, 1, 1, True, (),
                                       comp.bits)) == square
            for width, height, wrap in grids:
                for mask in _check_geometry(comp.cells, width, height, wrap,
                                            (), comp.bits):
                    expected, ks = _restrictions(ps, mask, comp.bits)
                    found = {tuple(comp.colors[code >> k * comp.bits
                                          & (1 << comp.bits) - 1]
                                   for k in ks) for code in comp.prefix[mask]}
                    assert found == expected
                    assert all(code & mask == code
                               for code in comp.prefix[mask])
                    runs += 1
    assert runs > 500
    # a head geometry: the probe's box cells, then the center
    head = tuple((c.x + 4, c.y + 4) for c in box_cells(Vec2(1, 2), 2).cells)
    for cells in (DiscreteDomain.rect(2, 2).cells,
                  DiscreteDomain([(0, 0), (1, 0), (1, 1)]).cells):
        for bits in (1, 2):
            _check_geometry(cells, 9, 9, False, (*head, (4, 4)), bits)


def test_geometry_cache_evicts_least_recently_used(monkeypatch):
    cache = sft._GeometryCache(10)
    monkeypatch.setattr(sft, "_GEOMETRIES", cache)
    ps = PatternSet.from_value_tuples(Alphabet.of([0, 1]),
                                      DiscreteDomain.rect(1, 1), [(0,)])
    sizes = lambda: [key[1:3] for key in cache.entries]  # noqa: E731
    torus_search(ps, 2, 2)  # weight 4
    torus_search(ps, 1, 3)  # weight 3
    torus_search(ps, 2, 2)  # a hit makes 2x2 the most recently used
    assert sizes() == [(1, 3), (2, 2)]
    torus_search(ps, 1, 4)  # weight 4: 11 > 10 evicts 1x3
    assert sizes() == [(2, 2), (1, 4)]
    assert cache.weight == 8


# --- dovetail cross-checks -------------------------------------------------------

def test_empty_and_torus_never_both_fire():
    # a sample of low-complexity sets: emptiness certificates exclude tori
    sample = [((0, 1, 0, 1),), ((0, 1, 1, 1), (1, 0, 0, 0)),
              ((0, 0, 0, 1), (1, 1, 1, 0), (0, 1, 1, 0))]
    for tuples in sample:
        ps = make_pattern_set(tuples)
        out = decide(ps, 100_000)
        if isinstance(out, Empty):
            for p in range(1, 7):
                for q in range(1, 7):
                    assert torus_search(ps, p, q, 100_000) is None


# --- node-count pins ---------------------------------------------------------
# Node counts are part of the determinism contract.  The benchmark's
# recorded pools exercise what the 2,517-set scan does not: the
# backjumping probe search, 3-color and 3x3 shapes, and tori narrower
# than the shape.

REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench"
             / "reference.json")

# box_colorings of each recorded probe, in pool order
ORBIT_BOX_COLORINGS = [1] * 8 + [3] * 8 + [4] * 16 + [6] * 8 + [9] * 8
WALK_BOX_COLORINGS = [1, 2, 3, 1, 1, 1, 1, 0, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1,
                      1, 1, 1, 1, 1, 3]


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _pool_set(colors, w, h, indices):
    """The pattern set of the given indices in itertools.product order."""
    tuples = []
    for i in indices:
        digits = []
        for _ in range(w * h):
            i, d = divmod(i, len(colors))
            digits.append(colors[d])
        tuples.append(tuple(reversed(digits)))
    return PatternSet.from_value_tuples(Alphabet.of(colors),
                                        DiscreteDomain.rect(w, h), tuples)


def _outcome_code(outcome):
    if isinstance(outcome, Empty):
        return f"E{outcome.n}"
    if isinstance(outcome, NonEmptyPeriodic):
        return f"P{outcome.witness.p}x{outcome.witness.q}"
    return "U"


def test_probe_pools_keep_verdicts_and_node_counts(reference):
    r = reference["probe"]
    for cls, box_colorings, total in (("orbit", ORBIT_BOX_COLORINGS, 120_751),
                                      ("walk", WALK_BOX_COLORINGS, 9_437)):
        pool = r[cls]
        nodes = 0
        seen = []
        for colors, w, h, idx, u, verdict, _ in pool["items"]:
            rep = determinism_probe(_pool_set(colors, w, h, idx), Vec2(*u),
                                    pool["k"], pool["radius"], r["budget"])
            assert rep.verdict == verdict, (cls, idx, u)
            seen.append(rep.box_colorings)
            nodes += rep.nodes_used
        assert seen == box_colorings, cls
        assert nodes == total, cls


def test_census_pools_keep_outcomes_and_node_counts(reference):
    r = reference["census"]
    totals = {}
    for pool in r["pools"]:
        nodes = 0
        for idx, code, recorded in pool["items"]:
            ps = _pool_set(pool["colors"], pool["w"], pool["h"], idx)
            outcome, used = sft.decide_with_usage(ps, r["budget"])
            assert (_outcome_code(outcome), used) == (code, recorded), idx
            nodes += used
        totals[pool["name"]] = nodes
    assert totals == {"c3_2x2": 61_268, "bin3x2": 64_700, "bin3x3": 45_288}


# --- budget boundaries ---------------------------------------------------------
# A node budget is exact: one node less than a recorded run spent stops
# that run on its last node, and the recorded budget reproduces it, also
# when that last node exhausts a square (Empty, not Undecided).

def test_census_budget_boundary(reference):
    r = reference["census"]
    empty_on_last_node = 0
    for pool in r["pools"]:
        for idx, code, recorded in pool["items"][::10]:
            ps = _pool_set(pool["colors"], pool["w"], pool["h"], idx)
            short, used = sft.decide_with_usage(ps, recorded - 1)
            assert isinstance(short, Undecided), idx
            assert used == short.nodes_used == recorded - 1, idx
            outcome, used = sft.decide_with_usage(ps, recorded)
            assert (_outcome_code(outcome), used) == (code, recorded), idx
            if isinstance(outcome, NonEmptyPeriodic):
                w = outcome.witness
                assert w == TorusWitness(w.p, w.q, w.values)
                assert validate_witness(ps, w)
            empty_on_last_node += code.startswith("E")
    assert empty_on_last_node > 0


def test_stage_tasks_match_the_sorted_definition():
    for s in range(1, 13):
        n = s + 2
        assert sft._stage_tasks(n, s) == [
            (n, n, False),
            *sorted((p, q, True) for p in range(1, s + 1)
                    for q in range(1, s + 1) if max(p, q) == s)]


# nodes_used of each walk probe, and of every 8th orbit probe, in pool
# order at the recorded budget; the walk counts sum to the pinned total
WALK_NODES = [145, 399, 360, 92, 346, 103, 280, 24, 164, 141, 452, 301, 1350,
              1136, 496, 258, 591, 335, 334, 633, 138, 186, 84, 1089]
ORBIT_NODES_EVERY_8TH = [289, 1160, 2016, 2036, 4042, 5477]


def test_probe_budget_boundary(reference):
    r = reference["probe"]
    assert sum(WALK_NODES) == 9_437
    cases = [("walk", item, n)
             for item, n in zip(r["walk"]["items"], WALK_NODES, strict=True)]
    cases += [("orbit", item, n) for item, n in zip(
        r["orbit"]["items"][::8], ORBIT_NODES_EVERY_8TH, strict=True)]
    for cls, (colors, w, h, idx, u, verdict, _), pinned in cases:
        ps = _pool_set(colors, w, h, idx)
        k, radius = r[cls]["k"], r[cls]["radius"]
        short = determinism_probe(ps, Vec2(*u), k, radius, pinned - 1)
        assert (short.verdict, short.nodes_used) == (
            "inconclusive", pinned - 1), (cls, idx, u)
        rep = determinism_probe(ps, Vec2(*u), k, radius, pinned)
        assert (rep.verdict, rep.nodes_used) == (verdict, pinned), (cls, idx, u)
    assert {c[1][5] for c in cases} == {"forced", "non_forced"}
