import itertools
import random

import pytest

from tilecraft.algebra import difference_poly, poly_mul
from tilecraft.grid import (Alphabet, DiscreteDomain, PeriodicConfig, Vec2,
                            ZeroVector, patterns_of)
from tilecraft.sft import (BUDGET_EXCEEDED, Empty, NonEmptyPeriodic,
                           PatternSet, TorusWitness, Undecided, box_cells,
                           classify_directions, decide, determinism_probe,
                           torus_search, valid_square, validate_witness)

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


def test_decide_deterministic(checkerboard_set, left0_right1_set):
    for ps in (checkerboard_set, left0_right1_set):
        assert decide(ps, 50_000) == decide(ps, 50_000)


def test_decide_symmetry_flag_same_outcomes():
    tuples_list = [((0, 1, 1, 0), (1, 0, 0, 1)),
                   ((0, 0, 0, 0), (1, 1, 1, 1)),
                   ((0, 1, 0, 1),),
                   ((0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1))]
    for tuples in tuples_list:
        ps = make_pattern_set(tuples)
        assert decide(ps, 100_000) == decide(ps, 100_000,
                                             symmetry_pruning=True)


# --- validate_witness ---------------------------------------------------------

def test_validate_checkerboard(checkerboard_set):
    w = TorusWitness(2, 2, ((0, 1), (1, 0)))
    assert validate_witness(checkerboard_set, w)


def test_validate_rejects_wrong(checkerboard_set):
    assert not validate_witness(checkerboard_set, TorusWitness(1, 1, ((0,),)))


def test_validate_full_shift(full_shift_set):
    assert validate_witness(full_shift_set, TorusWitness(1, 1, ((1,),)))


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
    product = poly_mul(difference_poly(Vec2(2, 0)), difference_poly(Vec2(0, 2)))
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
