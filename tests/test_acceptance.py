"""Acceptance gate: one test per criterion, desk-scale but exhaustive.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion.
"""

import itertools
import random
import warnings

import pytest

from tilecraft.algebra import (ZeroSeriesWarning, annihilates,
                               annihilator_search, apply, difference_poly,
                               periodic_annihilator)
from tilecraft.balanced import balanced_search, is_balanced
from tilecraft.grid import (Alphabet, DiscreteDomain, PeriodicConfig, Vec2,
                            WindowConfig, find_periods, patterns_of)
from tilecraft.serialize import canonical_json, outcome_to_json
from tilecraft.sft import (Empty, NonEmptyPeriodic, PatternSet, TorusWitness,
                           Undecided, decide, decide_with_usage,
                           determinism_probe, torus_search, validate_witness)

import oracles
from conftest import FIVE_PATTERN_ROWS, make_pattern_set

# Budget calibration: a pre-build sweep with the brute-force oracles
# showed every one of the 2,517 sets resolving within N <= 6 and
# max(p,q) <= 6 (no stragglers, so no escalation to 12), with a
# worst-case of 1,091 search nodes.  Frozen with a wide margin.
SCAN_BUDGET = 20_000

ALL_TUPLES = tuple(itertools.product((0, 1), repeat=4))


def all_low_complexity_sets():
    for size in range(0, 5):
        yield from itertools.combinations(ALL_TUPLES, size)


# Total search nodes of the scan at SCAN_BUDGET: node counts are part of
# the determinism contract, so any change to the search order shows here.
SCAN_NODES = 94_025


@pytest.fixture(scope="module")
def scan():
    results = []
    for tuples in all_low_complexity_sets():
        ps = make_pattern_set(tuples)
        results.append((tuples, ps, *decide_with_usage(ps, SCAN_BUDGET)))
    return results


def _verdict(name, ok, detail=""):
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_exhaustive_scan_decides_everything(scan):
    undecided = [t for t, _, out, _ in scan if isinstance(out, Undecided)]
    empties = sum(isinstance(out, Empty) for _, _, out, _ in scan)
    witnesses = sum(isinstance(out, NonEmptyPeriodic) for _, _, out, _ in scan)
    assert len(scan) == 2517
    # no stragglers beyond the oracle-calibrated ranges
    assert all(out.n <= 6 for _, _, out, _ in scan if isinstance(out, Empty))
    assert all(max(out.witness.p, out.witness.q) <= 6
               for _, _, out, _ in scan if isinstance(out, NonEmptyPeriodic))
    _verdict("1", not undecided,
             f"2517 sets, {empties} empty, {witnesses} periodic, "
             f"{len(undecided)} undecided")


def test_criterion_1b_node_counts_repeat(scan):
    # a second pass over color-shifted copies of the sets (the census
    # trick: no set repeats, every search geometry does) must give every
    # outcome and node count of the first, shifted back
    shifted = Alphabet.of([1, 2])
    mismatches = 0
    for tuples, _, out, nodes in scan:
        ps = PatternSet.from_value_tuples(
            shifted, DiscreteDomain.rect(2, 2),
            [tuple(v + 1 for v in t) for t in tuples])
        again, again_nodes = decide_with_usage(ps, SCAN_BUDGET)
        if isinstance(again, NonEmptyPeriodic):
            w = again.witness
            again = NonEmptyPeriodic(TorusWitness(w.p, w.q, tuple(
                tuple(v - 1 for v in row) for row in w.values)))
        mismatches += (again, again_nodes) != (out, nodes)
    total = sum(nodes for *_, nodes in scan)
    _verdict("1b", total == SCAN_NODES and mismatches == 0,
             f"{total} nodes; color-shifted pass: {mismatches} mismatches")


def test_criterion_2_witness_soundness(scan):
    violations = 0
    checked = 0
    for _, ps, out, _ in scan:
        if not isinstance(out, NonEmptyPeriodic):
            continue
        checked += 1
        w = out.witness
        if not validate_witness(ps, w):
            violations += 1
            continue
        side = 3 * max(w.p, w.q)
        window = DiscreteDomain.rect(max(side, 3), max(side, 3))
        pats = set(patterns_of(w.unfold(), ps.shape, window))
        if not pats <= ps.allowed:
            violations += 1
    _verdict("2", violations == 0,
             f"{checked} witnesses re-validated, {violations} violations")


def test_criterion_2b_witnesses_read_by_the_colorings_reader(scan):
    # each unfolded witness, read through the row-slice reader rather than
    # validate_witness: its patterns are allowed, its periods annihilate
    # it, and the period scan finds the torus's own periods
    violations = 0
    checked = 0
    for _, ps, out, _ in scan:
        if not isinstance(out, NonEmptyPeriodic):
            continue
        checked += 1
        p, q = out.witness.p, out.witness.q
        c = out.witness.unfold()
        window = DiscreteDomain.rect(2 * p + 1, 2 * q + 1)
        values = {pat.values for pat in patterns_of(c, ps.shape, window)}
        periodic_annihilator(c)  # raises CertificateError on a failure
        periods = find_periods(c, None, max(p, q))
        if (not values <= ps.value_tuples or (p, 0) not in periods
                or (0, q) not in periods):
            violations += 1
    _verdict("2b", checked > 0 and violations == 0,
             f"{checked} unfolded witnesses cross-checked, "
             f"{violations} violations")


def test_criterion_3_emptiness_soundness(scan):
    disagreements = 0
    checked = 0
    for tuples, ps, out, _ in scan:
        if not isinstance(out, Empty):
            continue
        checked += 1
        if oracles.exhaustive_square_exists(tuples, out.n):
            disagreements += 1
    _verdict("3", disagreements == 0,
             f"{checked} emptiness certificates enumerated exhaustively, "
             f"{disagreements} disagreements")


def test_criterion_3b_empty_sets_admit_no_torus(scan):
    # the two semi-decisions never both fire: emptiness excludes tori
    rng = random.Random(101)
    empties = [(t, ps) for t, ps, out, _ in scan if isinstance(out, Empty)]
    sample = rng.sample(empties, 40)
    for tuples, ps in sample:
        for p in range(1, 4):
            for q in range(1, 4):
                assert not oracles.naive_torus_exists(tuples, p, q)
        for p in range(1, 7):
            for q in range(1, 7):
                assert torus_search(ps, p, q, 200_000) is None
    _verdict("3b", True, f"{len(sample)} empty sets cross-checked for tori")


def test_criterion_4_annihilator_identities(scan):
    window20 = DiscreteDomain.rect(20, 20)
    bad = 0
    checked = 0
    for _, ps, out, _ in scan:
        if not isinstance(out, NonEmptyPeriodic):
            continue
        checked += 1
        c = out.witness.unfold()
        cert = periodic_annihilator(c)
        values = apply(cert.poly, c, window20)
        if any(v != 0 for v in values.values()):
            bad += 1
    assert checked > 0

    rng = random.Random(42)
    equiv_bad = 0
    for _ in range(200):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        block = [[rng.randint(0, 2) for _ in range(w)] for _ in range(h)]
        c = PeriodicConfig.from_block(block)
        scan_report = find_periods(c, None, 3)
        for t in (Vec2(x, y) for y in range(-3, 4) for x in range(-3, 4)):
            if t.is_zero():
                continue
            if annihilates(difference_poly(t), c, window20) != (t in scan_report):
                equiv_bad += 1
    _verdict("4", bad == 0 and equiv_bad == 0,
             f"{checked} certificates verified on 20x20; 200 random periodic "
             f"configs period/difference-poly equivalence exact")


def test_criterion_5_forced_directions_on_two_periodic_orbits():
    directions = [Vec2(1, 1), Vec2(1, -1), Vec2(-1, 1), Vec2(-1, -1),
                  Vec2(1, 2), Vec2(2, 1), Vec2(-1, -2), Vec2(-2, -1)]
    rng = random.Random(20260810)
    accepted = 0
    rejected = 0
    non_forced = 0
    inconclusive = 0
    while accepted < 50:
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        block = [[rng.choice([0, 1, 2]) for _ in range(p)] for _ in range(q)]
        c = PeriodicConfig.from_block(block)
        if (c.span_x, c.span_y, c.shear) != (p, q, 0):
            rejected += 1  # degenerate block, periods collapsed
            continue
        # the probes run at box width 4; sample only orbits whose exact
        # forcing radius is within that cap for every probed direction
        if not all(oracles.orbit_forced_at(c, u, 4) for u in directions):
            rejected += 1
            continue
        accepted += 1
        for u in directions:
            assert u.dot(Vec2(p, 0)) != 0 and u.dot(Vec2(0, q)) != 0
        shape = DiscreteDomain.rect(p + 1, q + 1)
        window = DiscreteDomain.rect(4 * (p + 1), 4 * (q + 1))
        pats = patterns_of(c, shape, window)
        alphabet = Alphabet.of(sorted({v for pat in pats for v in pat.values}))
        ps = PatternSet(shape, alphabet, frozenset(pats))
        for u in directions:
            rep = determinism_probe(ps, u, 4, 8, budget=400_000)
            if rep.verdict == "non_forced":
                non_forced += 1
            elif rep.verdict == "inconclusive":
                inconclusive += 1
                assert "budget" in rep.note
                print(f"criterion 5: inconclusive probe logged "
                      f"(p={p}, q={q}, u={tuple(u)}: {rep.note})")
    _verdict("5", non_forced == 0,
             f"50 orbits x 8 directions probed, {non_forced} non-forced, "
             f"{inconclusive} inconclusive, {rejected} draws rejected by the "
             f"radius-4 forcing oracle")


def test_criterion_6_balanced_worked_examples():
    window = DiscreteDomain.rect(10, 10)
    square = DiscreteDomain.rect(2, 2)

    constant = PeriodicConfig.constant(0)
    rep = is_balanced(constant, square, Vec2(0, 1), window)
    assert rep.counts == (1, 1, 2) and rep.balanced

    checkerboard = PeriodicConfig.from_block([[0, 1], [1, 0]])
    rep = is_balanced(checkerboard, square, Vec2(0, 1), window)
    assert rep.counts == (2, 2, 2) and rep.balanced

    five = WindowConfig.from_rows(FIVE_PATTERN_ROWS)
    rep = is_balanced(five, square, Vec2(0, 1), five.domain())
    assert rep.counts == (5, 4, 2)
    assert not rep.cond_low_complexity and not rep.balanced

    revalidated = 0
    for c, u, win in ((constant, Vec2(0, 1), window),
                      (checkerboard, Vec2(1, 0), window),
                      (checkerboard, Vec2(1, 1), window),
                      (constant, Vec2(2, -1), window)):
        res = balanced_search(c, 2, 2, u, win)
        assert res is not None
        again = is_balanced(c, res.domain, res.orientation, win)
        assert again.balanced and again.counts == res.report.counts
        revalidated += 1
    _verdict("6", True,
             f"3 worked triples exact, {revalidated} search results re-validated")


def test_criterion_7_annihilator_search_oracle_equivalence():
    rng = random.Random(77)
    agree = 0
    for trial in range(100):
        w, h = rng.randint(3, 6), rng.randint(3, 6)
        sw, sh = rng.randint(1, min(3, w)), rng.randint(1, min(3, h))
        if trial % 2 == 0:
            rows = [[rng.randint(0, 1) for _ in range(w)] for _ in range(h)]
        else:
            bp, bq = rng.randint(1, 2), rng.randint(1, 2)
            base = [[rng.randint(0, 2) for _ in range(bp)] for _ in range(bq)]
            rows = [[base[j % bq][i % bp] for i in range(w)] for j in range(h)]
        c = WindowConfig.from_rows(rows)
        support = DiscreteDomain.rect(sw, sh)
        window = DiscreteDomain.rect(w - sw + 1, h - sh + 1,
                                     Vec2(sw - 1, sh - 1))
        matrix = [[c.color_at(n - t) for t in support.cells]
                  for n in window.cells]
        oracle_found = oracles.fraction_kernel_exists(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroSeriesWarning)
            cert = annihilator_search(c, window, support)
        assert (cert is not None) == oracle_found
        if cert is not None:
            values = apply(cert.poly, c, window)
            assert all(v == 0 for v in values.values())
        agree += 1
    _verdict("7", agree == 100, "100 random windows, engine == oracle")


def test_criterion_8_reports_byte_identical():
    passes = []
    for _ in range(2):
        report = {}
        for tuples in all_low_complexity_sets():
            ps = make_pattern_set(tuples)
            out = decide(ps, SCAN_BUDGET)
            report[str(tuples)] = outcome_to_json(out)
        passes.append(canonical_json(report).encode())
    _verdict("8", passes[0] == passes[1],
             f"two full scans, {len(passes[0])} report bytes, identical")
