"""A PatternSet keeps its patterns as value tuples: validation at the
library level, the Pattern objects built on first access, and no Pattern
objects on the decision and balanced-set paths."""

import pytest

from tilecraft.balanced import balanced_search
from tilecraft.grid import (Alphabet, DiscreteDomain, Frozen, Pattern,
                            PeriodicConfig, Vec2, is_low_complexity,
                            patterns_of)
from tilecraft.serialize import outcome_to_json, pattern_set_from_json
from tilecraft.sft import NonEmptyPeriodic, PatternSet, decide_with_usage

BINARY = Alphabet.of([0, 1])
PAIR = DiscreteDomain.rect(2, 1)
CONVEX = DiscreteDomain([(0, 0), (1, 0), (0, 1), (2, 1)])
CONVEX_TUPLES = [(0, 1, 0, 2), (1, 0, 1, 1), (1, 2, 1, 1), (2, 1, 2, 0)]
CHECKERBOARD = {"shape": "rect 2 2", "alphabet": [0, 1],
                "allowed": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}


def test_an_empty_shape_is_rejected():
    with pytest.raises(ValueError, match="shape must be nonempty"):
        PatternSet.from_value_tuples(BINARY, DiscreteDomain(()), [])
    with pytest.raises(ValueError, match="shape must be nonempty"):
        PatternSet(DiscreteDomain(()), BINARY, [])


def test_patterns_on_another_shape_are_rejected():
    other = Pattern(DiscreteDomain.rect(1, 2), (0, 1))
    with pytest.raises(ValueError,
                       match="all allowed patterns must share the shape"):
        PatternSet(PAIR, BINARY, [Pattern(PAIR, (0, 1)), other])


@pytest.mark.parametrize("make", [
    lambda: PatternSet.from_value_tuples(BINARY, PAIR, [(0, 1), (1, 2)]),
    lambda: PatternSet(PAIR, BINARY, [Pattern(PAIR, (0, 1)),
                                      Pattern(PAIR, (2, 0))]),
], ids=["value_tuples", "patterns"])
def test_a_color_outside_the_alphabet_is_rejected(make):
    with pytest.raises(ValueError, match="^pattern color 2 not in alphabet$"):
        make()


@pytest.mark.parametrize("bad", [(0,), (0, 1, 1)])
def test_value_tuples_must_cover_the_shape(bad):
    with pytest.raises(ValueError,
                       match="pattern values must cover the domain exactly"):
        PatternSet.from_value_tuples(BINARY, PAIR, [(0, 1), bad])


def test_value_tuples_hold_ints():
    ps = PatternSet.from_value_tuples(BINARY, PAIR, [(0.0, 1.0), (True, False)])
    assert ps.value_tuples == {(0, 1), (1, 0)}
    assert {type(v) for t in ps.value_tuples for v in t} == {int}
    assert ps == PatternSet.from_value_tuples(BINARY, PAIR, [(0, 1), (1, 0)])


def test_allowed_is_built_from_the_value_tuples_on_first_access():
    ps = PatternSet.from_value_tuples(Alphabet.of([0, 1, 2]), CONVEX,
                                      CONVEX_TUPLES)
    assert "allowed" not in vars(ps)
    assert ps.allowed == frozenset(Pattern(ps.shape, t)
                                   for t in ps.value_tuples)
    assert ps.allowed is ps.allowed
    assert PatternSet(ps.shape, ps.alphabet, ps.allowed) == ps


def test_equality_and_hashing_read_the_value_tuples():
    tuples = [(0, 1), (1, 0)]
    ps = PatternSet.from_value_tuples(BINARY, PAIR, tuples)
    same = PatternSet.from_value_tuples(BINARY, PAIR, reversed(tuples))
    assert ps == same and hash(ps) == hash(same)
    assert ps != PatternSet.from_value_tuples(BINARY, PAIR, tuples[:1])
    assert ps != PatternSet.from_value_tuples(BINARY, DiscreteDomain.rect(1, 2),
                                              tuples)
    assert ps != PatternSet.from_value_tuples(Alphabet.of([0, 1, 2]), PAIR,
                                              tuples)
    assert "allowed" not in vars(ps) and "allowed" not in vars(same)
    built = PatternSet(PAIR, BINARY, ps.allowed)  # allowed is now cached
    assert built == ps and hash(built) == hash(ps)


@pytest.fixture
def patterns_built(monkeypatch):
    """The Pattern objects constructed while the test runs.

    Both Pattern.__init__ and the trusted path that skips it store the
    fields through Frozen.__init__, once per Pattern, so it counts both.
    """
    built = []
    init = Frozen.__init__

    def counting(self, *args, **kwargs):
        if isinstance(self, Pattern):
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Frozen, "__init__", counting)
    return built


def test_the_decision_path_builds_no_pattern(patterns_built):
    ps = pattern_set_from_json(CHECKERBOARD)
    outcome, _ = decide_with_usage(ps, 1000)
    assert isinstance(outcome, NonEmptyPeriodic)
    outcome_to_json(outcome)
    assert len(patterns_built) == 0
    assert len(ps.allowed) == len(patterns_built) == 2  # the count works


def test_the_balanced_path_builds_no_pattern(patterns_built):
    c = PeriodicConfig.from_block([[0, 1, 1]])
    window = DiscreteDomain.rect(12, 12)
    assert is_low_complexity(c, DiscreteDomain.rect(2, 2), window)
    assert balanced_search(c, 2, 2, Vec2(0, 1), window, 3) is not None
    assert len(patterns_built) == 0
    assert len(patterns_of(c, PAIR, window)) == len(patterns_built) > 0
