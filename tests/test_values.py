"""The value-class contract: every frozen result and input type compares
by class and fields, hashes alike when equal, prints as ``Name(f=v)``,
refuses assignment and deletion, and survives pickle and deepcopy."""

import copy
import pickle

import pytest

from tilecraft.algebra import AnnihilatorCertificate, difference_poly
from tilecraft.balanced import BalancedReport, BalancedSearchResult
from tilecraft.grid import (Alphabet, ComplexityReport, DiscreteDomain,
                            Pattern, PeriodicConfig, PeriodScan, Vec2,
                            WindowConfig)
from tilecraft.sft import (DeterminismReport, DirectionClassification, Empty,
                           NonEmptyPeriodic, NonForcedWitness, PatternSet,
                           TorusWitness, Undecided)


def _pair():
    return DiscreteDomain.rect(2, 1)


def _scan():
    return PeriodScan((Vec2(2, 0),), (Vec2(1, 1),))


def _probe():
    return DeterminismReport(Vec2(1, 0), 1, 1, "forced",
                             DiscreteDomain((Vec2(-1, 0),)), None, 2, 5)


def _balanced():
    return BalancedReport(Vec2(0, 1), 2, 2, 1, 2, 2, _pair())


PAIR = ("DiscreteDomain(cells=(Vec2(x=0, y=0), Vec2(x=1, y=0)))")
SCAN = "PeriodScan(periods=(Vec2(x=2, y=0),), skipped=(Vec2(x=1, y=1),))"
PROBE = ("DeterminismReport(direction=Vec2(x=1, y=0), k=1, radius=1, "
         "verdict='forced', box=DiscreteDomain(cells=(Vec2(x=-1, y=0),)), "
         "witness=None, box_colorings=2, nodes_used=5, note='')")
BALANCED = ("BalancedReport(direction=Vec2(x=0, y=1), pattern_count=2, "
            f"size=2, inner_pattern_count=1, edge_size=2, min_line_count=2, "
            f"edge_cells={PAIR})")
TORUS = "TorusWitness(p=2, q=1, values=((0, 1),))"

# (factory, a field name, the repr); one instance of each frozen class
CASES = {
    "Alphabet": (lambda: Alphabet.of([1, 0]), "colors",
                 "Alphabet(colors=(0, 1))"),
    "DiscreteDomain": (_pair, "cells", PAIR),
    "PeriodicConfig": (
        lambda: PeriodicConfig.from_block([[0, 1], [1, 0]]), "block",
        "PeriodicConfig(span_x=2, shear=1, span_y=1, block=((0, 1),))"),
    "WindowConfig": (
        lambda: WindowConfig.from_rows([[0, 1], [1, 1]]), "values",
        "WindowConfig(rect=Rect(x0=0, y0=0, x1=1, y1=1), "
        "values=((0, 1), (1, 1)))"),
    "Pattern": (lambda: Pattern(_pair(), (0, 1)), "values",
                f"Pattern(domain={PAIR}, values=(0, 1))"),
    "ComplexityReport": (lambda: ComplexityReport(2, 4, 9), "count",
                         "ComplexityReport(count=2, bound=4, window_cells=9)"),
    "PeriodScan": (_scan, "periods", SCAN),
    "PatternSet": (
        lambda: PatternSet.from_value_tuples(Alphabet.of([0, 1]), _pair(),
                                             [(0, 1)]), "allowed",
        f"PatternSet(shape={PAIR}, alphabet=Alphabet(colors=(0, 1)), "
        "value_tuples=frozenset({(0, 1)}))"),
    "TorusWitness": (lambda: TorusWitness(2, 1, [[0, 1]]), "p", TORUS),
    "Empty": (lambda: Empty(3), "n", "Empty(n=3)"),
    "NonEmptyPeriodic": (
        lambda: NonEmptyPeriodic(TorusWitness(2, 1, ((0, 1),))), "witness",
        f"NonEmptyPeriodic(witness={TORUS})"),
    "Undecided": (
        lambda: Undecided(10, 4, 2, True), "nodes_used",
        "Undecided(nodes_used=10, max_n_tried=4, max_pq_tried=2, "
        "low_complexity=True)"),
    "NonForcedWitness": (
        lambda: NonForcedWitness(Pattern(_pair(), (1, 0)), (0, 1)), "centers",
        f"NonForcedWitness(box_pattern=Pattern(domain={PAIR}, "
        "values=(1, 0)), centers=(0, 1))"),
    "DeterminismReport": (_probe, "verdict", PROBE),
    "DirectionClassification": (
        lambda: DirectionClassification(Vec2(1, 0), _probe(), _probe(),
                                        "two_sided"), "label",
        f"DirectionClassification(u=Vec2(x=1, y=0), forward={PROBE}, "
        f"backward={PROBE}, label='two_sided')"),
    "AnnihilatorCertificate": (
        lambda: AnnihilatorCertificate(difference_poly((1, 0)), _pair()),
        "poly",
        f"AnnihilatorCertificate(poly=LaurentPoly('x - 1'), window={PAIR})"),
    "BalancedReport": (_balanced, "size", BALANCED),
    "BalancedSearchResult": (
        lambda: BalancedSearchResult(_pair(), Vec2(0, -1), _balanced()),
        "orientation",
        f"BalancedSearchResult(domain={PAIR}, orientation=Vec2(x=0, y=-1), "
        f"report={BALANCED})"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_equal_instances_compare_and_hash_alike(case):
    make, _field, _text = case
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_another_class_with_the_same_fields_is_not_equal(case):
    make, _field, _text = case
    a = make()
    other = type(f"Other{type(a).__name__}", (type(a),), {})
    b = object.__new__(other)
    b.__dict__.update(vars(a))
    assert a != b and b != a
    assert not a == b


def test_repr_names_the_class_and_every_field(case):
    make, _field, text = case
    assert repr(make()) == text


def test_fields_cannot_be_assigned_or_deleted(case):
    make, field, _text = case
    a = make()
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert getattr(a, field) is before


def test_pickle_and_deepcopy_round_trip(case):
    make, _field, text = case
    a = make()
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(b) is type(a)
        assert b == a and hash(b) == hash(a)
        assert repr(b) == text


def test_every_frozen_class_is_covered():
    made = {type(make()).__name__ for make, _f, _t in CASES.values()}
    assert made == set(CASES) and len(CASES) == 18


def test_pattern_set_repr_builds_no_pattern():
    # the repr prints value_tuples, a field; allowed stays unbuilt
    alphabet, tuples = Alphabet.of([0, 1]), [(0, 1), (1, 1)]
    ps = PatternSet.from_value_tuples(alphabet, _pair(), tuples)
    assert "value_tuples=frozenset({" in repr(ps)
    assert "allowed" not in vars(ps)
    built = PatternSet(_pair(), alphabet,
                       [Pattern(_pair(), t) for t in tuples])
    assert built == ps and hash(built) == hash(ps)
    assert built.allowed == ps.allowed


def test_fields_are_taken_in_order_or_by_name_with_defaults():
    assert Undecided(10, 4, 2, True) == Undecided(
        low_complexity=True, max_pq_tried=2, nodes_used=10, max_n_tried=4)
    assert Undecided(10, 4, max_pq_tried=2, low_complexity=True) == \
        Undecided(10, 4, 2, True)
    probe = _probe()  # built without its note
    assert probe.note == "" and vars(probe)["note"] == ""
    assert DeterminismReport(*[getattr(probe, f) for f in probe._fields[:-1]],
                             note="budget exhausted").note == "budget exhausted"
    for make in (lambda: Undecided(10, 4, 2),            # missing
                 lambda: Undecided(10, 4, 2, True, 0),   # extra
                 lambda: Undecided(10, 4, 2, True, extra=1),
                 lambda: Undecided(10, 4, 2, nodes_used=10),  # repeated
                 lambda: Empty()):
        with pytest.raises(TypeError, match="^(Undecided|Empty) "):
            make()
