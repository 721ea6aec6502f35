"""Determinism probes: does a box of cells force the next cell's color?

A probe runs one sft search of a square around the center cell that
assigns the box cells first and then the center, and reads them off the
first choices of one locally valid square per extendable box+center
coloring.  A decision runs no probe, so it never loads this module.
"""

from __future__ import annotations

from collections.abc import Iterable

from .grid import DiscreteDomain, Frozen, Pattern, Vec2
from .sft import (BUDGET_EXCEEDED, DEFAULT_BUDGET, PatternSet, _Compiled,
                  _search)


def box_cells(u, k: int) -> DiscreteDomain:
    """Cells x with -k < <x,u> < 0 and -k < <x,u_perp> < k.

    The strict inequalities confine every coordinate to [-(k-1), k-1],
    so a full scan of that square is exact.
    """
    u = Vec2.nonzero(u, "box direction must be nonzero")
    if k < 1:
        raise ValueError("box width must be >= 1")
    up = u.perp()
    cells = []
    for y in range(-(k - 1), k):
        for x in range(-(k - 1), k):
            v = Vec2(x, y)
            if -k < v.dot(u) < 0 and -k < v.dot(up) < k:
                cells.append(v)
    return DiscreteDomain(tuple(cells))


class NonForcedWitness(Frozen):
    """A box coloring that extends with two different center colors."""

    box_pattern: Pattern
    centers: tuple[int, int]


class DeterminismReport(Frozen):
    """Outcome of a finite-radius forcing probe.

    Forced is sound evidence of determinism at radius k.  NonForced is
    evidence at the consistency radius only: the witnesses are locally
    valid in the probe square but might not extend to the subshift.

    ``box_colorings`` counts the extendable box colorings examined, in
    lexicographic order, up to and including the witness's (all of them
    when forced; those seen before the budget ran out when inconclusive).
    """

    direction: Vec2
    k: int
    radius: int
    verdict: str  # "forced" | "non_forced" | "inconclusive"
    box: DiscreteDomain
    witness: NonForcedWitness | None
    box_colorings: int
    nodes_used: int
    note: str = ""


def determinism_probe(ps: PatternSet, u, k: int, radius: int,
                      budget: int = DEFAULT_BUDGET) -> DeterminismReport:
    """Check whether box contents force the center cell's color.

    One search of the square of the given radius around the center
    assigns the box cells first, then the center, and yields the choices
    of one locally valid square per extendable box+center coloring, in
    lexicographic order; the first choices are the box and the center,
    and no square is rendered.  The first box coloring that extends with
    two different center colors is the non-forced witness; if every
    extendable box coloring pins the center, the direction is reported
    forced.
    ``box_colorings`` is the number of extendable box colorings
    examined, in lexicographic order, up to and including the witness.
    """
    u = Vec2.nonzero(u, "probe direction must be nonzero")
    if radius < k:
        raise ValueError("consistency radius must be at least k")
    box = box_cells(u, k)
    side = 2 * radius + 1
    center = Vec2(radius, radius)
    box_sq = [c + center for c in box.cells]
    comp = _Compiled(ps)
    colors = comp.colors
    colorings = 0
    last = first = witness = None
    for choice, nodes in _search(comp, side, side, False, budget,
                                 head=(*box_sq, center)):
        if choice is None or choice is BUDGET_EXCEEDED:
            break
        beta, value = choice[:len(box)], choice[len(box)]
        if beta == last:
            pattern = Pattern(box, [colors[i] for i in beta])
            witness = NonForcedWitness(pattern, (colors[first], colors[value]))
            break
        colorings += 1
        last, first = beta, value
    if witness is not None:
        verdict, note = "non_forced", ""
    elif choice is BUDGET_EXCEEDED:
        verdict, note = "inconclusive", "budget exhausted"
    else:
        verdict = "forced"
        note = "" if colorings else "no locally valid square at this radius"
    return DeterminismReport(u, k, radius, verdict, box, witness, colorings,
                             nodes, note)


class DirectionClassification(Frozen):
    """The probes of a direction and its opposite, and their label."""

    u: Vec2
    forward: DeterminismReport
    backward: DeterminismReport
    label: str  # "two_sided" | "one_sided" | "non_deterministic" | "inconclusive"


def classify_directions(ps: PatternSet, directions: Iterable, k: int,
                        radius: int,
                        budget: int = DEFAULT_BUDGET) -> list[DirectionClassification]:
    """Probe each direction and its opposite; label per the taxonomy."""
    out = []
    for d in directions:
        u = Vec2(d[0], d[1])
        fwd = determinism_probe(ps, u, k, radius, budget)
        bwd = determinism_probe(ps, -u, k, radius, budget)
        if "inconclusive" in (fwd.verdict, bwd.verdict):
            label = "inconclusive"
        elif fwd.verdict == "forced" and bwd.verdict == "forced":
            label = "two_sided"
        elif fwd.verdict == "forced" or bwd.verdict == "forced":
            label = "one_sided"
        else:
            label = "non_deterministic"
        out.append(DirectionClassification(u, fwd, bwd, label))
    return out
