"""Pattern-defined subshifts: emptiness/periodicity decision and probes.

The decision procedure dovetails two semi-decisions: growing square
searches (a square with no locally valid coloring certifies emptiness)
and torus searches (a valid wraparound coloring certifies a periodic
configuration).  For pattern sets with at most |D| allowed patterns,
one of the two must fire; budgets make every run terminate either way.

The search core packs partial colorings into one integer per row and,
after each assignment, re-checks only the shape translates touching
that cell, against the allowed patterns truncated to the cells
assigned so far (prefix pruning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .grid import (Alphabet, DiscreteDomain, Pattern, PeriodicConfig, Vec2,
                   ZeroVector)


class _BudgetExceededType:
    """Sentinel value: the node budget ran out before the search ended."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BUDGET_EXCEEDED"


BUDGET_EXCEEDED = _BudgetExceededType()

DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class PatternSet:
    """Allowed patterns on one common shape over one alphabet."""

    shape: DiscreteDomain
    alphabet: Alphabet
    allowed: frozenset[Pattern]

    def __post_init__(self):
        if not len(self.shape):
            raise ValueError("shape must be nonempty")
        object.__setattr__(self, "allowed", frozenset(self.allowed))
        for p in self.allowed:
            if p.domain != self.shape:
                raise ValueError("all allowed patterns must share the shape")
            for v in p.values:
                if v not in self.alphabet:
                    raise ValueError(f"pattern color {v} not in alphabet")

    @property
    def low_complexity(self) -> bool:
        return len(self.allowed) <= len(self.shape)

    @classmethod
    def from_value_tuples(cls, alphabet: Alphabet, shape: DiscreteDomain,
                          tuples: Iterable[Sequence[int]]) -> "PatternSet":
        return cls(shape, alphabet,
                   frozenset(Pattern(shape, tuple(t)) for t in tuples))

    @classmethod
    def full_shift(cls, alphabet: Alphabet, shape: DiscreteDomain) -> "PatternSet":
        from itertools import product
        return cls.from_value_tuples(
            alphabet, shape, product(alphabet.colors, repeat=len(shape)))

    def sorted_allowed(self) -> list[Pattern]:
        return sorted(self.allowed, key=lambda p: p.values)


@dataclass(frozen=True)
class TorusWitness:
    """p x q coloring valid under wraparound; unfolds two-periodically."""

    p: int
    q: int
    values: tuple[tuple[int, ...], ...]  # q rows of p colors

    def __post_init__(self):
        values = tuple(tuple(int(v) for v in row) for row in self.values)
        if self.p < 1 or self.q < 1:
            raise ValueError("torus sides must be >= 1")
        if len(values) != self.q or any(len(r) != self.p for r in values):
            raise ValueError("witness values do not match the torus size")
        object.__setattr__(self, "values", values)

    def color_at(self, n) -> int:
        return self.values[n[1] % self.q][n[0] % self.p]

    def unfold(self) -> PeriodicConfig:
        return PeriodicConfig.from_block(self.values)


@dataclass(frozen=True)
class Empty:
    """No locally valid n x n coloring exists, hence no configuration."""

    n: int


@dataclass(frozen=True)
class NonEmptyPeriodic:
    witness: TorusWitness


@dataclass(frozen=True)
class Undecided:
    nodes_used: int
    max_n_tried: int
    max_pq_tried: int
    low_complexity: bool  # when False, non-termination is expected behavior


DecisionOutcome = Empty | NonEmptyPeriodic | Undecided


# ---------------------------------------------------------------------------
# search core


class _Compiled:
    """Bit layout and integer codes for one pattern set."""

    __slots__ = ("bits", "mask", "codes", "cells", "n_colors", "colors",
                 "color_index")

    def __init__(self, ps: PatternSet):
        self.colors = ps.alphabet.colors
        self.n_colors = len(self.colors)
        self.color_index = {c: i for i, c in enumerate(self.colors)}
        self.bits = max(1, (self.n_colors - 1).bit_length())
        self.mask = (1 << self.bits) - 1
        self.cells = ps.shape.cells
        codes = set()
        for pat in ps.allowed:
            code = 0
            for k, v in enumerate(pat.values):
                code |= self.color_index[v] << (k * self.bits)
            codes.add(code)
        self.codes = frozenset(codes)


def _build_checks(ps: PatternSet, comp: _Compiled, width: int, height: int,
                  wrap: bool, rank: Sequence[int]):
    """Per-step checks: (cells read, allowed prefix codes, earlier steps).

    ``rank[y * width + x]`` is the step at which cell (x, y) is assigned.
    For every translate of the shape and every step that touches it,
    registers a check of the translate's already-assigned cells against
    the allowed patterns truncated to those cells.  The final check per
    translate is full membership.  The third item is a bit mask of the
    other steps the check reads: the cells to blame when it fails.
    """
    cells = comp.cells
    b = comp.bits
    xs = [c.x for c in cells]
    ys = [c.y for c in cells]
    if wrap:
        txs = range(width)
        tys = range(height)
    else:
        txs = range(-min(xs), width - max(xs))
        tys = range(-min(ys), height - max(ys))
    sorted_values = [p.values for p in ps.sorted_allowed()]
    checks_at: list[list[tuple]] = [[] for _ in range(width * height)]
    prefix_cache: dict[tuple, list[frozenset]] = {}
    for ty in tys:
        for tx in txs:
            placed = []
            for k, cell in enumerate(cells):
                ax, ay = cell.x + tx, cell.y + ty
                if wrap:
                    ax %= width
                    ay %= height
                placed.append((rank[ay * width + ax], k, ax, ay))
            placed.sort()
            seq = tuple(k for _, k, _, _ in placed)
            if seq not in prefix_cache:
                sets = []
                for i in range(len(seq)):
                    codes = set()
                    for values in sorted_values:
                        code = 0
                        for j in range(i + 1):
                            code |= comp.color_index[values[seq[j]]] << (j * b)
                        codes.add(code)
                    sets.append(frozenset(codes))
                prefix_cache[seq] = sets
            sets = prefix_cache[seq]
            reads: list[tuple[int, int]] = []
            earlier = 0
            for i, (step, k, ax, ay) in enumerate(placed):
                reads.append((ax * b, ay))
                checks_at[step].append((tuple(reads), sets[i], earlier))
                earlier |= 1 << step
    return checks_at


def _orbit_minimal_colors(ps: PatternSet, comp: _Compiled) -> list[int]:
    """Color indices minimal in their orbit under pattern-set symmetries.

    Only color permutations that fix the allowed set are considered;
    restricting the first assigned cell to orbit minima preserves the
    canonical (lexicographically first) witness.
    """
    from itertools import permutations
    n = comp.n_colors
    if n > 6:
        return list(range(n))
    tuples = {p.values for p in ps.allowed}
    colors = comp.colors
    orbit_min = list(range(n))
    for perm in permutations(range(n)):
        mapping = {colors[i]: colors[perm[i]] for i in range(n)}
        if {tuple(mapping[v] for v in t) for t in tuples} == tuples:
            for i in range(n):
                if perm[i] < orbit_min[i]:
                    orbit_min[i] = perm[i]
    return [i for i in range(n) if orbit_min[i] == i]


@dataclass
class _SearchRun:
    """Nodes spent by one _search so far, and whether it hit the budget."""

    nodes: int = 0
    budget_exceeded: bool = False


def _layout(width: int, height: int, head: tuple, bits: int):
    """Assignment order: rank per cell, (row, bit offset) per step.

    The order is row-major, or the head cells first and then the other
    cells by Chebyshev distance from the last head cell, ties row-major.
    """
    rank = list(range(width * height))
    if not head:
        return rank, [(y, x * bits) for y in range(height)
                      for x in range(width)]
    cx, cy = head[-1]
    first = set(head)
    order = list(head) + sorted(
        ((x, y) for y in range(height) for x in range(width)
         if (x, y) not in first),
        key=lambda c: max(abs(c[0] - cx), abs(c[1] - cy)))
    for i, (x, y) in enumerate(order):
        rank[y * width + x] = i
    return rank, [(y, x * bits) for x, y in order]


def _search(ps: PatternSet, width: int, height: int, wrap: bool, budget: int,
            run: _SearchRun, head: tuple = (),
            symmetry_pruning: bool = False) -> Iterator[tuple]:
    """Backtracking over the grid in _layout order, ascending colors.

    Yields each solution as rows of colors and counts nodes in ``run``.
    With head cells, the search backs up into the last head cell after
    each solution, so it yields exactly one solution per extendable
    coloring of the head, in lexicographic order.  It also backjumps: a
    step whose colors all fail returns to the latest step its failed
    checks read, or that failures below it were blamed on, so a head
    coloring that cannot extend is refuted without trying every coloring
    of the steps in between.  ``conflict[step]`` holds that blame as a
    bit mask of steps.  Without head cells the search backtracks one
    step at a time: decide reports its node counts, and backjumping
    would change them.
    """
    comp = _Compiled(ps)
    b, mask = comp.bits, comp.mask
    ncells = width * height
    rank, steps = _layout(width, height, head, b)
    checks_at = _build_checks(ps, comp, width, height, wrap, rank)
    full_range = tuple(range(comp.n_colors))
    candidates = [full_range] * ncells
    if symmetry_pruning:
        candidates[0] = tuple(_orbit_minimal_colors(ps, comp))
    back = (len(head) or ncells) - 1

    rows = [0] * height
    choice = [-1] * ncells
    conflict = [0] * ncells
    nodes = 0
    pos = 0
    while True:
        if pos == ncells:
            run.nodes = nodes
            yield tuple(
                tuple(comp.colors[(rows[y] >> (x * b)) & mask]
                      for x in range(width))
                for y in range(height))
            pos = back
            conflict[pos] = (1 << pos) - 1  # skip no head step from here
        cand = candidates[pos]
        y, xb = steps[pos]
        advanced = False
        ci = choice[pos]
        while ci + 1 < len(cand):
            if nodes >= budget:
                run.nodes = nodes
                run.budget_exceeded = True
                return
            ci += 1
            nodes += 1
            rows[y] = (rows[y] & ~(mask << xb)) | (cand[ci] << xb)
            ok = True
            for reads, codeset, earlier in checks_at[pos]:
                code = 0
                sh = 0
                for cxb, cy in reads:
                    code |= ((rows[cy] >> cxb) & mask) << sh
                    sh += b
                if code not in codeset:
                    conflict[pos] |= earlier
                    ok = False
                    break
            if ok:
                choice[pos] = ci
                advanced = True
                break
        if advanced:
            pos += 1
            if pos < ncells:
                choice[pos] = -1
                conflict[pos] = 0
        else:
            choice[pos] = -1
            if head:
                culprits = conflict[pos]
                pos = culprits.bit_length() - 1
                if pos >= 0:
                    conflict[pos] |= culprits ^ (1 << pos)
            else:
                pos -= 1
            if pos < 0:
                run.nodes = nodes
                return


# ---------------------------------------------------------------------------
# public operations


def _square_extent_check(ps: PatternSet, n: int):
    extent = ps.shape.max_extent()
    if n < extent:
        raise ValueError(f"square side {n} smaller than shape extent {extent}")


def _valid_square(ps: PatternSet, n: int, budget: int,
                  symmetry_pruning: bool = False):
    _square_extent_check(ps, n)
    run = _SearchRun()
    grid = next(_search(ps, n, n, False, budget, run,
                        symmetry_pruning=symmetry_pruning), None)
    if run.budget_exceeded:
        return BUDGET_EXCEEDED, run.nodes
    return grid, run.nodes


def valid_square(ps: PatternSet, n: int, budget: int = DEFAULT_BUDGET,
                 symmetry_pruning: bool = False):
    """First locally valid n x n coloring, None, or BUDGET_EXCEEDED."""
    result, _ = _valid_square(ps, n, budget, symmetry_pruning)
    return result


def _torus_search(ps: PatternSet, p: int, q: int, budget: int,
                  symmetry_pruning: bool = False):
    if p < 1 or q < 1:
        raise ValueError("torus sides must be >= 1")
    run = _SearchRun()
    grid = next(_search(ps, p, q, True, budget, run,
                        symmetry_pruning=symmetry_pruning), None)
    if run.budget_exceeded:
        return BUDGET_EXCEEDED, run.nodes
    if grid is not None:
        return TorusWitness(p, q, grid), run.nodes
    return None, run.nodes


def torus_search(ps: PatternSet, p: int, q: int, budget: int = DEFAULT_BUDGET,
                 symmetry_pruning: bool = False):
    """First valid p x q wraparound coloring, None, or BUDGET_EXCEEDED."""
    result, _ = _torus_search(ps, p, q, budget, symmetry_pruning)
    return result


def validate_witness(ps: PatternSet, witness: TorusWitness) -> bool:
    """Re-check a torus witness cell by cell, independent of the search."""
    for ty in range(witness.q):
        for tx in range(witness.p):
            values = tuple(
                witness.values[(cell.y + ty) % witness.q][(cell.x + tx) % witness.p]
                for cell in ps.shape.cells)
            if Pattern(ps.shape, values) not in ps.allowed:
                return False
    return True


def _stage_pairs(s: int) -> list[tuple[int, int]]:
    return sorted((p, q) for p in range(1, s + 1) for q in range(1, s + 1)
                  if max(p, q) == s)


def decide(ps: PatternSet, budget: int = DEFAULT_BUDGET,
           symmetry_pruning: bool = False) -> DecisionOutcome:
    """Dovetailed emptiness / periodic-witness decision.

    Stage s runs the square search at side extent+s, then every torus
    with max(p, q) = s in lexicographic order.  The first exhausted
    square certifies emptiness; the first torus witness certifies
    non-emptiness.  Budgets are counted in search nodes, so equal
    inputs give equal outcomes.
    """
    outcome, _ = decide_with_usage(ps, budget, symmetry_pruning)
    return outcome


def decide_with_usage(ps: PatternSet, budget: int = DEFAULT_BUDGET,
                      symmetry_pruning: bool = False
                      ) -> tuple[DecisionOutcome, int]:
    """decide, plus the total number of search nodes spent."""
    n0 = ps.shape.max_extent()
    nodes_total = 0
    max_n = 0
    max_pq = 0
    undecided = lambda: Undecided(nodes_total, max_n, max_pq,
                                  ps.low_complexity)
    stage = 0
    while nodes_total < budget:
        stage += 1
        n = n0 + stage
        result, used = _valid_square(ps, n, budget - nodes_total,
                                     symmetry_pruning)
        nodes_total += used
        if result is BUDGET_EXCEEDED:
            return undecided(), nodes_total
        max_n = n
        if result is None:
            return Empty(n), nodes_total
        for p, q in _stage_pairs(stage):
            result, used = _torus_search(ps, p, q, budget - nodes_total,
                                         symmetry_pruning)
            nodes_total += used
            if result is BUDGET_EXCEEDED:
                return undecided(), nodes_total
            if result is not None:
                return NonEmptyPeriodic(result), nodes_total
        max_pq = stage
    return undecided(), nodes_total


# ---------------------------------------------------------------------------
# determinism probes


def box_cells(u, k: int) -> DiscreteDomain:
    """Cells x with -k < <x,u> < 0 and -k < <x,u_perp> < k.

    The strict inequalities confine every coordinate to [-(k-1), k-1],
    so a full scan of that square is exact.
    """
    u = Vec2(u[0], u[1])
    if u.is_zero():
        raise ZeroVector("box direction must be nonzero")
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


@dataclass(frozen=True)
class NonForcedWitness:
    box_pattern: Pattern
    centers: tuple[int, int]


@dataclass(frozen=True)
class DeterminismReport:
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
    assigns the box cells first, then the center, and yields one locally
    valid square per extendable box+center coloring, in lexicographic
    order.  The first box coloring that extends with two different
    center colors is the non-forced witness; if every extendable box
    coloring pins the center, the direction is reported forced.
    ``box_colorings`` is the number of extendable box colorings
    examined, in lexicographic order, up to and including the witness.
    """
    u = Vec2(u[0], u[1])
    if u.is_zero():
        raise ZeroVector("probe direction must be nonzero")
    if radius < k:
        raise ValueError("consistency radius must be at least k")
    box = box_cells(u, k)
    side = 2 * radius + 1
    center = Vec2(radius, radius)
    box_sq = [c + center for c in box.cells]
    run = _SearchRun()
    colorings = 0
    last = first = None
    for grid in _search(ps, side, side, False, budget, run,
                        head=(*box_sq, center)):
        beta = tuple(grid[c.y][c.x] for c in box_sq)
        value = grid[center.y][center.x]
        if beta == last:
            witness = NonForcedWitness(Pattern(box, beta), (first, value))
            return DeterminismReport(u, k, radius, "non_forced", box,
                                     witness, colorings, run.nodes)
        colorings += 1
        last, first = beta, value
    if run.budget_exceeded:
        return DeterminismReport(u, k, radius, "inconclusive", box, None,
                                 colorings, run.nodes, "budget exhausted")
    note = "" if colorings else "no locally valid square at this radius"
    return DeterminismReport(u, k, radius, "forced", box, None, colorings,
                             run.nodes, note)


@dataclass(frozen=True)
class DirectionClassification:
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
