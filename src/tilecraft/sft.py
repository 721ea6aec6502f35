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
from typing import Iterable, Sequence

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
                  wrap: bool):
    """Per-position checks: (cells read so far, allowed prefix codes).

    For every translate of the shape and every assignment position that
    touches it, registers a check of the translate's already-assigned
    cells against the allowed patterns truncated to those cells.  The
    final check per translate is full membership.
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
                placed.append((ay * width + ax, k, ax, ay))
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
            for i, (pos, k, ax, ay) in enumerate(placed):
                reads.append((ax * b, ay))
                checks_at[pos].append((tuple(reads), sets[i]))
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
    solutions: list
    exhausted: bool          # full tree explored
    nodes: int
    budget_exceeded: bool


def _search(ps: PatternSet, width: int, height: int, wrap: bool, budget: int,
            fixed: dict | None = None, limit: int = 1,
            symmetry_pruning: bool = False) -> _SearchRun:
    """Backtracking over the grid, row-major cells, ascending colors."""
    comp = _Compiled(ps)
    b, mask = comp.bits, comp.mask
    ncells = width * height
    checks_at = _build_checks(ps, comp, width, height, wrap)
    full_range = tuple(range(comp.n_colors))
    candidates = [full_range] * ncells
    if symmetry_pruning:
        candidates[0] = tuple(_orbit_minimal_colors(ps, comp))
    if fixed:
        for cell, color in fixed.items():
            idx = cell[1] * width + cell[0]
            candidates[idx] = (comp.color_index[color],)

    rows = [0] * height
    choice = [-1] * ncells
    solutions = []
    nodes = 0
    pos = 0
    while True:
        if pos == ncells:
            grid = tuple(
                tuple(comp.colors[(rows[y] >> (x * b)) & mask]
                      for x in range(width))
                for y in range(height))
            solutions.append(grid)
            if len(solutions) >= limit:
                return _SearchRun(solutions, False, nodes, False)
            pos -= 1
        cand = candidates[pos]
        y, xb = divmod(pos, width)
        xb *= b
        advanced = False
        ci = choice[pos]
        while ci + 1 < len(cand):
            if nodes >= budget:
                return _SearchRun(solutions, False, nodes, True)
            ci += 1
            nodes += 1
            rows[y] = (rows[y] & ~(mask << xb)) | (cand[ci] << xb)
            ok = True
            for reads, codeset in checks_at[pos]:
                code = 0
                sh = 0
                for cxb, cy in reads:
                    code |= ((rows[cy] >> cxb) & mask) << sh
                    sh += b
                if code not in codeset:
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
        else:
            choice[pos] = -1
            pos -= 1
            if pos < 0:
                return _SearchRun(solutions, True, nodes, False)


# ---------------------------------------------------------------------------
# public operations


def _square_extent_check(ps: PatternSet, n: int):
    extent = ps.shape.max_extent()
    if n < extent:
        raise ValueError(f"square side {n} smaller than shape extent {extent}")


def _valid_square(ps: PatternSet, n: int, budget: int,
                  symmetry_pruning: bool = False):
    _square_extent_check(ps, n)
    run = _search(ps, n, n, wrap=False, budget=budget,
                  symmetry_pruning=symmetry_pruning)
    if run.budget_exceeded:
        return BUDGET_EXCEEDED, run.nodes
    return (run.solutions[0] if run.solutions else None), run.nodes


def valid_square(ps: PatternSet, n: int, budget: int = DEFAULT_BUDGET,
                 symmetry_pruning: bool = False):
    """First locally valid n x n coloring, None, or BUDGET_EXCEEDED."""
    result, _ = _valid_square(ps, n, budget, symmetry_pruning)
    return result


def _torus_search(ps: PatternSet, p: int, q: int, budget: int,
                  symmetry_pruning: bool = False):
    if p < 1 or q < 1:
        raise ValueError("torus sides must be >= 1")
    run = _search(ps, p, q, wrap=True, budget=budget,
                  symmetry_pruning=symmetry_pruning)
    if run.budget_exceeded:
        return BUDGET_EXCEEDED, run.nodes
    if run.solutions:
        return TorusWitness(p, q, run.solutions[0]), run.nodes
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


_ENUMERATION_CAP = 512


def determinism_probe(ps: PatternSet, u, k: int, radius: int,
                      budget: int = DEFAULT_BUDGET) -> DeterminismReport:
    """Check whether box contents force the center cell's color.

    Enumerates the colorings of box+center that extend to a locally
    valid square of the given radius around the center.  If some box
    coloring extends with two different center colors the direction is
    reported non-forced; if every extendable box coloring pins the
    center it is reported forced.
    """
    u = Vec2(u[0], u[1])
    if u.is_zero():
        raise ZeroVector("probe direction must be nonzero")
    if radius < k:
        raise ValueError("consistency radius must be at least k")
    box = box_cells(u, k)
    side = 2 * radius + 1
    offset = Vec2(radius, radius)
    box_sq = [c + offset for c in box.cells]
    center_sq = offset
    colors = ps.alphabet.colors

    # Fast path: if the probe square has few valid colorings overall,
    # read the box-to-center map off the full enumeration.
    run = _search(ps, side, side, wrap=False, budget=budget,
                  limit=_ENUMERATION_CAP + 1)
    nodes_used = run.nodes
    if run.budget_exceeded:
        return DeterminismReport(u, k, radius, "inconclusive", box, None, 0,
                                 nodes_used, "budget exhausted")
    if run.exhausted:
        groups: dict[tuple, set] = {}
        for grid in run.solutions:
            beta = tuple(grid[c.y][c.x] for c in box_sq)
            groups.setdefault(beta, set()).add(grid[center_sq.y][center_sq.x])
        for beta in sorted(groups):
            if len(groups[beta]) >= 2:
                centers = tuple(sorted(groups[beta]))[:2]
                witness = NonForcedWitness(Pattern(box, beta), centers)
                return DeterminismReport(u, k, radius, "non_forced", box,
                                         witness, len(groups), nodes_used)
        note = "" if groups else "no locally valid square at this radius"
        return DeterminismReport(u, k, radius, "forced", box, None,
                                 len(groups), nodes_used, note)

    # Slow path: too many squares to enumerate; walk box colorings
    # depth-first, pruning prefixes that cannot extend.
    remaining = [budget - nodes_used]

    def extendable(fixed: dict) -> bool | None:
        sub = _search(ps, side, side, wrap=False, budget=remaining[0],
                      fixed=fixed, limit=1)
        remaining[0] -= sub.nodes
        if sub.budget_exceeded:
            return None
        return bool(sub.solutions)

    box_count = 0
    stack_fixed: dict = {}

    def walk(i: int):
        nonlocal box_count
        if i == len(box_sq):
            extensions = []
            for v in colors:
                stack_fixed[center_sq] = v
                ok = extendable(dict(stack_fixed))
                del stack_fixed[center_sq]
                if ok is None:
                    return "budget"
                if ok:
                    extensions.append(v)
                    if len(extensions) == 2:
                        break
            box_count += 1
            if len(extensions) >= 2:
                beta = tuple(stack_fixed[c] for c in box_sq)
                return NonForcedWitness(Pattern(box, beta),
                                        (extensions[0], extensions[1]))
            return None
        for v in colors:
            stack_fixed[box_sq[i]] = v
            ok = extendable(dict(stack_fixed))
            if ok is None:
                del stack_fixed[box_sq[i]]
                return "budget"
            if ok:
                res = walk(i + 1)
                if res is not None:
                    del stack_fixed[box_sq[i]]
                    return res
            del stack_fixed[box_sq[i]]
        return None

    res = walk(0)
    nodes_used = budget - remaining[0]
    if res == "budget":
        return DeterminismReport(u, k, radius, "inconclusive", box, None,
                                 box_count, nodes_used, "budget exhausted")
    if isinstance(res, NonForcedWitness):
        return DeterminismReport(u, k, radius, "non_forced", box, res,
                                 box_count, nodes_used)
    return DeterminismReport(u, k, radius, "forced", box, None, box_count,
                             nodes_used)


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
