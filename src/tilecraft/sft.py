"""Pattern-defined subshifts: the emptiness/periodicity decision.

The decision procedure dovetails two semi-decisions: growing square
searches (a square with no locally valid coloring certifies emptiness)
and torus searches (a valid wraparound coloring certifies a periodic
configuration).  For pattern sets with at most |D| allowed patterns,
one of the two must fire; budgets make every run terminate either way.
The determinism probes run the same search core with head cells; they
are in probes, and their names still resolve here on first access.

The search core keeps one integer code per shape translate, shape cell
k's color at bit k * bits.  Each assignment puts the new color into the
code of every translate holding that cell and looks the code up among
the allowed patterns restricted to the translate's cells assigned so
far (prefix pruning), so a check is one lookup, however large the
shape.  That prefix set is the projection {code & mask} of the pattern
codes onto the assigned cells, shared by every translate and search
that has assigned the same cells.

Search set-up has two parts.  The pattern-set part (_Compiled: color
codes, pattern codes, their projections by mask, each built on first
lookup) is built once per decision and shared by all of its square and
torus searches.  The geometry part (_geometry, one pass over the steps:
per step, the checks as translate, kept mask, shift and mask index)
depends only on the shape, the grid, the head cells and the bits per
color, so one least-recently-used cache, bounded by total weight,
shares it across pattern sets.

A search yields its color choices; a square's solution is only a yes,
so a decision renders (_Compiled.rows) its torus witness alone.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from .grid import (Alphabet, CertificateError, DiscreteDomain, Frozen, Pattern,
                   _lazy)

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:  # annotations only: a decision loads no coloring module
    from .colorings import PeriodicConfig


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


class PatternSet(Frozen):
    """Allowed patterns on one common shape over one alphabet.

    The patterns are stored as ``value_tuples``, a frozenset of int
    tuples aligned with ``shape.cells``; ``allowed``, the same patterns
    as Pattern objects, is built on first access.  Equality, hashing and
    the repr read the tuples, so none of them builds ``allowed``.
    """

    shape: DiscreteDomain
    alphabet: Alphabet
    value_tuples: frozenset[tuple[int, ...]]

    def __init__(self, shape: DiscreteDomain, alphabet: Alphabet,
                 allowed: Iterable[Pattern]):
        allowed = tuple(allowed)
        if any(p.domain != shape for p in allowed):
            raise ValueError("all allowed patterns must share the shape")
        self._store(shape, alphabet, [p.values for p in allowed])

    @classmethod
    def from_value_tuples(cls, alphabet: Alphabet, shape: DiscreteDomain,
                          tuples: Iterable[Sequence[int]]) -> "PatternSet":
        ps = object.__new__(cls)
        ps._store(shape, alphabet, tuples)
        return ps

    def _store(self, shape: DiscreteDomain, alphabet: Alphabet,
               tuples: Iterable[Sequence[int]]) -> None:
        """Validate the value tuples, in input order, and store them."""
        if not len(shape):
            raise ValueError("shape must be nonempty")
        colors = set(alphabet.colors)
        values = []
        for t in tuples:
            t = tuple(map(int, t))
            if len(t) != len(shape):
                raise ValueError("pattern values must cover the domain exactly")
            if not colors.issuperset(t):
                bad = next(v for v in t if v not in colors)
                raise ValueError(f"pattern color {bad} not in alphabet")
            values.append(t)
        self.__dict__.update(shape=shape, alphabet=alphabet,
                             value_tuples=frozenset(values))

    @cached_property
    def allowed(self) -> frozenset[Pattern]:
        return frozenset(Pattern(self.shape, t) for t in self.value_tuples)

    @property
    def low_complexity(self) -> bool:
        return len(self.value_tuples) <= len(self.shape)

    @classmethod
    def full_shift(cls, alphabet: Alphabet, shape: DiscreteDomain) -> "PatternSet":
        from itertools import product
        return cls.from_value_tuples(
            alphabet, shape, product(alphabet.colors, repeat=len(shape)))


class TorusWitness(Frozen):
    """p x q coloring valid under wraparound; unfolds two-periodically."""

    p: int
    q: int
    values: tuple[tuple[int, ...], ...]  # q rows of p colors

    def __init__(self, p: int, q: int, values: tuple[tuple[int, ...], ...]):
        values = tuple(tuple(int(v) for v in row) for row in values)
        if p < 1 or q < 1:
            raise ValueError("torus sides must be >= 1")
        if len(values) != q or any(len(r) != p for r in values):
            raise ValueError("witness values do not match the torus size")
        Frozen.__init__(self, p, q, values)

    def unfold(self) -> PeriodicConfig:
        from .colorings import PeriodicConfig

        return PeriodicConfig.from_block(self.values)


class Empty(Frozen):
    """No locally valid n x n coloring exists, hence no configuration."""

    n: int


class NonEmptyPeriodic(Frozen):
    """A valid torus coloring exists, hence a periodic configuration."""

    witness: TorusWitness


class Undecided(Frozen):
    """The node budget ran out first; how far the stages got."""

    nodes_used: int
    max_n_tried: int
    max_pq_tried: int
    low_complexity: bool  # when False, non-termination is expected behavior


DecisionOutcome = Empty | NonEmptyPeriodic | Undecided


# ---------------------------------------------------------------------------
# search core


class _Prefixes(dict):
    """mask -> {code & mask} over the pattern codes, built on first lookup."""

    __slots__ = ("codes",)

    def __init__(self, codes: list[int]):
        self.codes = codes

    def __missing__(self, mask: int) -> frozenset:
        projection = self[mask] = frozenset(map(mask.__and__, self.codes))
        return projection


class _Compiled:
    """The pattern-set part of a search, built once per pattern set: color
    codes, the shape extent, each pattern as one code (shape cell k's
    color index at bit k * bits, packed by Horner's rule) and ``prefix``,
    its projections.  ``rows`` renders a search's choices as colors; a
    decision calls it for its torus witness alone."""

    __slots__ = ("bits", "cells", "extent", "n_colors", "colors", "prefix")

    def __init__(self, ps: PatternSet):
        self.colors = ps.alphabet.colors
        self.n_colors = len(self.colors)
        self.bits = bits = max(1, (self.n_colors - 1).bit_length())
        self.cells = ps.shape.cells
        x0, y0, x1, y1 = ps.shape._rect
        self.extent = max(x1 - x0, y1 - y0) + 1
        index = {c: i for i, c in enumerate(self.colors)}
        codes = []
        for t in ps.value_tuples:
            code = 0
            for v in reversed(t):
                code = code << bits | index[v]
            codes.append(code)
        self.prefix = _Prefixes(codes)

    def rows(self, choice: list[int], width: int, height: int) -> tuple:
        """Rows of colors from a head-free search's row-major choices."""
        colors = [self.colors[k] for k in choice]
        return tuple(tuple(colors[y * width:(y + 1) * width])
                     for y in range(height))


def _geometry(cells: tuple, width: int, height: int, wrap: bool, head: tuple,
              bits: int):
    """The pattern-set-free part of a search: (masks, checks, n).

    Cells go row-major, or head cells first and then the rest by
    Chebyshev distance from the last head cell, ties row-major; step i
    places the i-th cell of that order.  Each of the ``n`` translates
    of the shape keeps one code during a search, shape cell k's color at
    bit k * bits.  One pass over the steps builds ``checks[step]``: each
    shape cell k names the translate ``cell - k``, which gets the check
    (translate, low, shift, i, earlier).  The code keeps its bits under
    ``low``, the mask of the translate's cells already placed, takes the
    color at ``shift`` = k * bits, and is looked up among the pattern
    codes restricted to ``masks[i]`` = low plus cell k.  ``earlier`` is a
    bit mask of the steps of those placed cells, blamed when the check
    fails (zero without head cells, whose search never reads blame).  In
    a square k goes in reverse canonical order, so each step's checks
    come in ascending translate order, which the blame follows.  On a
    torus k goes in canonical order: narrower than the shape, a
    translate holds a cell twice and places its cells in the order a
    square does, so the 1 x 1 torus looks up the square's masks.
    """
    order = [(x, y) for y in range(height) for x in range(width)]
    if head:
        hx, hy = head[-1]
        first = set(head)
        order = list(head) + sorted(
            (c for c in order if c not in first),
            key=lambda c: max(abs(c[0] - hx), abs(c[1] - hy)))
    x0, y0, nx, ny = 0, 0, width, height
    ks = range(len(cells))
    if not wrap:
        xs, ys = [c[0] for c in cells], [c[1] for c in cells]
        x0, y0 = min(xs), min(ys)
        nx, ny = width - max(xs) + x0, height - max(ys) + y0
        ks = ks[::-1]
    color = (1 << bits) - 1
    shape = [(cells[k][0] - x0, cells[k][1] - y0, k * bits, color << k * bits)
             for k in ks]
    placed = [0] * (nx * ny)
    blamed = [0] * (nx * ny)
    mask_index: dict[int, int] = {}
    checks: list[list[tuple]] = []
    for step, (x, y) in enumerate(order):
        at = []
        blame = 1 << step if head else 0  # only head searches read blame
        for dx, dy, shift, cell_mask in shape:
            tx, ty = x - dx, y - dy
            if wrap:
                tx %= width
                ty %= height
            elif not (0 <= tx < nx and 0 <= ty < ny):
                continue
            t = ty * nx + tx
            low = placed[t]
            mask = placed[t] = low | cell_mask
            i = mask_index.get(mask)
            if i is None:
                i = mask_index[mask] = len(mask_index)
            at.append((t, low, shift, i, blamed[t]))
            blamed[t] |= blame
        checks.append(at)
    return list(mask_index), checks, nx * ny


class _GeometryCache:
    """Geometries shared across pattern sets, least recently used first.

    A geometry weighs width * height * |shape|, a bound on its checks;
    the kept weight is at most ``cap``, and a heavier geometry is built
    for its one search and dropped.  It takes no lock: the package
    runs no threads.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.weight = 0
        self.entries: OrderedDict[tuple, tuple] = OrderedDict()

    def get(self, *key):
        """The geometry of _geometry(*key), built on a miss."""
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            return entry[1]
        weight = key[1] * key[2] * len(key[0])
        geometry = _geometry(*key)
        if weight <= self.cap:
            self.entries[key] = weight, geometry
            self.weight += weight
            while self.weight > self.cap:
                self.weight -= self.entries.popitem(last=False)[1][0]
        return geometry


# Geometries name cell masks, not prefix sets, so any pattern set on the
# shape can use them.  A census of 2x2, 3x2 and 3x3 sets reuses 32-38 of
# total weight 1,293-1,830.  The probes' 53 geometries weigh 135,716, 48
# of them side-17 squares of weight 1,156-4,624; a cap that keeps them
# all (262,144) raises peak memory by about 14 MB.
_GEOMETRIES = _GeometryCache(2048)


def _search(comp: _Compiled, width: int, height: int, wrap: bool,
            budget: int, head: tuple = ()) -> Iterator[tuple]:
    """Backtracking over the grid in _geometry order, ascending colors.

    Yields (choice, nodes) per solution, then exactly one final item:
    (None, nodes) when the search space is exhausted, (BUDGET_EXCEEDED,
    nodes) when the budget runs out; nodes is the count spent so far.
    So next(_search(...)) is the first solution or how the search ended.
    ``choice`` is the search's own list of color indices in step order,
    not a copy: it is valid until the generator resumes.  Without head
    cells the steps go row-major, so _Compiled.rows renders it.

    With no budget left it yields (BUDGET_EXCEEDED, 0) before any set-up.
    The geometry comes from a cache shared by all pattern sets, and
    ``sets`` holds this pattern set's projections onto its masks.
    ``codes`` holds one code per shape translate: a check puts the step's
    color into its translate's code and looks the code up, so it costs
    the same however many cells the translate has.

    The node loop tries colors ``ci`` upward at step ``pos``, testing the
    budget before each node.  A color whose checks all pass (the checks'
    for-else) is kept in ``choice[pos]`` and the search advances to the
    next step, which starts at color 0; only after an advance does it
    test for a full grid.  When every color fails (the color loop's
    while-else) it backs up and resumes one color past the kept choice,
    so a search exhausted on its last node ends as exhausted, however
    little budget remains.

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
    if budget <= 0:
        yield BUDGET_EXCEEDED, 0
        return
    ncells = width * height
    masks, checks_at, n_translates = _GEOMETRIES.get(
        comp.cells, width, height, wrap, head, comp.bits)
    prefix = comp.prefix
    sets = [prefix[mask] for mask in masks]
    n_colors = comp.n_colors
    back = (len(head) or ncells) - 1

    codes = [0] * n_translates
    choice = [0] * ncells
    conflict = [0] * ncells
    nodes = pos = ci = 0
    while True:
        checks = checks_at[pos]
        while ci < n_colors:
            if nodes >= budget:
                yield BUDGET_EXCEEDED, nodes
                return
            nodes += 1
            for t, low, shift, i, earlier in checks:
                code = codes[t] = (codes[t] & low) | (ci << shift)
                if code not in sets[i]:
                    conflict[pos] |= earlier
                    break
            else:
                break  # every check passed: ci stays at pos
            ci += 1
        else:  # every color failed: back up
            if head:
                culprits = conflict[pos]
                pos = culprits.bit_length() - 1
                if pos >= 0:
                    conflict[pos] |= culprits ^ (1 << pos)
            else:
                pos -= 1
            if pos < 0:
                yield None, nodes
                return
            ci = choice[pos] + 1
            continue
        choice[pos] = ci
        pos += 1
        if pos < ncells:
            conflict[pos] = ci = 0
            continue
        yield choice, nodes
        pos = back
        conflict[pos] = (1 << pos) - 1  # skip no head step from here
        ci = choice[pos] + 1


# ---------------------------------------------------------------------------
# public operations


def valid_square(ps: PatternSet, n: int, budget: int = DEFAULT_BUDGET):
    """First locally valid n x n coloring, None, or BUDGET_EXCEEDED."""
    comp = _Compiled(ps)
    if n < comp.extent:
        raise ValueError(
            f"square side {n} smaller than shape extent {comp.extent}")
    choice, _ = next(_search(comp, n, n, False, budget))
    return comp.rows(choice, n, n) if isinstance(choice, list) else choice


def torus_search(ps: PatternSet, p: int, q: int,
                 budget: int = DEFAULT_BUDGET):
    """First valid p x q wraparound coloring, None, or BUDGET_EXCEEDED."""
    if p < 1 or q < 1:
        raise ValueError("torus sides must be >= 1")
    comp = _Compiled(ps)
    choice, _ = next(_search(comp, p, q, True, budget))
    if not isinstance(choice, list):
        return choice
    return TorusWitness(p, q, comp.rows(choice, p, q))


def validate_witness(ps: PatternSet, witness: TorusWitness) -> bool:
    """Re-check a torus witness cell by cell, independent of the search.

    Reads each translate's values at the shape's (x, y) offsets and
    returns False at the first translate that is not an allowed pattern.
    """
    allowed = ps.value_tuples
    rows, p, q = witness.values, witness.p, witness.q
    cells = ps.shape.cells
    for ty in range(q):
        for tx in range(p):
            if tuple(rows[(y + ty) % q][(x + tx) % p]
                     for x, y in cells) not in allowed:
                return False
    return True


def _stage_tasks(n: int, s: int) -> list[tuple[int, int, bool]]:
    """Stage s's searches as (width, height, wrap): the n x n square, then
    every torus with max(p, q) = s in lexicographic order, which is
    (p, s) for p < s, then (s, q) for q <= s."""
    return [(n, n, False), *[(p, s, True) for p in range(1, s)],
            *[(s, q, True) for q in range(1, s + 1)]]


def decide(ps: PatternSet, budget: int = DEFAULT_BUDGET) -> DecisionOutcome:
    """Dovetailed emptiness / periodic-witness decision.

    Stage s runs the square search at side extent+s, then every torus
    with max(p, q) = s in lexicographic order.  The first exhausted
    square certifies emptiness; the first torus witness certifies
    non-emptiness, after validate_witness has re-checked it (a witness
    that fails raises CertificateError); it is the one search result
    rendered as colors.  Empty rests on the square search's exhaustion
    alone: no independent check re-reads it yet.  Budgets are counted in
    search nodes, so equal inputs give equal outcomes.
    """
    outcome, _ = decide_with_usage(ps, budget)
    return outcome


def decide_with_usage(ps: PatternSet, budget: int = DEFAULT_BUDGET
                      ) -> tuple[DecisionOutcome, int]:
    """decide, plus the total number of search nodes spent."""
    comp = _Compiled(ps)
    nodes_total = max_n = max_pq = stage = 0
    while nodes_total < budget:
        stage += 1
        n = comp.extent + stage
        for p, q, wrap in _stage_tasks(n, stage):
            # only a solution stops early: an ended search returns, unclosed
            for choice, used in _search(comp, p, q, wrap,
                                        budget - nodes_total):
                if isinstance(choice, list):
                    break
            nodes_total += used
            if choice is BUDGET_EXCEEDED:
                break  # nodes_total == budget, so the stage loop ends too
            if not wrap:
                max_n = n
                if choice is None:
                    return Empty(n), nodes_total
            elif choice is not None:
                # rows renders int tuples of the right shape, so the
                # witness skips the public constructor's checks
                witness = TorusWitness.__new__(TorusWitness)
                Frozen.__init__(witness, p, q, comp.rows(choice, p, q))
                if not validate_witness(ps, witness):
                    raise CertificateError(
                        f"the {p}x{q} torus witness fails re-validation")
                return NonEmptyPeriodic(witness), nodes_total
        else:  # every torus of the stage is refuted
            max_pq = stage
    return (Undecided(nodes_total, max_n, max_pq, ps.low_complexity),
            nodes_total)


# the determinism probes moved to probes, resolved on first access
_MOVED = dict.fromkeys((
    "DeterminismReport", "DirectionClassification", "NonForcedWitness",
    "box_cells", "classify_directions", "determinism_probe"), "probes")
__getattr__ = _lazy(globals(), _MOVED)
