"""Independent oracle implementations used only by the tests.

Everything here deliberately avoids the engine's bit-packed search:
plain loops, literal enumeration, numpy vectorization and Fraction
arithmetic, so that agreement with the engine is meaningful.
"""

import math
import warnings
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from tilecraft.balanced import (BalancedSearchResult, NotLowComplexityWarning,
                                is_balanced, is_convex)
from tilecraft.grid import (Alphabet, DiscreteDomain, Vec2, ZeroVector,
                            is_low_complexity)
from tilecraft.sft import PatternSet, TorusWitness, box_cells


def exhaustive_square_exists(tuples, n):
    """Literal enumeration of every binary n x n coloring.

    Colorings are integers whose bit y*n+x is the cell (x, y); every
    2x2 block of every coloring is tested, no pruning.  Vectorized so
    that n = 5 stays cheap; n <= 6 is the supported range.
    """
    codes = {t[0] | t[1] << 1 | t[2] << 2 | t[3] << 3 for t in tuples}
    if not codes:
        return False
    total = 1 << (n * n)
    chunk = 1 << 22
    one = np.uint64(1)
    for lo in range(0, total, chunk):
        g = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
        ok = np.ones(g.shape, dtype=bool)
        for ty in range(n - 1):
            for tx in range(n - 1):
                b0 = (g >> np.uint64(ty * n + tx)) & one
                b1 = (g >> np.uint64(ty * n + tx + 1)) & one
                b2 = (g >> np.uint64((ty + 1) * n + tx)) & one
                b3 = (g >> np.uint64((ty + 1) * n + tx + 1)) & one
                code = b0 | b1 << one | b2 << np.uint64(2) | b3 << np.uint64(3)
                pos_ok = np.zeros(g.shape, dtype=bool)
                for c in codes:
                    pos_ok |= code == c
                ok &= pos_ok
            if not ok.any():
                break
        if ok.any():
            return True
    return False


def naive_torus_exists(tuples, p, q, shape_cells=((0, 0), (1, 0), (0, 1), (1, 1)),
                       colors=(0, 1)):
    """Recursive wraparound search, re-validating whole grids, no bit tricks.

    ``tuples`` lists the allowed colors of ``shape_cells`` in that order;
    the defaults are binary 2x2 patterns in canonical (y, x) cell order.
    """
    allowed = set(map(tuple, tuples))
    grid = [[None] * p for _ in range(q)]

    def block_at(tx, ty):
        return tuple(grid[(ty + cy) % q][(tx + cx) % p]
                     for cx, cy in shape_cells)

    def consistent():
        for ty in range(q):
            for tx in range(p):
                block = block_at(tx, ty)
                if None in block:
                    continue
                if block not in allowed:
                    return False
        return True

    def place(idx):
        if idx == p * q:
            return consistent()
        y, x = divmod(idx, p)
        for v in colors:
            grid[y][x] = v
            if consistent() and place(idx + 1):
                return True
            grid[y][x] = None
        return False

    return place(0)


def fraction_kernel_exists(matrix):
    """Rank test by plain Gaussian elimination over exact rationals."""
    if not matrix or not matrix[0]:
        return False
    rows = [[Fraction(v) for v in row] for row in matrix]
    n_cols = len(rows[0])
    rank = 0
    for col in range(n_cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                for j in range(n_cols):
                    rows[i][j] -= f * rows[rank][j]
        rank += 1
    return rank < n_cols


def rational_kernel_vector(matrix):
    """The kernel vector nullspace_vector promises, by plain Gauss-Jordan.

    Reduced row echelon form over Fractions; the first non-pivot column
    is set to 1 and the other non-pivot columns to 0, and the result is
    scaled to a primitive integer vector whose first nonzero entry is
    positive.  None when there is no non-pivot column.
    """
    if not matrix or not matrix[0]:
        return None
    rows = [[Fraction(v) for v in row] for row in matrix]
    n_cols = len(rows[0])
    pivots = []
    for col in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    free = [c for c in range(n_cols) if c not in pivots]
    if not free:
        return None
    x = [Fraction(0)] * n_cols
    x[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        x[col] = -rows[r][free[0]]
    scale = math.lcm(*(v.denominator for v in x))
    ints = [int(v * scale) for v in x]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return [v // g for v in ints]


def orbit_forced_at(config, u, k):
    """Exact forcing check on the orbit of a periodic coloring.

    Any two translates that agree on the probe box must agree at the
    center; this is the ground truth the finite-radius probe is
    expected to reproduce for these orbits.
    """
    box = box_cells(u, k)
    phases = [Vec2(i, j) for j in range(config.span_y)
              for i in range(config.span_x)]
    for d1 in phases:
        for d2 in phases:
            if d1 == d2:
                continue
            if all(config.color_at(n - d1) == config.color_at(n - d2)
                   for n in box.cells):
                if config.color_at(-d1) != config.color_at(-d2):
                    return False
    return True


def naive_square_extends(tuples, shape_cells, colors, side, fixed):
    """Whether a side x side coloring agreeing with ``fixed`` exists.

    ``fixed`` maps (x, y) cells of the square to colors.  The free cells
    are filled in row-major order by plain recursion; after each
    assignment every fully colored translate of the shape through that
    cell is looked up in ``tuples``.
    """
    allowed = set(map(tuple, tuples))
    grid = [[None] * side for _ in range(side)]
    for (x, y), v in fixed.items():
        grid[y][x] = v
    free = [(x, y) for y in range(side) for x in range(side)
            if (x, y) not in fixed]
    xs = [c[0] for c in shape_cells]
    ys = [c[1] for c in shape_cells]
    through = {(x, y): [] for y in range(side) for x in range(side)}
    for ty in range(-min(ys), side - max(ys)):
        for tx in range(-min(xs), side - max(xs)):
            for cx, cy in shape_cells:
                through[(tx + cx, ty + cy)].append((tx, ty))

    def consistent(translates):
        for tx, ty in translates:
            block = tuple(grid[ty + cy][tx + cx] for cx, cy in shape_cells)
            if None not in block and block not in allowed:
                return False
        return True

    def place(i):
        if i == len(free):
            return True
        x, y = free[i]
        for v in colors:
            grid[y][x] = v
            if consistent(through[(x, y)]) and place(i + 1):
                return True
        grid[y][x] = None
        return False

    return all(consistent(through[cell]) for cell in fixed) and place(0)


def naive_probe(tuples, shape_cells, colors, u, k, radius):
    """(verdict, witness, box_colorings) of a determinism probe.

    Goes through the box+center colorings in lexicographic order (box
    cells in ``box_cells`` order, then the center) and asks
    ``naive_square_extends`` whether each extends to the square of the
    given radius.  The witness is (box values, (center, center)) of the
    first box coloring with two extending centers; ``box_colorings``
    counts the extendable box colorings up to and including it.
    """
    box = box_cells(u, k).cells
    side = 2 * radius + 1
    count = 0
    for beta in product(colors, repeat=len(box)):
        fixed = {(c.x + radius, c.y + radius): v for c, v in zip(box, beta)}
        centers = [v for v in colors
                   if naive_square_extends(tuples, shape_cells, colors, side,
                                           {**fixed, (radius, radius): v})]
        if centers:
            count += 1
        if len(centers) >= 2:
            return "non_forced", (beta, tuple(centers[:2])), count
    return "forced", None, count


# the eight symmetries of the square, as matrices ((a, b), (c, d)) that
# send (x, y) to (ax + by, cx + dy)
SQUARE_SYMMETRIES = tuple(((a, b), (c, d)) for a, b, c, d in (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0)))


def act(ps, g, perm):
    """g . ps for a square symmetry g and a color permutation perm.

    The shape's cells move by g, and each pattern P becomes the pattern
    that gives g(z) the color perm[P(z)].  Nothing is re-based, so the
    moved shape may hold negative cells.
    """
    (a, b), (c, d) = g
    moved = [(a * z.x + b * z.y, c * z.x + d * z.y) for z in ps.shape.cells]
    shape = DiscreteDomain(moved)
    tuples = []
    for t in ps.value_tuples:
        color = dict(zip(moved, (perm[v] for v in t)))
        tuples.append(tuple(color[z.x, z.y] for z in shape.cells))
    return PatternSet.from_value_tuples(
        Alphabet.of(perm[v] for v in ps.alphabet.colors), shape, tuples)


def act_on_witness(w, g, perm):
    """g . W: the periodic coloring of the torus witness W moved by g.

    It gives g(z) the color perm[W(z)], so it reads W at g^-1(z), the
    transpose of g.  Its periods are g(p, 0) and g(0, q): a p x q torus,
    or q x p when g swaps the axes.
    """
    (a, b), (c, d) = g
    p, q = (w.p, w.q) if b == 0 else (w.q, w.p)
    return TorusWitness(p, q, tuple(
        tuple(perm[w.values[(b * x + d * y) % w.q][(a * x + c * y) % w.p]]
              for x in range(p)) for y in range(q)))


def naive_in_hull(p: Vec2, cells) -> bool:
    """Caratheodory's theorem in the plane: p lies in the real hull of
    the cells iff it is one of them, on a segment between two, or inside
    a triangle of three."""
    def cross(o, a, b):
        return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)

    def on_segment(a, b):
        return cross(a, b, p) == 0 and (p - a).dot(p - b) <= 0

    def in_triangle(a, b, c):
        area = cross(a, b, c)
        return area != 0 and all(area * cross(s, t, p) >= 0
                                 for s, t in ((a, b), (b, c), (c, a)))

    return (p in cells
            or any(on_segment(a, b) for a, b in combinations(cells, 2))
            or any(in_triangle(*t) for t in combinations(cells, 3)))


def naive_is_convex(domain: DiscreteDomain) -> bool:
    """Convexity by Caratheodory's theorem in the plane, no hull.

    D is convex iff no lattice point of its bounding box outside D lies
    in the real hull of D (naive_in_hull).
    """
    cells = list(domain.cells)
    xs = [c.x for c in cells]
    ys = [c.y for c in cells]
    return not any(naive_in_hull(Vec2(x, y), cells)
                   for y in range(min(ys), max(ys) + 1)
                   for x in range(min(xs), max(xs) + 1)
                   if Vec2(x, y) not in domain)


def naive_convex_candidates(max_size: int, bbox_cap: int):
    """Convex sets in canonical order: size, bounding box, cell list.

    Representatives are anchored by touching all four sides of their
    bounding box, which dedups translated copies.
    """
    for size in range(1, max_size + 1):
        for h in range(1, min(size, bbox_cap) + 1):
            for w in range(1, min(size, bbox_cap) + 1):
                if w * h < size:
                    continue
                grid = [Vec2(x, y) for y in range(h) for x in range(w)]
                for combo in combinations(grid, size):
                    xs = {c.x for c in combo}
                    ys = {c.y for c in combo}
                    if 0 not in xs or w - 1 not in xs:
                        continue
                    if 0 not in ys or h - 1 not in ys:
                        continue
                    d = DiscreteDomain(combo)
                    if is_convex(d):
                        yield d


def naive_balanced_search(c, n, m, u, window, area_budget=6):
    """Every box combination through is_convex, is_balanced for u then -u."""
    u = Vec2(u[0], u[1])
    if u.is_zero():
        raise ZeroVector("search direction must be nonzero")
    rect_report = is_low_complexity(c, DiscreteDomain.rect(n, m), window)
    if not rect_report.low:
        warnings.warn(
            f"coloring has {rect_report.count} > {rect_report.bound} patterns "
            f"on the {n}x{m} rectangle; balanced set may not exist",
            NotLowComplexityWarning, stacklevel=2)
    for d in naive_convex_candidates(area_budget, n * m):
        for orientation in (u, -u):
            report = is_balanced(c, d, orientation, window)
            if report.balanced:
                return BalancedSearchResult(d, orientation, report)
    return None


def naive_lattice_basis(gens):
    """The Hermite basis (a, 0), (b, c) of the lattice the generators
    span, as (a, b, c); None when they span no rank-2 lattice.

    Read off invariants, no reduction: the index a*c is the gcd of all
    |cross(g_i, g_j)|, c is the gcd of the y components, and b is the
    one value in range(a) whose lattice holds every generator.
    """
    gens = [(int(g[0]), int(g[1])) for g in gens]
    index = math.gcd(*(abs(p[0] * q[1] - p[1] * q[0])
                       for p, q in combinations(gens, 2)))
    if index == 0:
        return None
    c = math.gcd(*(y for _, y in gens))
    a = index // c
    shears = [b for b in range(a)
              if all(y % c == 0 and (x - y // c * b) % a == 0 for x, y in gens)]
    assert len(shears) == 1, (gens, shears)
    return a, shears[0], c


def block_color(a: int, b: int, c: int, block, n) -> int:
    """The color at n of block repeated over the lattice spanned by
    (a, 0) and (b, c).

    Cramer's rule gives n's coordinates (s, t) in that basis; stepping
    back by floor(s) * (a, 0) + floor(t) * (b, c) lands in the
    fundamental parallelogram, and a multiple of (a, 0) then in the
    block's [0, a) x [0, c).
    """
    x, y = n[0], n[1]
    s, t = (c * x - b * y) // (a * c), y // c
    return block[y - t * c][(x - s * a - t * b) % a]


# the former grid._is_block_period, reading through block_color: a
# cell-by-cell test
def _is_block_period(a: int, b: int, c: int, block, t: Vec2) -> bool:
    for j in range(c):
        for i in range(a):
            if block_color(a, b, c, block, (i - t[0], j - t[1])) != block[j][i]:
                return False
    return True


# the former grid._saturate, reading through block_color and reducing
# with naive_lattice_basis: a flagged restart loop
def naive_saturate(a: int, b: int, c: int, block) -> tuple[int, int, int, tuple]:
    """Grow the stored lattice to the full period lattice of the block.

    Scans coset representatives of Z^2 modulo the current lattice for
    block-preserving translations; only the zero representative is in
    the lattice.  Each hit strictly shrinks the determinant, so this
    terminates quickly.
    """
    while True:
        extended = False
        for j in range(c):
            for i in range(a):
                t = Vec2(i, j)
                if t.is_zero():
                    continue
                if _is_block_period(a, b, c, block, t):
                    a2, b2, c2 = naive_lattice_basis([(a, 0), (b, c), t])
                    block2 = tuple(
                        tuple(block_color(a, b, c, block, (x, y)) for x in range(a2))
                        for y in range(c2)
                    )
                    a, b, c, block = a2, b2, c2, block2
                    extended = True
                    break
            if extended:
                break
        if not extended:
            return a, b, c, block
