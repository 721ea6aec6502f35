"""Independent oracle implementations used only by the tests.

Everything here deliberately avoids the engine's bit-packed search:
plain loops, literal enumeration, numpy vectorization and Fraction
arithmetic, so that agreement with the engine is meaningful.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from tilecraft.grid import Vec2
from tilecraft.sft import box_cells


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


def naive_torus_exists(tuples, p, q):
    """Recursive wraparound search, re-validating whole grids, no bit tricks."""
    allowed = set(tuples)
    grid = [[None] * p for _ in range(q)]

    def block_at(tx, ty):
        return (grid[ty % q][tx % p], grid[ty % q][(tx + 1) % p],
                grid[(ty + 1) % q][tx % p], grid[(ty + 1) % q][(tx + 1) % p])

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
        for v in (0, 1):
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
