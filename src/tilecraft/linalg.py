"""Exact integer kernel computation for small dense systems.

Forward elimination is fraction-free (Bareiss one-step identity), so
intermediate values stay integers; back-substitution runs over exact
rationals and the resulting vector is scaled to a primitive integer
vector.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free row echelon of a non-empty matrix; returns
    (matrix, pivot columns)."""
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][col]
        for i in range(r + 1, n_rows):
            head = rows[i][col]
            row_i, row_r = rows[i], rows[r]
            for j in range(col + 1, n_cols):
                num = row_i[j] * p - head * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free step left a remainder")
                row_i[j] = q
            row_i[col] = 0
        prev = p
        pivots.append(col)
        r += 1
    return rows, pivots


def nullspace_vector(matrix: list[list[int]]) -> list[int] | None:
    """One primitive kernel vector of an integer matrix, or None.

    Deterministic: the free variable is the first non-pivot column, the
    result has coprime entries and its first nonzero entry is positive.
    """
    if not matrix or not matrix[0]:
        return None
    n_cols = len(matrix[0])
    rows = [list(map(int, row)) for row in matrix]
    echelon, pivots = _bareiss_echelon(rows)
    free = next((c for c in range(n_cols) if c not in pivots), None)
    if free is None:
        return None
    x: list[Fraction] = [Fraction(0)] * n_cols
    x[free] = Fraction(1)
    for i in reversed(range(len(pivots))):
        pc = pivots[i]
        acc = Fraction(0)
        row = echelon[i]
        for j in range(pc + 1, n_cols):
            if row[j] and x[j]:
                acc += row[j] * x[j]
        x[pc] = -acc / row[pc]
    scale = math.lcm(*(v.denominator for v in x))
    ints = [int(v * scale) for v in x]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints
