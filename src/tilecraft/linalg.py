"""Exact integer kernel computation for small dense systems.

One integer pass, no rationals and no floating point.  Forward
elimination is fraction-free (Bareiss's one-step identity), so every
entry of the echelon form is a minor of the input and each division is
exact.  Back-substitution sets the free unknown to the last pivot, the
determinant of the pivot block, so by Cramer's rule every pivot unknown
is an integer too; the vector is then divided by its gcd.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def nullspace_vector(matrix: list[list[int]]) -> list[int] | None:
    """One primitive kernel vector of an integer matrix, or None.

    Deterministic: the free variable is the first non-pivot column and
    the other non-pivot columns are zero; the result has coprime entries
    and its first nonzero entry is positive.  A remainder in
    back-substitution, or a result that some input row does not
    annihilate, raises ArithmeticError.
    """
    if not matrix or not matrix[0]:
        return None
    n_cols = len(matrix[0])
    rows = [list(map(int, row)) for row in matrix]
    pivots: list[int] = []
    prev = 1
    for col in range(n_cols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot = rows[r]
        p = pivot[col]
        cols = range(col + 1, n_cols)
        for row in rows[r + 1:]:
            head, row[col] = row[col], 0
            for j in cols:
                row[j] = (row[j] * p - head * pivot[j]) // prev
        prev = p
        pivots.append(col)
    free = next((c for c, pc in enumerate(pivots) if c != pc), len(pivots))
    if free == n_cols:
        return None
    x = [0] * n_cols
    x[free] = prev
    for col, row in zip(reversed(pivots), reversed(rows[:len(pivots)])):
        x[col], rem = divmod(-sum(map(mul, row, x)), row[col])
        if rem:
            raise ArithmeticError("back-substitution left a remainder")
    g = gcd(*x)
    if next(filter(None, x)) < 0:
        g = -g
    x = [v // g for v in x]
    if any(sum(map(mul, row, x)) for row in matrix):
        raise ArithmeticError("kernel vector fails an input row")
    return x
