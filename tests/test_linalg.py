import random
from fractions import Fraction

from tilecraft.linalg import nullspace_vector

import oracles


def test_zero_matrix_gives_first_unit_vector():
    assert nullspace_vector([[0, 0, 0], [0, 0, 0]]) == [1, 0, 0]


def test_full_rank_gives_none():
    assert nullspace_vector([[1, 0], [0, 1]]) is None
    assert nullspace_vector([[2, 3], [5, 7], [11, 13]]) is None


def test_known_kernel():
    # columns 0 and 1 are equal, kernel spanned by (1, -1, 0)
    v = nullspace_vector([[1, 1, 4], [2, 2, 5], [3, 3, 7]])
    assert v == [1, -1, 0]


def test_sign_normalization():
    # kernel spanned by (-2, 1); the primitive form flips the sign
    v = nullspace_vector([[1, 2]])
    assert v == [2, -1] or v == [-2, 1]
    assert v[0] > 0


def test_result_is_primitive_and_in_kernel_fuzz():
    rng = random.Random(31)
    found = none = 0
    for _ in range(300):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        # low-rank bias: build from few independent rows
        rank = rng.randint(0, min(n_rows, n_cols))
        base = [[rng.randint(-9, 9) for _ in range(n_cols)] for _ in range(rank)]
        matrix = []
        for _ in range(n_rows):
            row = [0] * n_cols
            for b in base:
                w = rng.randint(-2, 2)
                row = [r + w * v for r, v in zip(row, b)]
            matrix.append(row)
        v = nullspace_vector(matrix)
        oracle = oracles.fraction_kernel_exists(matrix)
        assert (v is not None) == oracle
        if v is None:
            none += 1
            continue
        found += 1
        assert any(v)
        import math
        assert math.gcd(*v) == 1
        assert next(x for x in v if x) > 0
        for row in matrix:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0
    assert found and none  # fuzz hit both branches


def _random_matrix(rng, n_rows, n_cols, rank, size):
    """n_rows x n_cols integer combinations of `rank` random rows."""
    base = [[rng.randint(-size, size) for _ in range(n_cols)]
            for _ in range(rank)]
    matrix = [[0] * n_cols for _ in range(n_rows)]
    for row in matrix:
        for b in base:
            w = rng.randint(-2, 2)
            row[:] = [r + w * v for r, v in zip(row, b)]
    return matrix


def test_vector_matches_the_rational_oracle_fuzz():
    # which kernel vector comes back is pinned, not only that it is one:
    # the first non-pivot column is the free unknown, the other non-pivot
    # columns are zero, and the vector is primitive with a positive lead
    rng = random.Random(1607)
    sizes = set()
    kernels = zero_lines = 0
    for case in range(2400):
        if case % 8 == 0:  # tall systems like annihilator_search's
            n_rows, n_cols = 36, 9
        else:
            n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.randint(0, min(n_rows, n_cols))
        size = rng.choice((1, 9, 300))
        matrix = _random_matrix(rng, n_rows, n_cols, rank, size)
        if rng.random() < 0.25:
            col = rng.randrange(n_cols)
            for row in matrix:
                row[col] = 0
            zero_lines += 1
        if rng.random() < 0.25:
            matrix[rng.randrange(n_rows)] = [0] * n_cols
            zero_lines += 1
        expected = oracles.rational_kernel_vector(matrix)
        assert nullspace_vector(matrix) == expected, matrix
        sizes.add((n_rows, n_cols, rank))
        kernels += expected is not None
    assert len(sizes) > 300 and zero_lines > 500
    assert 0 < kernels < 2400  # both branches
