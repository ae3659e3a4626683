"""The single elimination routine against independent oracles, over every
small matrix with entries in {-1, 0, 1}."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from nqsym import linalg

ENTRIES = (-1, 0, 1)


def matrices(m, n):
    for flat in product(ENTRIES, repeat=m * n):
        yield [list(flat[i * n : (i + 1) * n]) for i in range(m)]


@lru_cache(maxsize=None)
def signed_permutations(n):
    out = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        out.append((-1 if inversions % 2 else 1, perm))
    return out


def leibniz(rows):
    """Determinant as the signed sum over permutations."""
    total = 0
    for sign, perm in signed_permutations(len(rows)):
        term = sign
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def minor_rank(rows):
    """Size of the largest square submatrix with a nonzero determinant."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for size in range(min(m, n), 0, -1):
        for rs in combinations(range(m), size):
            for cs in combinations(range(n), size):
                if leibniz([[rows[r][c] for c in cs] for r in rs]):
                    return size
    return 0


def test_determinant_matches_leibniz_on_every_3x3():
    singular = swapped = 0
    for rows in matrices(3, 3):
        expected = leibniz(rows)
        assert linalg.determinant(rows) == expected
        singular += expected == 0
        swapped += rows[0][0] == 0 and expected != 0
    # the range covers singular matrices and ones that need a row swap
    assert singular and swapped


def test_matrix_rank_matches_minor_rank():
    for shape in ((2, 3), (3, 2)):
        for rows in matrices(*shape):
            assert linalg.matrix_rank(rows) == minor_rank(rows)
    assert linalg.matrix_rank([]) == 0


def test_solve_columns_matches_consistency_by_minor_rank():
    for m, k in ((2, 2), (2, 3), (3, 2)):
        for coefficient_rows in matrices(m, k):
            columns = [[row[j] for row in coefficient_rows] for j in range(k)]
            rank = minor_rank(coefficient_rows)
            for target in product(ENTRIES, repeat=m):
                augmented_rows = [row + [t] for row, t in zip(coefficient_rows, target)]
                consistent = minor_rank(augmented_rows) == rank
                solution = linalg.solve_columns(columns, target)
                if not consistent:
                    assert solution is None
                    continue
                assert solution is not None and len(solution) == k
                assert all(isinstance(x, Fraction) for x in solution)
                for i in range(m):
                    assert sum(solution[j] * columns[j][i] for j in range(k)) == target[i]
