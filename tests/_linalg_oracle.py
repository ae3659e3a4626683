"""Exact Fraction Gauss-Jordan elimination, the reference that the
triangular solves and the determinant and rank assertions are checked
against.  test_linalg.py checks it on every small matrix."""

from fractions import Fraction


def _clone(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def _eliminate(mat, k):
    """Gauss-Jordan elimination of the first k columns of mat, in place.

    Each pivot row is scaled to a leading 1 and its column is cleared in
    every other row.  Returns the pivot columns and the product of the
    pivots, negated once per row swap; for a square matrix of full rank that
    product is the determinant.
    """
    m = len(mat)
    pivots = []
    product = Fraction(1)
    for col in range(k):
        row = len(pivots)
        if row == m:
            break
        pivot = next((r for r in range(row, m) if mat[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            mat[row], mat[pivot] = mat[pivot], mat[row]
            product = -product
        pv = mat[row][col]
        product *= pv
        mat[row] = [x / pv for x in mat[row]]
        for r in range(m):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
    return pivots, product


def solve_columns(columns, target):
    """Solve sum_j x_j * columns[j] == target exactly.

    Returns a list of Fractions or None when the system is inconsistent.
    Free variables, if any, are set to zero.
    """
    m = len(target)
    k = len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError("column length mismatch")
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    pivots, _ = _eliminate(aug, k)
    if any(aug[r][k] for r in range(len(pivots), m)):
        return None
    solution = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        solution[col] = aug[r][k]
    return solution


def matrix_rank(rows):
    pivots, _ = _eliminate(_clone(rows), len(rows[0]) if rows else 0)
    return len(pivots)


def determinant(rows):
    """Exact determinant of a square matrix."""
    mat = _clone(rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    pivots, product = _eliminate(mat, n)
    return product if len(pivots) == n else Fraction(0)
