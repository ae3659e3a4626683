"""Exact Fraction Gauss-Jordan elimination, the reference that the
triangular solves and the determinant and rank assertions are checked
against.  test_linalg.py checks it on every small matrix."""

from fractions import Fraction


def _clone(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def _eliminate(mat, k):
    """Gauss-Jordan elimination of the first k columns of mat, in place.

    Each pivot row is scaled to a leading 1 and its column is cleared in
    every other row, touching only the pivot row's nonzero entries.
    Returns the pivot columns and the product of the pivots, negated once
    per row swap; for a square matrix of full rank that product is the
    determinant.
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
        pivot_row = mat[row] = [x / pv for x in mat[row]]
        support = [j for j, x in enumerate(pivot_row) if x]
        for r in range(m):
            factor = mat[r][col]
            if r != row and factor:
                target = mat[r]
                for j in support:
                    target[j] -= factor * pivot_row[j]
        pivots.append(col)
    return pivots, product


def solve_columns(columns, target):
    """Solve sum_j x_j * columns[j] == target exactly.

    Returns a list of Fractions or None when the system is inconsistent.
    Free variables, if any, are set to zero.
    """
    return solve_columns_many(columns, [target])[0]


def solve_columns_many(columns, targets):
    """solve_columns for several targets at once: one elimination of the
    columns augmented with every target, one solution (or None) per target."""
    m = len(targets[0])
    k = len(columns)
    for col in (*columns, *targets):
        if len(col) != m:
            raise ValueError("column length mismatch")
    aug = [
        [Fraction(col[i]) for col in columns] + [Fraction(t[i]) for t in targets]
        for i in range(m)
    ]
    pivots, _ = _eliminate(aug, k)
    solutions = []
    for t in range(k, k + len(targets)):
        if any(aug[r][t] for r in range(len(pivots), m)):
            solutions.append(None)
            continue
        solution = [Fraction(0)] * k
        for r, col in enumerate(pivots):
            solution[col] = aug[r][t]
        solutions.append(solution)
    return solutions


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
