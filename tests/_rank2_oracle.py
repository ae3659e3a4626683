"""Element-by-element references for the closed forms of the rank-two
theory in nqsym.matroids.

The package writes the T-vector sum once, in closed form, and reads each
T vector and the invariant of a rank-two class off it; it splits a
partition into length-three classes by the closed form of split(lam, 2);
and it decides the Hilbert basis bound on the functional doubled, in
ints.  These oracles do the same work the older way: each T
vector written out term by term and the invariant added up as U vectors,
every split step read off the certificate that split builds, and the
functional taken in Fractions.
"""

from fractions import Fraction
from math import comb

from nqsym import matroids as mat
from nqsym.compositions import drop_zero_parts, partitions, weight
from nqsym.elements import QSymElement


def t_vec_by_terms(n, k):
    """T(n, k): 1/2 on N_(2,n-2), and binomial(k-1, j) on N_(1,j,1,n-2-j)
    for each 1 <= j < k, one term at a time."""
    terms = {drop_zero_parts((2, n - 2)): Fraction(1, 2)}
    for j in range(1, k):
        key = drop_zero_parts((1, j, 1, n - 2 - j))
        terms[key] = terms.get(key, 0) + comb(k - 1, j)
    return QSymElement("N", terms)


def rank2_qsym_by_u_vectors(lam):
    """The invariant of the rank-two class of lam as the sum over its parts
    p of the elements U(n, p) = p(n - p) T(n, p)."""
    n = weight(lam)
    total = QSymElement.zero("N")
    for part in lam:
        total = total + t_vec_by_terms(n, part).scale(part * (n - part))
    return total


def full_split_by_split(lam):
    """The length-three classes of lam, each step the split at position 2
    with alpha and beta read off the SplitResult and sorted."""
    if len(lam) == 3:
        return (lam,)
    out = []
    current = lam
    while len(current) > 3:
        res = mat.split(current, 2)
        out.append(tuple(sorted(res.beta, reverse=True)))
        current = tuple(sorted(res.alpha, reverse=True))
    out.append(current)
    return tuple(out)


def _class_equation_holds(lam, members):
    target = mat.ubar_coordinates_of_partition(lam)
    total = {k: Fraction(0) for k in target}
    for m in members:
        for k, v in mat.ubar_coordinates_of_partition(m).items():
            total[k] += v
    return total == target


def hilbert_basis_check_by_fractions(n):
    """The report of hilbert_basis_check, with the functional sending the
    k-th Ubar vector to n/2 - k taken in Fractions and the longer classes
    split through full_split_by_split."""
    gens = [lam for lam in partitions(n, min_parts=3) if len(lam) == 3]
    vectors = {lam: mat.ubar_coordinates_of_partition(lam) for lam in gens}
    distinct = len({tuple(v[k] for k in sorted(v)) for v in vectors.values()}) == len(gens)
    phi = [sum((Fraction(n, 2) - k) * v for k, v in vec.items()) for vec in vectors.values()]
    min_phi = min(phi) if phi else Fraction(0)
    bound = int(Fraction(n, 2) / min_phi) if min_phi > 0 else None
    decompositions = {}
    all_decompose = True
    for lam in partitions(n, min_parts=4):
        parts3 = full_split_by_split(lam)
        ok = _class_equation_holds(lam, parts3)
        all_decompose = all_decompose and ok
        decompositions[str(list(lam))] = {"summands": [list(m) for m in parts3], "valid": ok}
    return {
        "n": n,
        "generators": [list(g) for g in gens],
        "pairwise_distinct": distinct,
        "indecomposable": bound == 1,
        "sum_bound": bound,
        "counterexample": None,
        "longer_classes_decompose": all_decompose,
        "decompositions": decompositions,
        "passed": distinct and bound == 1 and all_decompose,
    }
