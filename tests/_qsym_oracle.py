"""Table-driven references for the cut-mask routes of nqsym.qsym.

The package converts between bases on dense cut-mask vectors: subset sums
for M and L, a Horner fold for N to L and N to M, and a recursive left
division for L to N.  These oracles do the same work the older way: they
expand term by term through per-composition tables (refinements for M and
L, blockwise dict folds for N), adding Fractions, and solve L to N by a
peel over the triangular pivot table.  Refinements are also enumerated as
supersets of cut sets, and quasi-shuffles as overlapping shuffles.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from nqsym import qsym
from nqsym.compositions import (
    composition_to_subset,
    subset_to_composition,
    weight,
)
from nqsym.elements import QSymElement


def expand_termwise(element, table, target):
    """Expand each term of element through table(comp), a tuple of
    (composition, int) pairs, accumulating Fraction coefficients."""
    out = {}
    for comp, coeff in element.terms.items():
        for beta, factor in table(comp):
            out[beta] = out.get(beta, 0) + coeff * factor
    return QSymElement(target, out)


def refinements_by_subsets(comp):
    """Every composition refining comp, one per superset of its cut set."""
    n = weight(comp)
    base = composition_to_subset(comp)
    free = [i for i in range(1, n) if i not in base]
    out = []
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            out.append(subset_to_composition(base | set(extra), n))
    return tuple(out)


def fundamental_in_monomial(comp):
    """L_comp in M: every refinement with coefficient 1."""
    return tuple((beta, 1) for beta in qsym.refinements_of(comp))


def monomial_in_fundamental(comp):
    """M_comp in L: every refinement, signed by its number of extra parts."""
    return tuple(
        (beta, (-1) ** (len(beta) - len(comp))) for beta in qsym.refinements_of(comp)
    )


def _block_classes(classes, a):
    return dict(zip(qsym._mask_compositions(a), classes(a)))


def nbasis_in_fundamental_by_fold(comp):
    """N_comp in L by a left fold over the blocks on dicts of run
    compositions: concatenated across a descent (after even-indexed
    blocks), the touching parts merged across an ascent."""
    if not comp:
        return (((), 1),)
    counts = _block_classes(qsym._descent_classes, comp[0])
    for j, a in enumerate(comp[1:]):
        nxt = {}
        for left, lc in counts.items():
            for right, rc in _block_classes(qsym._descent_classes, a).items():
                if j % 2:
                    key = left[:-1] + (left[-1] + right[0],) + right[1:]
                else:
                    key = left + right
                nxt[key] = nxt.get(key, 0) + lc * rc
        counts = nxt
    return tuple(counts.items())


def nbasis_in_monomial_by_fold(comp):
    """N_comp in M by the same fold over level types: concatenated across
    every boundary, and across an ascent also merged."""
    if not comp:
        return (((), 1),)
    counts = _block_classes(qsym._level_classes, comp[0])
    for j, a in enumerate(comp[1:]):
        nxt = {}
        for left, lc in counts.items():
            for right, rc in _block_classes(qsym._level_classes, a).items():
                ways = lc * rc
                key = left + right
                nxt[key] = nxt.get(key, 0) + ways
                if j % 2:
                    key = left[:-1] + (left[-1] + right[0],) + right[1:]
                    nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
    return tuple(counts.items())


# the per-composition tables of the conversions made term by term
TERMWISE = {
    ("M", "L"): monomial_in_fundamental,
    ("L", "M"): fundamental_in_monomial,
    ("N", "L"): nbasis_in_fundamental_by_fold,
    ("N", "M"): nbasis_in_monomial_by_fold,
}


def peel_degree(residual, n, denom):
    """L to N for one homogeneous degree n >= 1, by an integer peel.

    residual maps run compositions of weight n to int numerators over
    denom, and is consumed.  The rows of the pivot table are peeled in
    order: the residual's numerator on a row's pivot is that row's N
    numerator, and the row is subtracted.
    """
    out = {}
    for alpha, pivot, row in qsym.nl_ascent_run_rows(n):
        if not residual:
            break
        coeff = residual.get(pivot)
        if not coeff:
            continue
        out[alpha] = Fraction(coeff, denom)
        for c, count in row:
            value = residual.get(c, 0) - coeff * count
            if value:
                residual[c] = value
            else:
                del residual[c]
    if residual:
        raise AssertionError("triangular solve left a nonzero residual")
    return out


def nbasis_by_peel(element):
    """A homogeneous L element of degree n >= 1 in the N basis, by the peel
    over the common denominator of its coefficients."""
    n = element.degree()
    denom = lcm(*(Fraction(v).denominator for v in element.terms.values()))
    residual = {c: int(v * denom) for c, v in element.terms.items()}
    return QSymElement("N", peel_degree(residual, n, denom))


def quasi_shuffle_by_overlaps(left, right):
    """The quasi-shuffle of two compositions as a dict, by listing its
    overlapping shuffles: the parts of left go, in order, to p of r slots,
    and those of right to q of them, every slot taking a part from at least
    one side, so max(p, q) <= r <= p + q; each slot's part is the sum of
    what it takes."""
    p, q = len(left), len(right)
    counts = {}
    for r in range(max(p, q), p + q + 1):
        for left_slots in combinations(range(r), p):
            missed = [i for i in range(r) if i not in left_slots]
            if len(missed) > q:
                continue
            for shared in combinations(left_slots, q - len(missed)):
                word = [0] * r
                for i, a in zip(left_slots, left):
                    word[i] += a
                for i, b in zip(sorted(missed + list(shared)), right):
                    word[i] += b
                key = tuple(word)
                counts[key] = counts.get(key, 0) + 1
    return counts
