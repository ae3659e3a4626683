"""Fraction-accumulating references for the integer routes of nqsym.qsym.

The package expands and multiplies on int numerators over one denominator;
these oracles do the same work the direct way, adding Fractions term by
term, and enumerate refinements as supersets of cut sets.
"""

from itertools import combinations

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
