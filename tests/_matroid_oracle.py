"""The matroid invariant F(M) by its definitions, the references that the
block-interleaving qsym_of_matroid is checked against.

Billera, Jia and Reiner ("A quasisymmetric function for matroids", 2009)
define F(M) as the sum of x^f over the M-generic weightings f: E -> P,
those for which one basis minimizes f(B).  Grouping the weightings by
their level sets gives a sum over flags in the M basis.  F(M) is also the
sum over the bases of the generating function of each exchange poset;
listing every linear extension of every base poset gives a second
reference.  Both are converted to the N basis.
"""

from collections import Counter

from nqsym.elements import QSymElement
from nqsym.matroids import base_poset
from nqsym.posets import qsym_of_poset
from nqsym.qsym import convert


def qsym_of_matroid_by_extensions(matroid):
    """F(M) in the N basis, by full linear-extension enumeration."""
    total = QSymElement.zero("L")
    for basis in matroid.bases:
        total = total + qsym_of_poset(base_poset(matroid, basis))
    return convert(total, "N")


def _has_one_basis(rank, lower, upper):
    """Whether the minor (M|upper)/lower has exactly one basis, i.e. every
    element of upper - lower is a loop or a coloop in it; rank lists the
    rank of M on every subset mask."""
    rest = upper & ~lower
    while rest:
        e = rest & -rest
        rest ^= e
        loop = rank[lower | e] == rank[lower]
        coloop = rank[upper] - rank[upper ^ e] == 1
        if not (loop or coloop):
            return False
    return True


def qsym_of_matroid_by_flags(matroid):
    """F(M) in the N basis by the flag definition.

    A weighting with level sets E1, ..., Ek (smallest value first) is
    M-generic exactly when each minor (M|S_i)/S_(i-1) of the flag
    S_i = E1 | ... | Ei has one basis, the greedy choice being forced at
    every level; the weightings with those level sets sum to
    M_(|E1|, ..., |Ek|).  A subset DP over bitmasks: flags[S] counts the
    flags that end at S by their compositions.
    """
    full = (1 << matroid.n) - 1
    masks = [sum(1 << (x - 1) for x in b) for b in matroid.bases]
    rank = [max((b & s).bit_count() for b in masks) for s in range(full + 1)]
    flags = [Counter() for _ in range(full + 1)]
    flags[0][()] = 1
    for upper in range(1, full + 1):
        lower = upper
        while lower:
            lower = (lower - 1) & upper
            if flags[lower] and _has_one_basis(rank, lower, upper):
                size = (upper & ~lower).bit_count()
                for comp, count in flags[lower].items():
                    flags[upper][comp + (size,)] += count
    return convert(QSymElement("M", flags[full]), "N")
