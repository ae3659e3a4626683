"""The matroid invariant F(M) by its definitions, the references that the
block-interleaving qsym_of_matroid is checked against.

Billera, Jia and Reiner ("A quasisymmetric function for matroids", 2009)
define F(M) as the sum of x^f over the M-generic weightings f: E -> P,
those for which one basis minimizes f(B).  Grouping the weightings by
their level sets gives a sum over flags in the M basis.  F(M) is also the
sum over the bases of the generating function of each exchange poset;
listing every linear extension of every base poset gives a second
reference.  Both are converted to the N basis.  The type counts of one
basis shape have a third reference, which lists every cobase block as a
subset instead of counting it by its size.
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


def basis_type_counts_by_subsets(rank, partners):
    """The type counts of matroids._basis_type_counts, with every cobase
    block listed as a subset of the cobase elements whose partners are all
    placed.

    Each call records the interleaving that places every remaining base
    element and then every remaining cobase element, and then places one
    proper base block and one nonempty cobase block in every possible way.
    """
    counts = {}
    pairs = [(1 << i, pmask) for i, pmask in enumerate(partners)]

    def rec(rem_base, rem_cob, sizes):
        k = rem_base.bit_count()
        last = sizes + (k, rem_cob.bit_count()) if rem_cob else sizes + (k,)
        counts[last] = counts.get(last, 0) + 1
        if not rem_cob:
            return
        sub = (rem_base - 1) & rem_base
        while sub:
            left = rem_base ^ sub
            avail = 0
            for bit, pmask in pairs:
                if rem_cob & bit and not pmask & left:
                    avail |= bit
            head = sizes + (sub.bit_count(),)
            cob = avail
            while cob:
                rec(left, rem_cob ^ cob, head + (cob.bit_count(),))
                cob = (cob - 1) & avail
            sub = (sub - 1) & rem_base

    rec((1 << rank) - 1, (1 << len(partners)) - 1, ())
    return counts
