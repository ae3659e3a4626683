"""The matroid invariant F(M) by its poset definition, the reference that
the block-interleaving qsym_of_matroid is checked against.

F(M) is the sum over the bases of the generating function of each exchange
poset (Billera, Jia and Reiner 2009); here every linear extension of every
base poset is listed and the sum is converted to the N basis.
"""

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
