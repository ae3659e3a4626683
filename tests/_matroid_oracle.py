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
subset instead of counting it by its size, and the grouping of the bases
into shapes has one too: the bases keyed on their partner masks in ground
order, with no merging of shapes that differ by a renaming of base
positions.

The exchange graph of a basis, which the package reads for F, the base
posets and the components, has references here as well: the base poset
built label by label, and the components as the classes of "both lie in a
common circuit", with the circuits found among all 2^n subsets.  So do
the clone classes and the orbits of the bases under their swaps, which F
interleaves one basis each: every transposition is tried on the whole
family, and every orbit is closed under the transpositions one by one.
"""

from collections import Counter
from itertools import combinations

from nqsym.elements import QSymElement
from nqsym.matroids import _basis_type_counts, _partner_masks, base_poset
from nqsym.posets import LabeledPoset, qsym_of_poset
from nqsym.qsym import convert


def independent_masks(matroid):
    """Every independent set of the matroid as a bitmask: the subsets of
    the bases."""
    seen = set()
    stack = [sum(1 << (x - 1) for x in b) for b in matroid.bases]
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        mm = m
        while mm:
            bit = mm & -mm
            mm ^= bit
            if (m ^ bit) not in seen:
                stack.append(m ^ bit)
    return seen


def circuits(matroid):
    """The minimal dependent subsets, found among all 2^n subsets."""
    independent = independent_masks(matroid)
    out = []
    for mask in range(1, 1 << matroid.n):
        if mask in independent:
            continue
        if all((mask ^ 1 << i) in independent for i in range(matroid.n) if mask >> i & 1):
            out.append(frozenset(i + 1 for i in range(matroid.n) if mask >> i & 1))
    return frozenset(out)


def components_by_circuits(matroid):
    """The classes of the relation 'both elements lie in a common circuit',
    each element in its own class to start with, sorted by least element."""
    parent = list(range(matroid.n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for circuit in circuits(matroid):
        members = sorted(circuit)
        for a, b in zip(members, members[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for x in range(1, matroid.n + 1):
        groups.setdefault(find(x), []).append(x)
    return tuple(frozenset(g) for g in sorted(groups.values(), key=lambda g: g[0]))


def base_poset_by_definition(matroid, basis):
    """The exchange poset of a basis built label by label: cobase elements
    get 1..n-r and base elements n-r+1..n, each side in ascending ground
    order, and b covers c when basis - b + c is a basis."""
    basis = frozenset(basis)
    n, bases = matroid.n, matroid.bases
    base_sorted = sorted(basis)
    cob_sorted = [x for x in range(1, n + 1) if x not in basis]
    label = {}
    for i, x in enumerate(cob_sorted):
        label[x] = i + 1
    for i, x in enumerate(base_sorted):
        label[x] = len(cob_sorted) + i + 1
    relations = [
        (label[b], label[c])
        for b in base_sorted
        for c in cob_sorted
        if ((basis - {b}) | {c}) in bases
    ]
    return LabeledPoset(range(1, n + 1), relations)


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


def interleave_by_exact_shapes(n, masks):
    """The N-basis coefficients of matroids._interleave, with the bases
    grouped only by their partner masks in ground order: each such shape is
    interleaved once, whether or not it is a renaming of another."""
    if n == 0:
        return {(): 1}
    full = (1 << n) - 1
    mask_set = frozenset(masks)
    shapes = Counter()
    for bmask in masks:
        partners = _partner_masks(bmask, full & ~bmask, mask_set)
        shapes[bmask.bit_count(), tuple(sorted(partners))] += 1
    acc = Counter()
    for (rank, partners), multiplicity in shapes.items():
        for typ, count in _basis_type_counts(rank, partners).items():
            acc[typ] += count * multiplicity
    return dict(acc)


def _transposed(bmask, pair):
    """bmask with the two elements of the mask pair swapped."""
    return bmask ^ pair if bmask & pair not in (0, pair) else bmask


def clone_classes_by_transpositions(ground, family):
    """The clone classes of a family of base masks on the elements of the
    mask ground, as masks sorted by least element: each element with every
    element whose transposition with it, applied to every basis, gives
    back the whole family."""
    family = frozenset(family)
    elements = [1 << i for i in range(ground.bit_length()) if ground >> i & 1]
    classes = set()
    for e in elements:
        mine = e
        for f in elements:
            if f != e and frozenset(_transposed(b, e | f) for b in family) == family:
                mine |= f
        classes.add(mine)
    return sorted(classes, key=lambda c: c & -c)


def orbits_by_closure(family, classes):
    """The orbits of a family of base masks under the transpositions of two
    elements of one class, as frozensets of masks, each grown from one
    basis until no transposition adds a new set."""
    pairs = [
        a | b
        for c in classes
        for a, b in combinations([1 << i for i in range(c.bit_length()) if c >> i & 1], 2)
    ]
    seen, orbits = set(), []
    for start in family:
        if start in seen:
            continue
        orbit, stack = {start}, [start]
        while stack:
            b = stack.pop()
            for pair in pairs:
                image = _transposed(b, pair)
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits
