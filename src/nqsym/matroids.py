"""Matroids from explicit base families, their quasisymmetric invariant, and
the complete rank-two theory: closed formulas, recovery of the isomorphism
class from the invariant, and base polytope splits with vertex-level
certificates.

Ground sets are always [n] = {1, ..., n}; bases are stored only as
bitmasks, bit i-1 for element i.
"""

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations, repeat
from math import comb
from operator import and_, or_

from .compositions import (
    as_composition,
    drop_zero_parts,
    json_int,
    json_iter,
    partitions,
    reversal,
    weight,
)
from .elements import QSymElement
from .errors import NotDivisibleError, ValidationError
from .posets import LabeledPoset
from .qsym import (
    _scaled,
    convert,
    divide_by_pure_power,
    in_Vnr,
    nbasis_product,
    supp,
)


def _mask_of(subset):
    m = 0
    for x in subset:
        m |= 1 << (x - 1)
    return m


def _int_set(subset, what):
    """The elements of a subset of the ground set as a frozenset, each
    checked with json_int, so a bool, float or string is rejected, and so is
    a subset that is not a collection at all or that repeats an element."""
    try:
        elements = [json_int(x, what) for x in subset]
    except TypeError:
        raise ValidationError(f"expected a set of {what}s, got {subset!r}") from None
    out = frozenset(elements)
    if len(out) != len(elements):
        raise ValidationError(f"a set of {what}s repeats an element: {subset!r}")
    return out


def _elements_of(mask):
    """The elements of a mask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _basis_mask(matroid, basis):
    """The mask of basis when it is a basis of matroid, else None."""
    elements = _int_set(basis, "basis element")
    mask = _mask_of(elements) if all(1 <= x <= matroid.n for x in elements) else None
    return mask if mask in matroid._mask_set else None


def exchange_valid(base_masks):
    """Basis exchange axiom on a family of equal-size subsets.

    Checked as a hitting-set condition.  For a basis b1 and e in b1 let
    X(b1, e) = {e} | {f not in b1 : b1 - e + f is a basis}.  The targets
    other than e lie outside b1, so for a basis b2 they meet b2 - b1 exactly
    when they meet b2; and b2 misses e exactly when e is in b1 - b2.  Hence
    the axiom fails for some (b1, b2, e) iff some basis misses some X(b1, e),
    and it holds iff every basis meets every X(b1, e).
    With I = b1 - e, X(b1, e) is {x : I + x is a basis}, the extensions of
    I, so it depends on I alone.  One pass over the bases collects them,
    ext[b - x] gaining x for each basis b and x in b, and with them the
    bases holding each element as a bitset over the family; each distinct
    ext value X is checked once.  A basis missing X lies in H, the union of
    the bases minus X, and H holds I, since no x in X is in I.  So when
    |H| <= r, H is I or I + y with y outside X, no basis either way, and X
    passes.  Only an X with |H| > r is looked at: the bases meeting it are
    the union of the holder bitsets of its elements.  A family of C(m, r)
    distinct r-sets with an m-element union is every r-subset of that
    union, a uniform matroid plus loops, so it passes before the pass over
    the bases.
    The family is read once, as a set: a basis listed twice is one basis.
    """
    family = frozenset(base_masks)
    if not family:
        return True
    union = reduce(or_, family)
    rank = next(iter(family)).bit_count()
    if len(family) == comb(union.bit_count(), rank):
        return True
    ext, holders = {}, {}
    for j, b in enumerate(family):
        rest = b
        while rest:
            bit = rest & -rest
            rest ^= bit
            ext[b ^ bit] = ext.get(b ^ bit, 0) | bit
            holders[bit] = holders.get(bit, 0) | 1 << j
    everyone = (1 << len(family)) - 1
    for x in set(ext.values()):
        if (union & ~x).bit_count() > rank:
            met = 0
            while x:
                bit = x & -x
                x ^= bit
                met |= holders[bit]
            if met != everyone:
                return False
    return True


def _deletion_keeps_exchange(n, trial, removed):
    """Whether trial = F - {removed} is exchange-valid, F being an
    exchange-valid family on [n].

    In the terms of exchange_valid, deleting removed changes the extensions
    of an (r-1)-set I only when I + x == removed for some x, that is for
    I = removed - x with x in removed, and then it takes x out.  Every
    other extension set is the same in F and in trial, and the smaller
    family still meets it.  So only those r sets are checked again, each
    once; one that is now empty lies in no basis of trial and imposes
    nothing.  A basis of trial missing x lies in [n] - x, which holds
    removed; when x is everything outside removed, that set is removed
    itself, no longer a basis, so the scan over trial is skipped.
    """
    outside = ((1 << n) - 1) & ~removed
    rest = removed
    while rest:
        bit = rest & -rest
        rest ^= bit
        base = removed ^ bit
        x = 0
        f = outside
        while f:
            fbit = f & -f
            f ^= fbit
            if (base | fbit) in trial:
                x |= fbit
        if x and x != outside and not all(b & x for b in trial):
            return False
    return True


def _partner_masks(bmask, outside, mask_set):
    """The exchange graph of the basis bmask, one mask per element outside.

    For each bit f of outside, in ascending order, the mask over the base
    positions i (the bits of bmask, in ascending order) for which
    bmask - bit_i + f is in mask_set.
    """
    removed = []
    b = bmask
    while b:
        bbit = b & -b
        b ^= bbit
        removed.append(bmask ^ bbit)
    partners = []
    while outside:
        cbit = outside & -outside
        outside ^= cbit
        pmask = 0
        for i, rest in enumerate(removed):
            if (rest | cbit) in mask_set:
                pmask |= 1 << i
        partners.append(pmask)
    return partners


class Matroid:
    """A matroid on [n] given by its set of bases, stored only as bitmasks:
    the sorted tuple _masks and the frozenset _mask_set.

    `Matroid(n, bases)` validates its input, the exchange axiom included;
    a basis listed twice is one basis.  `Matroid.from_masks(n, masks)`
    trusts its caller and builds every matroid derived inside the package.
    """

    __slots__ = ("n", "_masks", "_mask_set")

    def __init__(self, n, bases):
        """Each basis becomes its mask in one pass over its elements, and
        the first fault found is reported: per basis in order, a non-int
        element or a basis that is no collection, then a repeat; then over
        the family, no basis, mixed sizes, an element outside [n] (kept
        aside, never shifted into a mask) and the exchange axiom."""
        n = json_int(n, "ground set size")
        if n < 0:
            raise ValidationError("ground set size must be >= 0")
        masks, sizes, in_range = set(), set(), True
        for b in json_iter(bases, "bases"):
            mask, repeated, stray = 0, False, []
            try:
                for x in b:
                    if type(x) is not int:
                        x = json_int(x, "basis element")
                    if 0 < x <= n:
                        bit = 1 << (x - 1)
                        if mask & bit:
                            repeated = True
                        mask |= bit
                    else:
                        stray.append(x)
            except TypeError:
                raise ValidationError(f"expected a set of basis elements, got {b!r}") from None
            if repeated or stray and len(set(stray)) != len(stray):
                raise ValidationError(f"a set of basis elements repeats an element: {b!r}")
            sizes.add(mask.bit_count() + len(stray))
            if stray:
                in_range = False
            else:
                masks.add(mask)
        if not sizes:
            raise ValidationError("a matroid needs at least one basis")
        if len(sizes) != 1:
            raise ValidationError("all bases must have the same cardinality")
        if not in_range:
            raise ValidationError("basis elements must lie in [n]")
        masks = frozenset(masks)
        if not exchange_valid(masks):
            raise ValidationError("base family violates the exchange axiom")
        self._fill(n, masks)

    @classmethod
    def from_masks(cls, n, masks):
        """The matroid whose bases are the given bitmasks, unchecked: the
        caller guarantees a nonempty exchange-valid family on [n]."""
        self = cls.__new__(cls)
        self._fill(n, masks)
        return self

    def _fill(self, n, masks):
        mask_set = frozenset(masks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_masks", tuple(sorted(mask_set)))
        object.__setattr__(self, "_mask_set", mask_set)

    def __setattr__(self, name, value):
        raise AttributeError("Matroid is immutable")

    @classmethod
    def uniform(cls, r, n):
        r, n = json_int(r, "uniform rank"), json_int(n, "ground set size")
        if not 0 <= r <= n:
            raise ValidationError("uniform matroid needs 0 <= r <= n")
        return cls.from_masks(n, [_mask_of(c) for c in combinations(range(1, n + 1), r)])

    # -- basic structure

    @property
    def bases(self):
        """The bases as frozensets, rebuilt from the masks on every access
        (one frozenset per basis), so bind it once outside a loop."""
        return frozenset(frozenset(_elements_of(m)) for m in self._masks)

    @property
    def num_bases(self):
        return len(self._masks)

    @property
    def rank(self):
        return self._masks[0].bit_count()

    def loops(self):
        return frozenset(_elements_of(((1 << self.n) - 1) & ~reduce(or_, self._masks)))

    def coloops(self):
        return frozenset(_elements_of(reduce(and_, self._masks)))

    def dual(self):
        full = (1 << self.n) - 1
        return Matroid.from_masks(self.n, [full & ~m for m in self._masks])

    def direct_sum(self, other):
        if not isinstance(other, Matroid):
            raise ValidationError(f"direct_sum expects a Matroid, got {other!r}")
        return Matroid.from_masks(
            self.n + other.n,
            [m1 | m2 << self.n for m1 in self._masks for m2 in other._masks],
        )

    def _subset_rank(self, mask):
        return max((b & mask).bit_count() for b in self._masks)

    def _subset_mask(self, subset, operation):
        elements = _int_set(subset, f"{operation} element")
        if any(not 1 <= x <= self.n for x in elements):
            raise ValidationError(f"{operation} subset must lie in [n]")
        return _mask_of(elements)

    def _minor(self, subset, kept):
        """The minor on the elements of the mask `kept`, relabeled
        order-preservingly onto [|kept|].  Its bases are the traces on `kept`
        of the bases that meet the mask `subset` in as many elements as the
        rank of `subset`."""
        r = self._subset_rank(subset)
        bits = [1 << i for i in range(self.n) if kept >> i & 1]
        masks = []
        for b in self._masks:
            if (b & subset).bit_count() == r:
                masks.append(sum(1 << j for j, bit in enumerate(bits) if b & bit))
        return Matroid.from_masks(len(bits), masks)

    def restriction(self, subset):
        """Restriction to a subset, relabeled order-preservingly onto [|A|]."""
        amask = self._subset_mask(subset, "restriction")
        return self._minor(amask, amask)

    def contraction(self, subset):
        """Contraction of a subset, remaining elements relabeled onto [n-|A|]."""
        amask = self._subset_mask(subset, "contraction")
        return self._minor(amask, ((1 << self.n) - 1) & ~amask)

    def components(self):
        """The connected components, sorted by least element.

        They are read off the exchange graph of one basis B, which joins
        e in B to f outside B when B - e + f is a basis: for any basis its
        components are those of the matroid (Krogdahl, "The dependence
        graph for bases in matroids", 1977).  Loops and coloops have no
        exchange and come out as singletons.
        """
        return tuple(frozenset(_elements_of(p)) for p in self._component_masks())

    def _component_masks(self):
        """The components as masks, in the order of components()."""
        bmask = self._masks[0]
        outside = ((1 << self.n) - 1) & ~bmask
        base = [1 << i for i in range(self.n) if bmask >> i & 1]
        parts = []
        for pmask in _partner_masks(bmask, outside, self._mask_set):
            joined, keep = outside & -outside, []
            outside ^= joined
            for i, bit in enumerate(base):
                if pmask >> i & 1:
                    joined |= bit
            # the parts are disjoint, so one pass merges every part that
            # meets the new edges
            for p in parts:
                if p & joined:
                    joined |= p
                else:
                    keep.append(p)
            parts = keep + [joined]
        covered = sum(parts)
        parts += [bit for bit in base if not bit & covered]
        return sorted(parts, key=lambda p: p & -p)

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self._mask_set == other._mask_set
        )

    def __hash__(self):
        return hash((self.n, self._mask_set))

    def __repr__(self):
        return f"Matroid(n={self.n}, bases={self.to_json()['bases']})"

    def to_json(self):
        return {"n": self.n, "bases": sorted(map(_elements_of, self._masks))}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "n" not in data or "bases" not in data:
            raise ValidationError("matroid JSON needs 'n' and 'bases'")
        bases = data["bases"]
        if not isinstance(bases, list) or not all(isinstance(b, list) for b in bases):
            raise ValidationError("matroid 'bases' must be an array of arrays")
        return cls(data["n"], bases)


def uniform(r, n):
    return Matroid.uniform(r, n)


# ---------------------------------------------------------------------------
# the base poset and the invariant


def base_poset(matroid, basis):
    """The exchange poset of a basis, strictly labeled.

    Base elements become the minimal elements and receive the top labels
    n-r+1..n in ascending ground-element order; cobase elements receive
    1..n-r the same way.  An exchangeable pair (see _partner_masks) gives a
    cover from the base label up to the cobase label.
    """
    bmask = _basis_mask(matroid, basis)
    if bmask is None:
        raise ValidationError("not a basis of the matroid")
    n, r = matroid.n, bmask.bit_count()
    partners = _partner_masks(bmask, ((1 << n) - 1) & ~bmask, matroid._mask_set)
    relations = [
        (n - r + i + 1, j + 1)
        for j, pmask in enumerate(partners)
        for i in range(r)
        if pmask >> i & 1
    ]
    return LabeledPoset(range(1, n + 1), relations)


def _basis_type_counts(rank, partners):
    """Type multiset of the alternating block interleavings of one basis shape.

    The base elements are bits 0..rank-1 (rank >= 1), and partners lists,
    for each cobase element, the mask of base bits it can exchange into.  A
    cobase element may be placed only once all its partners are placed;
    blocks strictly alternate sides starting with the base side.  Returns a
    dict from type composition to count.

    An unplaced cobase element is blocked while a partner is still unplaced;
    which elements are blocked depends on the unplaced base mask alone, so
    blocked[mask] counts them, one table per shape.  The other unplaced
    cobase elements are released (one without partners is released from
    the start): each may join any later cobase block, so they are
    interchangeable in every continuation, and a node is just (unplaced
    base mask, number of released elements), with the number of ways to
    reach it.  Each call places one proper base block sub; the pool is then
    the released elements plus those whose last partner was in sub, and a
    cobase block of y >= 1 of them is chosen in comb(pool, y) ways, so no
    cobase subset is listed.  Placing every remaining base element releases
    every remaining cobase element, which then has to form the last block,
    so that choice is counted at once.
    """
    counts = {}
    # ors[mask] is the set of cobase elements with a partner in mask, built
    # by doubling over the base bits.
    ors = [0]
    for i in range(rank):
        bit = 1 << i
        col = 0
        for j, pmask in enumerate(partners):
            if pmask & bit:
                col |= 1 << j
        ors += [o | col for o in ors]
    blocked = [o.bit_count() for o in ors]

    def rec(rem_base, free, sizes, ways):
        k = rem_base.bit_count()
        waiting = free + blocked[rem_base]
        last = sizes + (k, waiting) if waiting else sizes + (k,)
        counts[last] = counts.get(last, 0) + ways
        if not waiting:
            return
        sub = (rem_base - 1) & rem_base
        while sub:
            left = rem_base ^ sub
            pool = waiting - blocked[left]
            head = sizes + (sub.bit_count(),)
            for y in range(1, pool + 1):
                rec(left, pool - y, head + (y,), ways * comb(pool, y))
            sub = (sub - 1) & rem_base

    full = (1 << rank) - 1
    rec(full, len(partners) - blocked[full], (), 1)
    return counts


def _relabelled(rank, partners):
    """The partner masks of a basis shape with its base positions renamed in
    a fixed order, sorted.

    Positions are ordered by their number of partners and then by the
    multiset of those partners' mask sizes, ties kept in position order, and
    the renaming is a bijection, so the result is the exchange graph of an
    isomorphic shape.  Equal results are isomorphic graphs, though two
    isomorphic graphs need not give equal results: it merges shapes without
    being a complete canonical form.  Each position's key is one int with a
    digit of width bits per mask size 0..rank, counting its partners of
    that size, and the partner count in the digit above; no digit
    overflows, since a position has at most len(partners) partners, so the
    key encodes the multiset exactly with no sort.
    """
    width = len(partners).bit_length()
    count = 1 << (width * (rank + 1))
    keys = [0] * rank
    for p in partners:
        step = count + (1 << (width * p.bit_count()))
        while p:
            low = p & -p
            p ^= low
            keys[low.bit_length() - 1] += step
    new_bit = [0] * rank
    for j, i in enumerate(sorted(range(rank), key=keys.__getitem__)):
        new_bit[i] = 1 << j
    out = []
    for p in partners:
        q = 0
        while p:
            low = p & -p
            p ^= low
            q |= new_bit[low.bit_length() - 1]
        out.append(q)
    out.sort()
    return tuple(out)


def _clone_classes(ground, family):
    """The clone classes of a family of bases on the elements of the mask
    ground, as masks, in order of least element.

    Elements e and f are clones when swapping them maps the family onto
    itself (Geelen, Oxley, Vertigan and Whittle, "Totally free expansions
    of matroids", 2002): parallel elements, the elements of one rank-two
    block and any two elements of U(r, n) are.  The swap fixes every basis
    holding both or neither, so it is an automorphism iff every basis
    holding exactly one of them goes to a basis.  When e and f lie in
    equally many bases it suffices that every basis holding e and not f
    does: that maps the bases holding e alone one-to-one into the equally
    many holding f alone.  Clones form an equivalence relation, since the
    swap of e and g is (e f)(f g)(e f), so each element, in ground order,
    is tested against the least member of each class found so far that
    lies in as many bases.  The counts are read off one integer that packs
    every basis into a slot of whole bytes: an element's count is the
    number of slots holding its bit.  A family of C(|ground|, r) r-sets is
    every r-subset of ground, so the whole of ground is one class with no
    swap test.
    """
    if len(family) == comb(ground.bit_count(), next(iter(family)).bit_count()):
        return [ground] if ground else []
    width = ground.bit_length() // 8 + 1
    packed = int.from_bytes(
        b"".join(map(int.to_bytes, family, repeat(width), repeat("little"))), "little"
    )
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(family), "little")
    classes, counts = [], []
    rest = ground
    while rest:
        e = rest & -rest
        rest ^= e
        count = (packed >> e.bit_length() - 1 & ones).bit_count()
        for i, c in enumerate(classes):
            if counts[i] != count:
                continue
            least = c & -c
            pair = least | e
            if all(b ^ pair in family for b in family if b & pair == least):
                classes[i] |= e
                break
        else:
            classes.append(e)
            counts.append(count)
    return classes


def _clone_orbits(ground, family):
    """The orbits of a family of bases on the elements of the mask ground
    under the swaps of clones (see _clone_classes), as a dict from each
    orbit's representative to the number of bases in it.

    Those swaps generate the product of the symmetric groups of the clone
    classes, so two bases share an orbit iff they meet every class in
    equally many elements.  The representative takes the least ones of
    each class, and as every swap maps the family onto itself it is a
    basis.  A family with no clones has every basis as its own orbit.
    """
    classes = [c for c in _clone_classes(ground, family) if c & (c - 1)]
    if not classes:
        return dict.fromkeys(family, 1)
    fixed, prefixes = ground, []
    for c in classes:
        fixed ^= c
        prefix, rest = [0], c
        while rest:
            low = rest & -rest
            rest ^= low
            prefix.append(prefix[-1] | low)
        prefixes.append((c, prefix))
    orbits = {}
    for b in family:
        rep = b & fixed
        for c, prefix in prefixes:
            rep |= prefix[(b & c).bit_count()]
        orbits[rep] = orbits.get(rep, 0) + 1
    return orbits


def _interleave(ground, family, orbits):
    """The N-basis coefficients of F for a loopless family of bases (a set
    of masks) on the elements of the mask ground, kept in place,
    interleaved on the side given, with no switch to the dual.

    orbits maps bases to multiplicities: one representative per orbit of
    _clone_orbits, weighted by the orbit's size, or every basis weighted 1
    (the all-bases route of _qsym_by_interleaving).  An automorphism of the
    family maps a basis's exchange graph onto an isomorphic one, so every
    basis of an orbit has its representative's type counts.  Those depend
    only on its rank and on the multiset of its cobase elements' partner
    masks over the base positions 0..r-1 (its exchange graph, from
    _partner_masks, which base_poset and Matroid.components read too), and
    only up to a renaming of those positions, since a base block may be any
    submask.  So each representative is keyed by its rank and its partner
    masks under the renaming of _relabelled, which sorts them, and each
    class is interleaved once and weighted by the number of its bases.
    Within a shape only the base blocks are listed: a cobase element is
    blocked while one of its partners is unplaced and released after, and
    released elements are interchangeable, so each cobase block is counted
    by its size with a binomial weight (see _basis_type_counts).
    """
    if not ground:
        return {(): 1}
    classes = {}
    for bmask, multiplicity in orbits.items():
        rank = bmask.bit_count()
        partners = _partner_masks(bmask, ground & ~bmask, family)
        key = (rank, _relabelled(rank, partners))
        classes[key] = classes.get(key, 0) + multiplicity
    acc = {}
    for (rank, partners), multiplicity in classes.items():
        for typ, count in _basis_type_counts(rank, partners).items():
            acc[typ] = acc.get(typ, 0) + count * multiplicity
    return acc


def _qsym_by_interleaving(matroid):
    """The invariant with the loops stripped and multiplied back in, and the
    rest interleaved on the side given with every basis weighted 1 (see
    _interleave): the route that duality_check reads on a matroid and on
    its dual, so that the two are computed independently, and the oracle
    of the clone orbits of qsym_of_matroid."""
    union = reduce(or_, matroid._masks)
    acc = _interleave(union, matroid._mask_set, dict.fromkeys(matroid._masks, 1))
    element = QSymElement._trusted("N", acc)
    loops = matroid.n - union.bit_count()
    return nbasis_product(element, QSymElement.single("N", (loops,))) if loops else element


def qsym_of_matroid(matroid):
    """The invariant of a matroid in the N basis: the product over its
    connected components, each interleaved on its smaller side of duality
    over the orbits of its clones.

    F is multiplicative over direct sums (Billera, Jia and Reiner, "A
    quasisymmetric function for matroids", 2009).  Loops and coloops are
    the singleton components, each with invariant N[(1,)], and N[(1,)]^k
    is N[(k,)], so they are multiplied in once.  A larger component C has
    the traces on C of the bases as its bases, interleaved in place on C,
    and a connected matroid keeps its own.  It has no loop or coloop, so
    the F of its dual is its F with every N composition reversed (the
    nbasis_holds of duality_check).  The interleaving costs about 3^r in
    the rank r (see _basis_type_counts), so when 2r exceeds |C| the
    complements in C of its bases are interleaved and every composition is
    reversed.  Either way one basis per orbit of _clone_orbits is
    interleaved, weighted by the size of its orbit.
    """
    factors, singletons = [], 0
    for pmask in matroid._component_masks():
        size = pmask.bit_count()
        if size == 1:
            singletons += 1
            continue
        if size == matroid.n:
            family = matroid._mask_set
        else:
            family = frozenset(map(pmask.__and__, matroid._masks))
        switch = 2 * (matroid._masks[0] & pmask).bit_count() > size
        if switch:
            family = frozenset(map(pmask.__xor__, family))
        acc = _interleave(pmask, family, _clone_orbits(pmask, family))
        if switch:
            acc = {reversal(c): count for c, count in acc.items()}
        factors.append(QSymElement._trusted("N", acc))
    if singletons:
        factors.append(QSymElement._trusted("N", {(singletons,): 1}))
    return reduce(nbasis_product, factors) if factors else QSymElement.one("N")


def loops_coloops_from_qsym(element):
    """Total loop and coloop count read off the N-basis support."""
    best = 0
    for comp in supp(element):
        if len(comp) % 2 == 1 and comp and comp[-1] > best:
            best = comp[-1]
    return best


# ---------------------------------------------------------------------------
# rank-two building blocks


def _t_sum(n, weighted):
    """sum_k w_k T(n, k) over the pairs (k, w_k) in weighted, in closed form:
    (1/2) sum_k w_k on N_(2,n-2) and sum_k w_k binomial(k-1, j) on
    N_(1,j,1,n-2-j) for j >= 1."""
    terms = {drop_zero_parts((2, n - 2)): Fraction(sum(w for _, w in weighted), 2)}
    for k, w in weighted:
        for j in range(1, k):
            key = drop_zero_parts((1, j, 1, n - 2 - j))
            terms[key] = terms.get(key, 0) + w * comb(k - 1, j)
    return QSymElement._trusted("N", terms)


def T_vec(n, k):
    """(1/2) N_(2,n-2) plus binomial(k-1, j) N_(1,j,1,n-2-j) summed over j >= 1."""
    n, k = json_int(n, "T vector degree"), json_int(k, "T vector index")
    if n < 2 or not 1 <= k <= n - 1:
        raise ValidationError("T vector needs n >= 2 and 1 <= k <= n-1")
    return _t_sum(n, [(k, 1)])


def U_vec(n, k):
    return T_vec(n, k).scale(k * (n - k))


def Ubar_vec(n, k):
    """U below the midpoint, zero at it, minus the reflected U above it."""
    n, k = json_int(n, "Ubar vector degree"), json_int(k, "Ubar vector index")
    if n < 2 or not 1 <= k <= n - 1:
        raise ValidationError("Ubar vector needs n >= 2 and 1 <= k <= n-1")
    if 2 * k < n:
        return U_vec(n, k)
    if 2 * k == n:
        return QSymElement.zero("N")
    return U_vec(n, n - k).scale(-1)


def _check_partition(lam, min_parts=2):
    lam = as_composition(lam)
    if list(lam) != sorted(lam, reverse=True):
        raise ValidationError("partition parts must be weakly decreasing")
    if len(lam) < min_parts:
        raise ValidationError(f"partition needs at least {min_parts} parts")
    return lam


def rank2_qsym(lam):
    """Invariant of the loopless rank-two class of a partition: the sum of
    U(n, p) = p(n - p) T(n, p) over its parts p."""
    lam = _check_partition(lam)
    n = weight(lam)
    return _t_sum(n, [(p, p * (n - p)) for p in lam])


def rank2_matroid_from_blocks(blocks):
    """Rank-two matroid whose bases are the pairs across distinct blocks."""
    sets = (_int_set(b, "block element") for b in json_iter(blocks, "blocks"))
    blocks = [b for b in sets if b]
    if len(blocks) < 2:
        raise ValidationError("need at least two parallelism classes")
    elements = sorted(x for b in blocks for x in b)
    n = len(elements)
    if elements != list(range(1, n + 1)):
        raise ValidationError("blocks must partition [n]")
    masks = [
        (1 << (x - 1)) | (1 << (y - 1))
        for i, bi in enumerate(blocks)
        for bj in blocks[i + 1 :]
        for x in bi
        for y in bj
    ]
    return Matroid.from_masks(n, masks)


def _interval_blocks(sizes):
    blocks = []
    start = 1
    for size in sizes:
        blocks.append(frozenset(range(start, start + size)))
        start += size
    return tuple(blocks)


def rank2_from_partition(lam):
    """Canonical representative: consecutive interval blocks, largest first."""
    lam = _check_partition(lam)
    return rank2_matroid_from_blocks(_interval_blocks(lam))


class RankTwoClass(namedtuple("RankTwoClass", "lam blocks", defaults=(None,))):
    """A loopless rank-two isomorphism class, optionally with a concrete
    block assignment on [n] (blocks sorted by size, largest first)."""

    __slots__ = ()

    @classmethod
    def from_blocks(cls, blocks):
        blocks = tuple(
            sorted((frozenset(b) for b in blocks), key=lambda b: (-len(b), min(b)))
        )
        return cls(tuple(len(b) for b in blocks), blocks)

    @property
    def n(self):
        return weight(self.lam)

    def matroid(self):
        blocks = self.blocks if self.blocks is not None else _interval_blocks(self.lam)
        return rank2_matroid_from_blocks(blocks)

    def to_json(self):
        out = {"lambda": list(self.lam)}
        if self.blocks is not None:
            out["blocks"] = [sorted(b) for b in self.blocks]
        return out


class SplitCertificate(namedtuple("SplitCertificate", "subset parent child_le child_ge")):
    """A hyperplane split record: the subset S (a frozenset) with the
    parent class and the two halfspace sides (RankTwoClass records).

    child_le collects the parent bases B with |B & S| <= 1 and child_ge
    those with |B & S| >= 1; their common bases are exactly the equality
    set |B & S| == 1.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "S": sorted(self.subset),
            "parent": self.parent.to_json(),
            "children": [self.child_le.to_json(), self.child_ge.to_json()],
        }


class SplitResult(namedtuple("SplitResult", "alpha beta mu certificate")):
    __slots__ = ()

    def to_json(self):
        return {
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "mu": list(self.mu),
            "certificate": self.certificate.to_json(),
        }


def split(lam_comp, s):
    """Split a rank-two class at position s of a composition arrangement.

    With a the sum of the first s parts and b the rest, the class of the
    composition equals the union of the classes (a, tail...) and
    (head..., b) glued along (a, b); the certificate records the hyperplane
    subset S = {1..a} on the interval representative.
    """
    lam_comp = as_composition(lam_comp)
    s = json_int(s, "split position")
    if len(lam_comp) < 2:
        raise ValidationError("splitting needs at least two parts")
    if not 1 <= s < len(lam_comp):
        raise ValidationError(f"split position must satisfy 1 <= s < {len(lam_comp)}")
    a = sum(lam_comp[:s])
    b = sum(lam_comp[s:])
    alpha = (a,) + lam_comp[s:]
    beta = lam_comp[:s] + (b,)
    mu = (a, b)
    parent_blocks = _interval_blocks(lam_comp)
    subset = frozenset(range(1, a + 1))
    le_blocks = (subset,) + parent_blocks[s:]
    ge_blocks = parent_blocks[:s] + (frozenset(range(a + 1, a + b + 1)),)
    cert = SplitCertificate(
        subset=subset,
        parent=RankTwoClass.from_blocks(parent_blocks),
        child_le=RankTwoClass.from_blocks(le_blocks),
        child_ge=RankTwoClass.from_blocks(ge_blocks),
    )
    return SplitResult(alpha=alpha, beta=beta, mu=mu, certificate=cert)


def full_split_to_length3(lam):
    """Repeatedly split a partition with more than three parts into
    length-three partitions (m - 2 of them for m parts).  Each step is
    split(lam, 2) in closed form: beta = (l1, l2, l3 + ... + lm), sorted, is
    put out, and alpha = (l1 + l2, l3, ..., lm), already sorted, goes on."""
    lam = _check_partition(lam, min_parts=3)
    out = []
    while len(lam) > 3:
        out.append(tuple(sorted((lam[0], lam[1], sum(lam[2:])), reverse=True)))
        lam = (lam[0] + lam[1],) + lam[2:]
    return tuple(out) + (lam,)


# ---------------------------------------------------------------------------
# U coordinates, the quotient modulo products, and recovery


def u_coordinates(element):
    """Coordinates of a homogeneous member of the rank-two span over the U
    vectors; returns (n, tuple of n-1 Fractions).

    The rank-two compositions of weight n are N(2,n-2) and the n-2
    compositions N(1,j,1,n-2-j), and the n-1 U vectors span them, so every
    member has coordinates.  With s_k = t_k k(n-k) the coefficient of
    N(1,j,1,n-2-j) is c_j = sum_{k>j} s_k C(k-1,j), which binomial inversion
    solves as s_{i+1} = sum_{j>=i} (-1)^(j-i) C(j,i) c_j; the coefficient
    e of N(2,n-2) is (1/2) sum_k s_k, so s_1 = 2e - sum_{k>=2} s_k.  The
    solve runs on int numerators over the common denominator D of the
    coefficients, and t_k = s_k / (k(n-k) D) is the one Fraction made per
    coordinate.
    """
    q = convert(element, "N")
    if not q:
        raise ValidationError("the zero element has no U coordinates")
    n = q.degree()
    if n < 2 or not in_Vnr(q, n, 2):
        raise ValidationError("element does not lie in the rank-two span")
    denom, numerators = _scaled(q)
    c = [0] + [numerators.get(drop_zero_parts((1, j, 1, n - 2 - j)), 0) for j in range(1, n - 1)]
    s = [0, 0]
    for i in range(1, n - 1):
        s.append(sum((-1) ** (j - i) * comb(j, i) * c[j] for j in range(i, n - 1)))
    s[1] = 2 * numerators.get(drop_zero_parts((2, n - 2)), 0) - sum(s[2:])
    return n, tuple(Fraction(s[k], k * (n - k) * denom) for k in range(1, n))


def mod_m2(element):
    """Class of a rank-two-span element modulo products: coordinates on the
    Ubar vectors indexed by 1 <= k < n/2."""
    n, t = u_coordinates(element)
    return {k: t[k - 1] - t[n - k - 1] for k in range(1, (n + 1) // 2)}


def ubar_coordinates_of_partition(lam):
    """Closed-form Ubar coordinates of a rank-two class, as ints: for each
    1 <= k < n/2, the parts equal to k less the parts equal to n - k."""
    lam = _check_partition(lam)
    n = weight(lam)
    coords = dict.fromkeys(range(1, (n + 1) // 2), 0)
    for part in lam:
        if 2 * part < n:
            coords[part] += 1
        elif 2 * part > n:
            coords[n - part] -= 1
    return coords


class RankTwoRecovery(
    namedtuple("RankTwoRecovery", "n loops coloops lam case", defaults=("no-coloops",))
):
    """Result of reading a rank-two matroid back off its invariant.

    lam is the partition indexing the loopless part (a partition of
    n - loops), so the matroid is that class plus the stated loops; the
    coloop count is determined by lam's singleton parts.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "n": self.n,
            "loops": self.loops,
            "coloops": self.coloops,
            "case": self.case,
            "lambda": list(self.lam),
        }


def recover_rank2(element):
    """Recover (loops, coloops, partition) from the invariant of a rank-two
    matroid, validating the reconstruction exactly."""
    q = convert(element, "N")
    if not q:
        raise ValidationError("not a rank-two invariant: zero element")
    degs = q.degrees()
    if len(degs) != 1:
        raise ValidationError("not a rank-two invariant: mixed degrees")
    n = degs[0]
    if n < 2:
        raise ValidationError("not a rank-two invariant: degree below two")
    c = loops_coloops_from_qsym(q)
    if c == n:
        if q != QSymElement.single("N", (n,)):
            raise ValidationError("not a rank-two invariant")
        return RankTwoRecovery(
            n=n, loops=n - 2, coloops=2, lam=(1, 1), case="two-coloops-plus-loops"
        )
    try:
        reduced = divide_by_pure_power(q, c) if c else q
    except NotDivisibleError as exc:
        raise ValidationError(f"not a rank-two invariant: {exc}") from exc
    m = n - c
    if in_Vnr(reduced, m, 1):
        expected = QSymElement.single("N", drop_zero_parts((1, m - 1)), m)
        if c == 0 or m < 2 or reduced != expected:
            raise ValidationError("not a rank-two invariant")
        return RankTwoRecovery(
            n=n, loops=c - 1, coloops=1, lam=(m, 1), case="one-coloop"
        )
    if not in_Vnr(reduced, m, 2):
        raise ValidationError("not a rank-two invariant")
    _, t = u_coordinates(reduced)
    parts = []
    for k in range(1, m):
        tk = t[k - 1]
        if tk < 0 or Fraction(tk).denominator != 1:
            raise ValidationError("not a rank-two invariant")
        parts.extend([k] * int(tk))
    lam = tuple(sorted(parts, reverse=True))
    # u_coordinates proved reduced == sum_k t_k U(m, k), which is
    # rank2_qsym(lam) once lam has weight m
    if len(lam) < 2 or weight(lam) != m:
        raise ValidationError("not a rank-two invariant")
    return RankTwoRecovery(n=n, loops=c, coloops=0, lam=lam, case="no-coloops")


def recover_rank2_modm2(coords, n):
    """Recover a partition with at least three parts from its Ubar class.

    Positive coordinates give parts below n/2, negative ones give the
    reflected parts above n/2, and a single missing part equal to n/2 is
    restored from the weight.  coords maps each index, an int, to its
    coordinate, an int or a Fraction; bools, floats and strings are
    rejected, never converted.
    """
    n = json_int(n, "the degree")
    parts = []
    try:
        coords = dict(coords)
    except (TypeError, ValueError):
        raise ValidationError(f"coordinates must map indices to values, got {coords!r}") from None
    seen = {}
    for k, value in coords.items():
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ValidationError(f"a coordinate must be an int or a Fraction, got {value!r}")
        seen[json_int(k, "coordinate index")] = value
    for k in range(1, (n + 1) // 2):
        value = Fraction(seen.pop(k, 0))
        if value.denominator != 1:
            raise ValidationError("inconsistent coordinates: non-integer entry")
        value = int(value)
        if value >= 0:
            parts.extend([k] * value)
        else:
            parts.extend([n - k] * (-value))
    if any(v for v in seen.values()):
        raise ValidationError("inconsistent coordinates: unknown index")
    missing = n - sum(parts)
    if missing:
        if n % 2 == 0 and missing == n // 2:
            parts.append(n // 2)
        else:
            raise ValidationError("inconsistent coordinates: weight mismatch")
    lam = tuple(sorted(parts, reverse=True))
    if len(lam) < 3:
        raise ValidationError("inconsistent coordinates: fewer than three parts")
    return lam


# ---------------------------------------------------------------------------
# geometric decompositions of rank-two base polytopes


class GeomDecomposition(
    namedtuple("GeomDecomposition", "root representatives splits verified")
):
    __slots__ = ()

    def to_json(self):
        return {
            "root": self.root.to_json(),
            "representatives": [r.to_json() for r in self.representatives],
            "splits": [s.to_json() for s in self.splits],
            "verified": self.verified,
        }


def _find_matching_pair(items, n):
    for i in range(len(items)):
        for j in range(len(items)):
            if i == j:
                continue
            for k in sorted(set(items[i][1])):
                if 1 < k < n - 1 and (n - k) in items[j][1]:
                    return i, j, k
    return None


def _split_representative(tau_rep, mu, nu, k, n):
    """Invert one merge: carve the representative of the merged class into
    representatives of mu (keeps a block of size k) and nu (size n-k)."""
    mu_minus = list(mu)
    mu_minus.remove(k)
    nu_minus = list(nu)
    nu_minus.remove(n - k)
    available = list(tau_rep.blocks)
    mu_origin = []
    for size in sorted(mu_minus, reverse=True):
        idx = next(i for i, b in enumerate(available) if len(b) == size)
        mu_origin.append(available.pop(idx))
    nu_origin = available
    if sorted(map(len, nu_origin), reverse=True) != sorted(nu_minus, reverse=True):
        raise ValidationError("merged class does not match the pair being split")
    s_subset = frozenset(x for b in mu_origin for x in b)
    merged_for_mu = frozenset(x for b in nu_origin for x in b)
    mu_rep = RankTwoClass.from_blocks(tuple(mu_origin) + (merged_for_mu,))
    nu_rep = RankTwoClass.from_blocks(tuple(nu_origin) + (s_subset,))
    cert = SplitCertificate(
        subset=s_subset, parent=tau_rep, child_le=nu_rep, child_ge=mu_rep
    )
    return mu_rep, nu_rep, cert


def _class_equation_holds(lam, members):
    """True iff the Ubar classes of the members sum to the class of lam."""
    target = ubar_coordinates_of_partition(lam)
    total = dict.fromkeys(target, 0)
    for m in members:
        for k, v in ubar_coordinates_of_partition(m).items():
            total[k] += v
    return total == target


def geom_decompose(lam, members):
    """Realize a class equation as an actual base polytope decomposition.

    Given a partition with at least three parts and a multiset of such
    partitions whose Ubar classes sum to its class, produce concrete block
    assignments on [n] whose polytopes decompose the canonical interval
    representative, together with the split certificates, verified at the
    vertex level.
    """
    lam = _check_partition(lam, min_parts=3)
    n = weight(lam)
    members = [_check_partition(m, min_parts=3) for m in json_iter(members, "members")]
    if any(weight(m) != n for m in members):
        raise ValidationError("all partitions must have the same weight")
    if not _class_equation_holds(lam, members):
        raise ValidationError("class equation fails modulo products")
    items = [(i, m) for i, m in enumerate(members)]
    next_id = len(members)
    events = []
    while len(items) > 1:
        found = _find_matching_pair(items, n)
        if found is None:
            raise ValidationError("no matching pair; the class equation is not valid")
        i, j, k = found
        id_mu, mu = items[i]
        id_nu, nu = items[j]
        merged = list(mu) + list(nu)
        merged.remove(k)
        merged.remove(n - k)
        tau = tuple(sorted(merged, reverse=True))
        events.append((id_mu, id_nu, next_id, k, mu, nu, tau))
        items = [it for idx, it in enumerate(items) if idx not in (i, j)]
        items.append((next_id, tau))
        next_id += 1
    final_id, final = items[0]
    if final != lam:
        raise ValidationError("class equation does not reduce to the target class")
    root = RankTwoClass.from_blocks(_interval_blocks(lam))
    reps = {final_id: root}
    certs = []
    for id_mu, id_nu, id_tau, k, mu, nu, tau in reversed(events):
        tau_rep = reps.pop(id_tau)
        mu_rep, nu_rep, cert = _split_representative(tau_rep, mu, nu, k, n)
        reps[id_mu] = mu_rep
        reps[id_nu] = nu_rep
        certs.append(cert)
    representatives = tuple(reps[i] for i in range(len(members)))
    ok, _reason = verify_polytope_decomposition(
        root.matroid(), [r.matroid() for r in representatives], certs
    )
    return GeomDecomposition(
        root=root,
        representatives=representatives,
        splits=tuple(certs),
        verified=ok,
    )


def verify_polytope_decomposition(parent, parts, certificates):
    """Vertex and halfspace level checks of a decomposition, on base masks.

    Checks that the parts' bases cover the parent's bases from inside, that
    every recorded split puts exactly the <=1 and >=1 halfspace bases on its
    two sides, so that their intersection is the equality set, that this
    set satisfies the exchange axiom, and so does every pairwise
    intersection of parts.  Returns (ok, reason) with reason None on
    success.
    """
    parent_bases = parent._mask_set
    union = set()
    for i, part in enumerate(parts):
        if part.n != parent.n:
            return False, f"part {i} lives on a different ground set"
        if not part._mask_set <= parent_bases:
            return False, f"part {i} has a basis outside the parent"
        union |= part._mask_set
    if union != parent_bases:
        return False, "parts do not cover all parent bases"
    for idx, cert in enumerate(certificates):
        subset = _mask_of(cert.subset)
        cert_parent = cert.parent.matroid()._masks
        le_expected = {b for b in cert_parent if (b & subset).bit_count() <= 1}
        ge_expected = {b for b in cert_parent if b & subset}
        if cert.child_le.matroid()._mask_set != le_expected:
            return False, f"split {idx}: <=1 side mismatch"
        if cert.child_ge.matroid()._mask_set != ge_expected:
            return False, f"split {idx}: >=1 side mismatch"
        if not exchange_valid(le_expected & ge_expected):
            return False, f"split {idx}: equality set is not a matroid"
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not exchange_valid(parts[i]._mask_set & parts[j]._mask_set):
                return False, f"parts {i} and {j} intersect in a non-matroid"
    return True, None


def polytope_dim(matroid):
    """Dimension of the base polytope: n minus the number of components."""
    return matroid.n - len(matroid.components())


def polytope_edge(matroid, basis1, basis2):
    """True iff the two bases differ by a single exchange."""
    b1, b2 = _basis_mask(matroid, basis1), _basis_mask(matroid, basis2)
    if b1 is None or b2 is None:
        raise ValidationError("both arguments must be bases")
    return (b1 ^ b2).bit_count() == 2


# ---------------------------------------------------------------------------
# the semigroup of classes modulo products


def hilbert_basis_check(n):
    """Check that the length-three classes generate minimally.

    Verifies (a) length-three classes are pairwise distinct, (b) none is a
    sum of two or more classes, using the linear functional sending the
    k-th Ubar vector to n - 2k (twice n/2 - k, so it stays integral), under
    which every class of a length-m partition takes the value (m-2) n, so
    any sum of at least two generators is too large, and (c) every longer
    class decomposes into length-three classes by repeated splitting.  The
    bound decides (b), so no sum is searched for and counterexample is
    always None.
    """
    n = json_int(n, "the degree")
    if n < 3:
        raise ValidationError("the semigroup check needs n >= 3")
    gens = [lam for lam in partitions(n, min_parts=3) if len(lam) == 3]
    vectors = {lam: ubar_coordinates_of_partition(lam) for lam in gens}

    def as_tuple(vec):
        return tuple(vec[k] for k in sorted(vec))

    distinct = len({as_tuple(v) for v in vectors.values()}) == len(gens)

    phi = [sum((n - 2 * k) * v for k, v in vec.items()) for vec in vectors.values()]
    bound = n // min(phi)
    indecomposable = bound == 1
    longer = [lam for lam in partitions(n, min_parts=4)]
    decompositions = {}
    all_decompose = True
    for lam in longer:
        parts3 = full_split_to_length3(lam)
        ok = _class_equation_holds(lam, parts3)
        all_decompose = all_decompose and ok
        decompositions[lam] = {"summands": [list(m) for m in parts3], "valid": ok}
    return {
        "n": n,
        "generators": [list(g) for g in gens],
        "pairwise_distinct": distinct,
        "indecomposable": indecomposable,
        "sum_bound": bound,
        "counterexample": None,
        "longer_classes_decompose": all_decompose,
        "decompositions": {str(list(k)): v for k, v in decompositions.items()},
        "passed": distinct and indecomposable and all_decompose,
    }


# ---------------------------------------------------------------------------
# duality


def duality_check(matroid):
    """Compare the invariant of the dual with the part-reversal transforms.

    The monomial-basis reversal always holds; the N-basis reversal needs a
    loopless and coloop-free matroid (the precondition flag records this and
    the check is still evaluated).  For loopless matroids the rank-space
    shift of the dual is checked as well.
    """
    f = _qsym_by_interleaving(matroid)
    fd = _qsym_by_interleaving(matroid.dual())
    fm = convert(f, "M")
    fdm = convert(fd, "M")
    monomial_holds = fdm.terms == {reversal(c): v for c, v in fm.terms.items()}
    nbasis_holds = fd.terms == {reversal(c): v for c, v in f.terms.items()}
    loops = len(matroid.loops())
    coloops = len(matroid.coloops())
    vshift_holds = None
    if loops == 0:
        vshift_holds = in_Vnr(fd, matroid.n, matroid.n - matroid.rank + coloops)
    return {
        "monomial_holds": monomial_holds,
        "nbasis_holds": nbasis_holds,
        "nbasis_precondition_ok": loops == 0 and coloops == 0,
        "vshift_holds": vshift_holds,
    }


# ---------------------------------------------------------------------------
# sampling


def sample_loopless_matroid(rng, n):
    """Random exchange-valid loopless matroid on [n].

    Starts from a uniform matroid of random positive rank and deletes random
    bases one at a time, keeping a deletion only if the family stays
    exchange-valid (checked incrementally, see _deletion_keeps_exchange)
    and loopless.
    """
    n = json_int(n, "ground set size")
    if n < 1:
        raise ValidationError("sampling needs n >= 1")
    r = rng.randint(1, max(1, n - 1)) if n > 1 else 1
    masks = Matroid.uniform(r, n)._masks
    full = (1 << n) - 1
    goal = rng.randint(0, len(masks) - 1)
    order = list(masks)
    rng.shuffle(order)
    current = set(masks)
    deleted = 0
    for candidate in order:
        if deleted >= goal or len(current) == 1:
            break
        trial = current - {candidate}
        if reduce(or_, trial) != full:
            continue
        if _deletion_keeps_exchange(n, trial, candidate):
            current = trial
            deleted += 1
    return Matroid.from_masks(n, current)
