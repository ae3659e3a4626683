"""Labeled posets, linear extension enumeration, and induced decompositions.

A labeled poset is a strict partial order on a finite set of distinct
positive integer labels.  The quasisymmetric function of a poset sums the
fundamental basis element of the run composition of every linear extension.
"""

from .compositions import (
    as_composition,
    as_ordered_partition,
    induced_partition_by_set_partition,
    rank,
    runs,
    weight,
)
from .elements import QSymElement
from .errors import ResourceLimitError, ValidationError

DEFAULT_ENUMERATION_LIMIT = 12


class LabeledPoset:
    """Immutable strict partial order on positive integer labels.

    Stores the cover relations plus, per element, the full set of strictly
    smaller elements, so order queries during enumeration are O(1).
    below_masks[i] is that set for labels[i] as a bitmask over label
    positions (bit j for labels[j]).
    """

    __slots__ = ("labels", "covers", "below", "below_masks")

    def __init__(self, labels, relations=()):
        labels = tuple(sorted({int(x) for x in labels}))
        if any(x < 1 for x in labels):
            raise ValidationError("labels must be positive integers")
        below = {x: set() for x in labels}
        for lo, hi in relations:
            lo, hi = int(lo), int(hi)
            if lo not in below or hi not in below:
                raise ValidationError(f"relation ({lo},{hi}) uses unknown labels")
            below[hi].add(lo)
        # transitive closure by repeated sweeps (small posets only)
        changed = True
        while changed:
            changed = False
            for hi in labels:
                extra = set()
                for mid in below[hi]:
                    extra |= below[mid] - below[hi]
                if extra:
                    below[hi] |= extra
                    changed = True
        for x in labels:
            if x in below[x]:
                raise ValidationError("order relation contains a cycle")
        covers = set()
        for hi in labels:
            for lo in below[hi]:
                if not any(lo in below[mid] for mid in below[hi]):
                    covers.add((lo, hi))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "below", {x: frozenset(below[x]) for x in labels})
        object.__setattr__(self, "covers", frozenset(covers))
        index = {x: i for i, x in enumerate(labels)}
        below_masks = tuple(sum(1 << index[lo] for lo in below[x]) for x in labels)
        object.__setattr__(self, "below_masks", below_masks)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledPoset is immutable")

    @property
    def n(self):
        return len(self.labels)

    def less(self, x, y):
        return x in self.below.get(y, frozenset())

    def relations(self):
        for hi, lows in self.below.items():
            for lo in lows:
                yield (lo, hi)

    def is_antichain(self, subset):
        subset = frozenset(subset)
        return all(not (self.below[y] & subset) for y in subset)

    def __eq__(self, other):
        return (
            isinstance(other, LabeledPoset)
            and self.labels == other.labels
            and self.below == other.below
        )

    def __hash__(self):
        return hash((self.labels, frozenset(self.covers)))

    def __repr__(self):
        return f"LabeledPoset(labels={self.labels}, covers={sorted(self.covers)})"

    def to_json(self):
        return {"labels": list(self.labels), "covers": sorted(map(list, self.covers))}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "labels" not in data:
            raise ValidationError("poset JSON needs 'labels' and 'covers'")
        return cls(data["labels"], data.get("covers", ()))


def antichain(labels):
    return LabeledPoset(labels)


def chain(labels):
    """Chain in the listed order: labels[0] < labels[1] < ..."""
    labels = list(labels)
    return LabeledPoset(labels, list(zip(labels, labels[1:])))


def relabeled(poset, mapping):
    """Apply an injective label mapping, keeping all order relations."""
    mapping = {int(k): int(v) for k, v in mapping.items()}
    if set(mapping) != set(poset.labels):
        raise ValidationError("mapping must cover exactly the poset labels")
    if len(set(mapping.values())) != len(mapping):
        raise ValidationError("mapping must be injective")
    return LabeledPoset(
        mapping.values(), [(mapping[lo], mapping[hi]) for lo, hi in poset.covers]
    )


def ordinal_sum(lower, upper):
    """Everything in `lower` below everything in `upper`; labels must be disjoint."""
    if set(lower.labels) & set(upper.labels):
        raise ValidationError("ordinal sum requires disjoint label sets")
    relations = list(lower.covers) + list(upper.covers)
    relations += [(x, y) for x in lower.labels for y in upper.labels]
    return LabeledPoset(tuple(lower.labels) + tuple(upper.labels), relations)


def disjoint_sum_relabeled(left, right):
    """Disjoint union, canonically relabeled onto 1..|left|+|right|.

    Left labels map order-preservingly onto 1..|left| and right labels onto
    the next block, so relative label order at every cover is kept and the
    quasisymmetric function is the product of the factors'.
    """
    lmap = {x: i + 1 for i, x in enumerate(sorted(left.labels))}
    rmap = {x: i + 1 + len(left.labels) for i, x in enumerate(sorted(right.labels))}
    relations = [(lmap[a], lmap[b]) for a, b in left.covers]
    relations += [(rmap[a], rmap[b]) for a, b in right.covers]
    return LabeledPoset(list(lmap.values()) + list(rmap.values()), relations)


# ---------------------------------------------------------------------------
# linear extensions and F(P)


def linear_extensions(poset, limit=DEFAULT_ENUMERATION_LIMIT):
    """Yield the linear extensions as label tuples, in lexicographic order.

    Backtracks over currently minimal elements in ascending label order.
    Raises ResourceLimitError beyond the size cap, which defaults to 12.
    """
    if poset.n > limit:
        raise ResourceLimitError(
            f"poset on {poset.n} elements exceeds enumeration limit {limit}"
        )
    labels = poset.labels
    below_masks = poset.below_masks
    n = poset.n
    full = (1 << n) - 1

    def backtrack(placed, prefix):
        if placed == full:
            yield tuple(prefix)
            return
        for i in range(n):
            bit = 1 << i
            if placed & bit or (below_masks[i] & ~placed):
                continue
            prefix.append(labels[i])
            yield from backtrack(placed | bit, prefix)
            prefix.pop()

    return backtrack(0, [])


def qsym_of_poset(poset, limit=DEFAULT_ENUMERATION_LIMIT):
    """F(P): sum of fundamental elements of the runs of each linear extension."""
    if poset.n == 0:
        return QSymElement.one("L")
    terms = {}
    for ext in linear_extensions(poset, limit):
        comp = runs(ext)
        terms[comp] = terms.get(comp, 0) + 1
    return QSymElement("L", terms)


# ---------------------------------------------------------------------------
# chain-of-antichains posets


def build_P_alpha(comp):
    """The alternately labeled ordinal sum of antichains with the given sizes.

    The even-indexed antichains (second, fourth, ...) receive labels
    1, 2, ... first, then the odd-indexed ones receive the remaining labels,
    ascending within each antichain.
    """
    comp = as_composition(comp)
    if not comp:
        raise ValidationError("the empty composition has no poset; its element is 1")
    blocks = alternating_antichain_labels(comp)
    return _ordinal_sum_of_blocks(blocks)


def alternating_antichain_labels(comp, offset_even=0, offset_odd=None):
    """Label blocks of the given sizes, even-indexed blocks first.

    Returns a list of label tuples, one per part.  Even-indexed parts
    (1-based second, fourth, ...) take offset_even+1, ... in block order;
    odd-indexed parts take the following integers, by default starting right
    after the even-indexed ones.
    """
    comp = as_composition(comp)
    even_total = weight(comp) - rank(comp)
    if offset_odd is None:
        offset_odd = offset_even + even_total
    blocks = [None] * len(comp)
    nxt = offset_even
    for i in range(1, len(comp), 2):
        blocks[i] = tuple(range(nxt + 1, nxt + 1 + comp[i]))
        nxt += comp[i]
    nxt = offset_odd
    for i in range(0, len(comp), 2):
        blocks[i] = tuple(range(nxt + 1, nxt + 1 + comp[i]))
        nxt += comp[i]
    return blocks


def _ordinal_relations(blocks):
    """Every element of each block below every element of the next."""
    return [(x, y) for lower, upper in zip(blocks, blocks[1:]) for x in lower for y in upper]


def _ordinal_sum_of_blocks(blocks):
    labels = [x for block in blocks for x in block]
    return LabeledPoset(labels, _ordinal_relations(blocks))


def build_P_K(ordered_partition):
    """Ordinal sum of the blocks as antichains, labeled by the elements."""
    ordered_partition = as_ordered_partition(ordered_partition)
    return _ordinal_sum_of_blocks([tuple(sorted(b)) for b in ordered_partition])


# ---------------------------------------------------------------------------
# decompositions induced by a set partition


def induced_ordered_partitions(poset, parts):
    """All ordered partitions induced on linear extensions, enumerated directly.

    `parts` is a sequence of disjoint label sets covering the poset (empty
    parts are allowed and skipped).  A block sequence is induced by some
    linear extension iff blocks are nonempty, each lies inside one part,
    adjacent blocks lie in different parts, and whenever x < y in the poset
    the block of x does not come after the block of y.
    """
    parts = [frozenset(p) for p in parts if p]
    all_labels = [x for p in parts for x in p]
    if sorted(all_labels) != list(poset.labels):
        raise ValidationError("parts must partition the poset labels")
    index = {x: i for i, x in enumerate(poset.labels)}
    n = poset.n
    below_masks = poset.below_masks
    part_masks = []
    for p in parts:
        m = 0
        for x in p:
            m |= 1 << index[x]
        part_masks.append(m)
    full = (1 << n) - 1
    labels = poset.labels

    def to_block(mask):
        return frozenset(labels[i] for i in range(n) if mask & (1 << i))

    out = []

    def rec(remaining, last_part, prefix):
        if not remaining:
            out.append(tuple(prefix))
            return
        for pi, pmask in enumerate(part_masks):
            if pi == last_part:
                continue
            cand = remaining & pmask
            if not cand:
                continue
            # y is placeable only if its unplaced lower set fits in this block
            avail = 0
            for i in range(n):
                bit = 1 << i
                if cand & bit and not (below_masks[i] & remaining & ~cand):
                    avail |= bit
            sub = avail
            while sub:
                ok = True
                for i in range(n):
                    bit = 1 << i
                    if sub & bit and (below_masks[i] & remaining & ~sub):
                        ok = False
                        break
                if ok:
                    prefix.append(to_block(sub))
                    rec(remaining & ~sub, pi, prefix)
                    prefix.pop()
                sub = (sub - 1) & avail

    rec(full, -1, [])
    return out


def decompose_by(poset, set_partition, limit=DEFAULT_ENUMERATION_LIMIT):
    """The set of ordered partitions induced on the linear extensions."""
    blocks = frozenset(frozenset(b) for b in set_partition)
    if sorted(x for b in blocks for x in b) != list(poset.labels):
        raise ValidationError("set partition must partition the poset labels")
    return {
        induced_partition_by_set_partition(ext, blocks)
        for ext in linear_extensions(poset, limit)
    }


def is_antichain_inducing(poset, set_partition, limit=DEFAULT_ENUMERATION_LIMIT):
    """True iff every block of every induced ordered partition is an antichain."""
    return all(
        poset.is_antichain(block)
        for induced in decompose_by(poset, set_partition, limit)
        for block in induced
    )


def labeling_kind(poset):
    """Classify as 'strict', 'natural', 'both' (antichain) or 'neither'."""
    has_relation = False
    strict = True
    natural = True
    for lo, hi in poset.covers:
        has_relation = True
        if lo < hi:
            strict = False
        if lo > hi:
            natural = False
    if not has_relation:
        return "both"
    if strict:
        return "strict"
    if natural:
        return "natural"
    return "neither"


# ---------------------------------------------------------------------------
# the product poset behind the N-basis structure constants


def nbasis_product_poset(left, right):
    """Relabeled disjoint sum of the two chain-of-antichain posets, with the
    two-part label split that makes every induced ordered partition
    alternating.

    Returns (Q, (high_part, low_part)) where high_part collects the labels of
    all odd-indexed antichains of both factors and low_part the even-indexed
    ones (low_part may be empty).  qsym.structure_constants counts the
    induced ordered partitions of Q without building it; listing them
    through induced_ordered_partitions is the test oracle.
    """
    left, right = as_composition(left), as_composition(right)
    if not left or not right:
        raise ValidationError("both compositions must be nonzero")
    even_left = weight(left) - rank(left)
    left_blocks = alternating_antichain_labels(
        left, offset_even=0, offset_odd=even_left + (weight(right) - rank(right))
    )
    right_blocks = alternating_antichain_labels(
        right,
        offset_even=even_left,
        offset_odd=even_left + (weight(right) - rank(right)) + rank(left),
    )
    labels = [x for b in left_blocks for x in b] + [x for b in right_blocks for x in b]
    poset = LabeledPoset(
        labels, _ordinal_relations(left_blocks) + _ordinal_relations(right_blocks)
    )
    high = frozenset(
        x
        for blocks in (left_blocks, right_blocks)
        for b in blocks[0::2]
        for x in b
    )
    low = frozenset(
        x
        for blocks in (left_blocks, right_blocks)
        for b in blocks[1::2]
        for x in b
    )
    return poset, (high, low)
