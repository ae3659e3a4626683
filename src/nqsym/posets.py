"""Labeled posets, linear extension enumeration, and induced decompositions.

A labeled poset is a strict partial order on a finite set of distinct
positive integer labels.  The quasisymmetric function of a poset sums the
fundamental basis element of the run composition of every linear extension.
"""

from .compositions import (
    as_composition,
    as_ordered_partition,
    induced_partition_by_set_partition,
    json_int,
    runs,
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
        labels = tuple(sorted({json_int(x, "poset labels") for x in labels}))
        if any(x < 1 for x in labels):
            raise ValidationError("labels must be positive integers")
        below = {x: set() for x in labels}
        for lo, hi in relations:
            lo, hi = json_int(lo, "relation endpoints"), json_int(hi, "relation endpoints")
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
        """Read {"labels": [...], "covers": [[lo, hi], ...]}; every label and
        cover endpoint must be a JSON integer, and each cover a pair."""
        if not isinstance(data, dict) or "labels" not in data:
            raise ValidationError("poset JSON needs 'labels' and 'covers'")
        labels, covers = data["labels"], data.get("covers", [])
        if not isinstance(labels, list) or not isinstance(covers, list):
            raise ValidationError("poset 'labels' and 'covers' must be arrays")
        labels = [json_int(x, "poset labels") for x in labels]
        pairs = []
        for cover in covers:
            if not isinstance(cover, list) or len(cover) != 2:
                raise ValidationError(f"each cover must be a pair of labels, got {cover!r}")
            pairs.append(tuple(json_int(x, "cover endpoints") for x in cover))
        return cls(labels, pairs)


def antichain(labels):
    return LabeledPoset(labels)


def chain(labels):
    """Chain in the listed order: labels[0] < labels[1] < ..."""
    labels = list(labels)
    return LabeledPoset(labels, list(zip(labels, labels[1:])))


def relabeled(poset, mapping):
    """Apply an injective label mapping, keeping all order relations."""
    mapping = {
        json_int(k, "mapped labels"): json_int(v, "new labels") for k, v in mapping.items()
    }
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


def qsym_of_poset(poset):
    """F(P): sum of fundamental elements of the runs of each linear extension,
    enumerated under linear_extensions' default size cap."""
    if poset.n == 0:
        return QSymElement.one("L")
    terms = {}
    for ext in linear_extensions(poset):
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


def alternating_antichain_labels(comp):
    """Label blocks of the given sizes, even-indexed blocks first.

    Returns a list of label tuples, one per part.  Even-indexed parts
    (1-based second, fourth, ...) take 1, 2, ... in block order; odd-indexed
    parts take the following integers.
    """
    comp = as_composition(comp)
    blocks = [None] * len(comp)
    nxt = 0
    for start in (1, 0):
        for i in range(start, len(comp), 2):
            blocks[i] = tuple(range(nxt + 1, nxt + 1 + comp[i]))
            nxt += comp[i]
    return blocks


def _ordinal_sum_of_blocks(blocks):
    """Antichain blocks, every element of each below every element of the next."""
    labels = [x for block in blocks for x in block]
    relations = [
        (x, y) for lower, upper in zip(blocks, blocks[1:]) for x in lower for y in upper
    ]
    return LabeledPoset(labels, relations)


def build_P_K(ordered_partition):
    """Ordinal sum of the blocks as antichains, labeled by the elements."""
    ordered_partition = as_ordered_partition(ordered_partition)
    return _ordinal_sum_of_blocks([tuple(sorted(b)) for b in ordered_partition])


# ---------------------------------------------------------------------------
# decompositions induced by a set partition


def decompose_by(poset, set_partition):
    """The set of ordered partitions induced on the linear extensions,
    enumerated under linear_extensions' default size cap."""
    blocks = frozenset(frozenset(b) for b in set_partition)
    if sorted(x for b in blocks for x in b) != list(poset.labels):
        raise ValidationError("set partition must partition the poset labels")
    return {
        induced_partition_by_set_partition(ext, blocks)
        for ext in linear_extensions(poset)
    }


def is_antichain_inducing(poset, set_partition):
    """True iff every block of every induced ordered partition is an antichain."""
    return all(
        poset.is_antichain(block)
        for induced in decompose_by(poset, set_partition)
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
