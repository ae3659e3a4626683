"""Labeled posets, linear extension enumeration, and induced decompositions.

A labeled poset is a strict partial order on a finite set of distinct
positive integer labels.  The quasisymmetric function of a poset sums the
fundamental basis element of the run composition of every linear extension.
"""

from .compositions import (
    as_composition,
    as_ordered_partition,
    as_set_partition,
    induced_partition_by_set_partition,
    json_int,
    json_iter,
    runs,
)
from .elements import QSymElement
from .errors import ResourceLimitError, ValidationError

DEFAULT_ENUMERATION_LIMIT = 12


class LabeledPoset:
    """Immutable strict partial order on positive integer labels.

    The order is stored once: labels ascending, and below_masks[i] the set
    of labels strictly below labels[i] as a bitmask over label positions
    (bit j for labels[j]).  Covers and order queries are read off the masks.
    """

    __slots__ = ("labels", "below_masks")

    def __init__(self, labels, relations=()):
        labels = sorted({json_int(x, "poset labels") for x in json_iter(labels, "poset labels")})
        if any(x < 1 for x in labels):
            raise ValidationError("labels must be positive integers")
        index = {x: i for i, x in enumerate(labels)}
        masks = [0] * len(labels)
        for pair in json_iter(relations, "poset relations"):
            try:
                lo, hi = pair
            except (TypeError, ValueError):
                raise ValidationError(f"a relation must be a pair of labels, got {pair!r}") from None
            lo, hi = json_int(lo, "relation endpoints"), json_int(hi, "relation endpoints")
            if lo not in index or hi not in index:
                raise ValidationError(f"relation ({lo},{hi}) uses unknown labels")
            masks[index[hi]] |= 1 << index[lo]
        # transitive closure (Warshall): after round k, a label with
        # labels[k] below it also has everything below labels[k]
        for k in range(len(masks)):
            masks = [m | masks[k] if m >> k & 1 else m for m in masks]
        if any(m >> i & 1 for i, m in enumerate(masks)):
            raise ValidationError("order relation contains a cycle")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "below_masks", tuple(masks))

    def __setattr__(self, name, value):
        raise AttributeError("LabeledPoset is immutable")

    @property
    def n(self):
        return len(self.labels)

    @property
    def covers(self):
        """The pairs (lo, hi) with lo below hi but below nothing below hi."""
        labels, masks = self.labels, self.below_masks
        covers = set()
        for hi, below in zip(labels, masks):
            deeper = 0
            for j, below_j in enumerate(masks):
                deeper |= below_j if below >> j & 1 else 0
            covers.update((lo, hi) for j, lo in enumerate(labels) if (below & ~deeper) >> j & 1)
        return frozenset(covers)

    def less(self, x, y):
        index = {label: i for i, label in enumerate(self.labels)}
        return x in index and y in index and bool(self.below_masks[index[y]] >> index[x] & 1)

    def __eq__(self, other):
        return (
            isinstance(other, LabeledPoset)
            and self.labels == other.labels
            and self.below_masks == other.below_masks
        )

    def __hash__(self):
        return hash((self.labels, self.below_masks))

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


def _partition_of_labels(poset, set_partition):
    """The set partition as a frozenset of blocks that partition the poset labels."""
    blocks = as_set_partition(set_partition)
    if sorted(x for b in blocks for x in b) != list(poset.labels):
        raise ValidationError("set partition must partition the poset labels")
    return blocks


def decompose_by(poset, set_partition):
    """The set of ordered partitions induced on the linear extensions,
    enumerated under linear_extensions' default size cap."""
    blocks = _partition_of_labels(poset, set_partition)
    return {induced_partition_by_set_partition(ext, blocks) for ext in linear_extensions(poset)}


def is_antichain_inducing(poset, set_partition):
    """True iff every block of every induced ordered partition is an antichain.

    That holds iff no cover relation has both ends in one block, so no
    linear extension is listed and there is no size cap.
    - Suppose y covers x in one block.  The labels w < y with not x <= w
      form a down-set; an extension that lists them first, then x, then y,
      puts x and y side by side, so in one segment.
    - Conversely, suppose comparable a < b lie in one segment.  Every
      element of a maximal chain from a to b lies between them in the word,
      so in that segment and block, and so does the chain's first cover.
    """
    block_of = {x: block for block in _partition_of_labels(poset, set_partition) for x in block}
    return all(block_of[lo] != block_of[hi] for lo, hi in poset.covers)


def labeling_kind(poset):
    """Classify as 'strict', 'natural', 'both' (antichain) or 'neither'."""
    covers = poset.covers
    strict = all(lo > hi for lo, hi in covers)
    natural = all(lo < hi for lo, hi in covers)
    if strict and natural:
        return "both"
    return "strict" if strict else "natural" if natural else "neither"
