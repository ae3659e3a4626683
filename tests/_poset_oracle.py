"""Brute-force references for words, induced ordered partitions and the
product poset behind the N-basis structure constants.

The package counts the structure constants block by block without building
the product poset; these oracles build it and list its induced ordered
partitions, which the tests compare with the counts.  The package reads
is_antichain_inducing off the covers; the oracle here lists every linear
extension instead.
"""

from nqsym.compositions import as_composition, binary_word, rank, segment, weight
from nqsym.errors import ValidationError
from nqsym.posets import LabeledPoset, decompose_by


def is_antichain_inducing_by_extensions(poset, set_partition):
    """True iff every block of every ordered partition that set_partition
    induces on a linear extension is an antichain, by listing them all."""
    index = {x: i for i, x in enumerate(poset.labels)}
    below_masks = poset.below_masks

    def is_antichain(block):
        mask = sum(1 << index[x] for x in block)
        return all(not below_masks[index[x]] & mask for x in block)

    return all(
        is_antichain(block)
        for induced in decompose_by(poset, set_partition)
        for block in induced
    )


def binary_word_cmp(a, b):
    """Total order on compositions of equal weight, lex on their binary words."""
    if weight(a) != weight(b):
        raise ValidationError("binary word order compares equal weights only")
    wa, wb = binary_word(a), binary_word(b)
    return (wa > wb) - (wa < wb)


def induced_partition_by_type(perm, typ):
    """Ordered partition whose blocks are the segments of the given type."""
    return tuple(frozenset(seg) for seg in segment(perm, typ))


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


def _label_blocks(comp, low_start, high_start):
    """Antichain blocks of the given sizes, labeled alternately: odd-indexed
    (0-based) blocks take low_start + 1, ... and even-indexed ones
    high_start + 1, ..., each side in block order."""
    blocks = []
    nxt = [high_start, low_start]
    for i, a in enumerate(comp):
        start = nxt[i % 2]
        blocks.append(tuple(range(start + 1, start + 1 + a)))
        nxt[i % 2] += a
    return blocks


def _ordinal_relations(blocks):
    """Every element of each block below every element of the next."""
    return [(x, y) for lower, upper in zip(blocks, blocks[1:]) for x in lower for y in upper]


def nbasis_product_poset(left, right):
    """Relabeled disjoint sum of the two chain-of-antichain posets, with the
    two-part label split that makes every induced ordered partition
    alternating.

    Returns (Q, (high_part, low_part)) where high_part collects the labels of
    all even-indexed (0-based) antichains of both factors and low_part the
    odd-indexed ones (low_part may be empty).  The low labels of both
    factors come first, left before right, then the high labels.
    """
    left, right = as_composition(left), as_composition(right)
    if not left or not right:
        raise ValidationError("both compositions must be nonzero")
    low_left = weight(left) - rank(left)
    low_total = low_left + weight(right) - rank(right)
    left_blocks = _label_blocks(left, 0, low_total)
    right_blocks = _label_blocks(right, low_left, low_total + rank(left))
    labels = [x for b in left_blocks + right_blocks for x in b]
    poset = LabeledPoset(
        labels, _ordinal_relations(left_blocks) + _ordinal_relations(right_blocks)
    )
    high = frozenset(x for blocks in (left_blocks, right_blocks) for b in blocks[0::2] for x in b)
    low = frozenset(x for blocks in (left_blocks, right_blocks) for b in blocks[1::2] for x in b)
    return poset, (high, low)
