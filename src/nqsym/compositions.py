"""Compositions, generalized permutations, segmentations, and set partitions.

Conventions used throughout the package:

* a composition is a tuple of positive integers, the empty tuple () being
  the unique composition of weight 0;
* a permutation is a tuple of pairwise distinct positive integers (one-line
  notation), not necessarily a permutation of 1..n;
* an ordered partition is a tuple of pairwise disjoint nonempty frozensets;
* a set partition is a frozenset of pairwise disjoint nonempty frozensets.
"""

from functools import lru_cache
from itertools import permutations as _permutations, product as _product
from operator import eq, lt

from .errors import ValidationError


# ---------------------------------------------------------------------------
# compositions


def as_composition(parts):
    """Validate a composition as a tuple of positive ints.

    A part that is not an int (a bool, float or string) is rejected, never
    converted, so nothing is silently truncated.
    """
    comp = parts if type(parts) is tuple else tuple(json_iter(parts, "composition"))
    for p in comp:
        if type(p) is not int:
            raise ValidationError(f"composition parts must be integers, got {p!r}")
        if p < 1:
            raise ValidationError(f"composition parts must be >= 1, got {comp}")
    return comp


def drop_zero_parts(parts):
    """Normalize formula output that may contain zero parts, e.g. (2, 0) -> (2,).

    Parts must be ints, as in as_composition; nothing is converted.
    """
    comp = tuple(parts)
    for p in comp:
        if type(p) is not int:
            raise ValidationError(f"composition parts must be integers, got {p!r}")
        if p < 0:
            raise ValidationError(f"parts must be >= 0, got {comp}")
    return tuple(p for p in comp if p)


def weight(comp):
    """Sum of the parts."""
    return sum(comp)


def rank(comp):
    """Sum of the odd-indexed parts (1-based): comp[0] + comp[2] + ..."""
    return sum(comp[0::2])


def reversal(comp):
    """Parts in reverse order."""
    return tuple(reversed(comp))


def composition_to_subset(comp):
    """Partial sums excluding the total, as a frozenset of {1..weight-1}."""
    out = []
    acc = 0
    for part in as_composition(comp)[:-1]:
        acc += part
        out.append(acc)
    return frozenset(out)


def subset_to_composition(subset, n):
    """Inverse of composition_to_subset for subsets of [n-1]; n must be an
    int >= 0 and the subset a collection of ints."""
    if json_int(n, "the subset's weight n") < 0:
        raise ValidationError(f"the subset's weight n must be >= 0, got {n}")
    s = sorted(json_int(x, "subset elements") for x in json_iter(subset, "subset"))
    if any(not 1 <= x <= n - 1 for x in s):
        raise ValidationError(f"subset {s} is not contained in [{n - 1}]")
    prev = 0
    parts = []
    for x in s:
        parts.append(x - prev)
        prev = x
    if n:
        parts.append(n - prev)
    return tuple(parts)


def refines(fine, coarse):
    """True iff `fine` refines `coarse` (equal weight, coarse cut points kept)."""
    fine, coarse = as_composition(fine), as_composition(coarse)
    if weight(fine) != weight(coarse):
        return False
    return composition_to_subset(coarse) <= composition_to_subset(fine)


def compositions(n):
    """All compositions of weight n (2^(n-1) of them for n >= 1)."""
    if n < 0:
        raise ValidationError("weight must be >= 0")
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def partitions(n, min_parts=0):
    """Weakly decreasing compositions of n with at least min_parts parts."""

    def gen(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for lam in gen(n, n if n else 1):
        if len(lam) >= min_parts:
            yield lam


def binary_word(comp):
    """The word with comp[0] zeros, comp[1] ones, comp[2] zeros, alternating."""
    return "".join(("0" if i % 2 == 0 else "1") * p for i, p in enumerate(as_composition(comp)))


@lru_cache(maxsize=None)
def term_order_key(comp):
    """Canonical global sort key: by weight, then binary word order.

    The key is one int: 0 for (), else 2^(n-1) plus the binary word of
    weight n read as a number, its first letter most significant.  That
    first letter is always a zero, so a word of weight n gives a key in
    [2^(n-1), 2^n), and keys of equal weight compare as their words.  Keys
    never change, so they are memoised; comp must be a tuple.
    """
    if not comp:
        return 0
    word = 0
    for i, p in enumerate(comp):
        word <<= p
        if i % 2:
            word |= (1 << p) - 1
    return word | 1 << sum(comp) - 1


def triangular_order_key(comp):
    """Sort key: by length, then lexicographically with larger parts first.

    This order extends refinement (a strict refinement is strictly longer)
    and makes the ascent-run expansion of the N basis unitriangular: every
    extension of the alternately labeled poset of `comp` has an ascent-run
    composition that is either longer than `comp` or of equal length and
    lexicographically at most `comp`, with equality exactly once.
    """
    return (len(comp), tuple(-p for p in comp))


# ---------------------------------------------------------------------------
# permutations and run-length statistics


def as_permutation(entries):
    """Validate a permutation as a tuple of distinct positive ints; a bool,
    float or string entry is rejected, never converted."""
    perm = tuple(json_int(x, "permutation entries") for x in json_iter(entries, "permutation"))
    if any(x < 1 for x in perm):
        raise ValidationError("permutation entries must be positive")
    if len(set(perm)) != len(perm):
        raise ValidationError(f"permutation entries must be distinct, got {perm}")
    return perm


def _run_lengths(seq, continues):
    """Lengths of the maximal runs of a nonempty sequence, a run going on
    while continues(previous, next) holds."""
    parts = []
    current = 1
    for goes_on in map(continues, seq, seq[1:]):
        if goes_on:
            current += 1
        else:
            parts.append(current)
            current = 1
    parts.append(current)
    return tuple(parts)


def runs(perm):
    """Composition of lengths of maximal increasing runs of the one-line word."""
    if not perm:
        raise ValidationError("runs undefined for the empty permutation")
    return _run_lengths(perm, lt)


def ascent_word(perm):
    """The 0/1 word with digit i equal to 1 iff i == 1 or perm[i-2] < perm[i-1]."""
    if not perm:
        raise ValidationError("ascent word undefined for the empty permutation")
    return "1" + "".join("1" if a < b else "0" for a, b in zip(perm, perm[1:]))


def rho(perm):
    """Run lengths of maximal blocks of equal digits in the ascent word."""
    return _run_lengths(ascent_word(perm), eq)


def runs_to_rho(comp):
    """Translate an increasing-run composition to its ascent-word run lengths."""
    comp = as_composition(comp)
    if not comp:
        raise ValidationError("runs_to_rho undefined for the empty composition")
    word = "1" * comp[0] + "".join("0" + "1" * (p - 1) for p in comp[1:])
    return _run_lengths(word, eq)


def rho_to_runs(comp):
    """Inverse of runs_to_rho: ascent-word run lengths back to increasing runs."""
    word = "".join(("1" if i % 2 == 0 else "0") * p for i, p in enumerate(comp))
    n = len(word)
    descents = [i for i in range(1, n) if word[i] == "0"]
    return subset_to_composition(descents, n)


# ---------------------------------------------------------------------------
# ordered and unordered set partitions


def as_ordered_partition(blocks):
    return tuple(_checked_blocks(blocks, "ordered partition"))


def as_set_partition(blocks):
    return frozenset(_checked_blocks(blocks, "set partition"))


def _checked_blocks(blocks, what):
    """The blocks as nonempty, pairwise disjoint frozensets of positive ints;
    a partition or block that is no collection is rejected under its name."""
    parts = [
        frozenset(json_int(x, "block elements") for x in json_iter(block, "a block"))
        for block in json_iter(blocks, what)
    ]
    seen = set()
    for block in parts:
        if not block:
            raise ValidationError("blocks must be nonempty")
        if any(x < 1 for x in block):
            raise ValidationError("block elements must be positive integers")
        if block & seen:
            raise ValidationError("blocks must be pairwise disjoint")
        seen |= block
    return parts


def partition_type(ordered_partition):
    """Block sizes as a composition."""
    return tuple(len(block) for block in ordered_partition)


def segment(perm, typ):
    """Chop the one-line word into consecutive segments of lengths typ[i]."""
    typ = as_composition(typ)
    if weight(typ) != len(perm):
        raise ValidationError(
            f"type weight {weight(typ)} does not match permutation length {len(perm)}"
        )
    out = []
    pos = 0
    for part in typ:
        out.append(tuple(perm[pos : pos + part]))
        pos += part
    return tuple(out)


def fibre(ordered_partition):
    """All permutations whose induced partition of this type is the given one.

    These are exactly the concatenations of arbitrary orderings of each
    block, so there are prod |K_i|! of them.  Deterministic order.
    """
    per_block = [sorted(block) for block in ordered_partition]
    for choice in _product(*(_permutations(block) for block in per_block)):
        yield tuple(x for seg in choice for x in seg)


def induced_partition_by_set_partition(perm, set_partition):
    """Coarsest segmentation of perm with every segment inside a block.

    Greedy left to right: a segment extends while the next entry stays in
    the same block of the partition.
    """
    block_of = {}
    for block in set_partition:
        for x in block:
            block_of[x] = block
    support = set(perm)
    if set(block_of) != support:
        raise ValidationError("set partition must partition the permutation support")
    segments = []
    for x in perm:
        if segments and block_of[x] == block_of[segments[-1][-1]]:
            segments[-1].append(x)
        else:
            segments.append([x])
    return tuple(frozenset(seg) for seg in segments)


def is_alternating(ordered_partition):
    """Between blocks i and i+1 (1-based): all up if i even, all down if i odd."""
    blocks = ordered_partition
    for i in range(len(blocks) - 1):
        left, right = blocks[i], blocks[i + 1]
        if i % 2 == 0:
            # 1-based index i+1 is odd, require every left > every right
            if not (min(left) > max(right)):
                return False
        else:
            if not (max(left) < min(right)):
                return False
    return True


# ---------------------------------------------------------------------------
# JSON codecs (arrays of ints / arrays of arrays)


def json_int(value, what):
    """An integer, from JSON or the Python API, as an int; bools, floats and
    strings are rejected, never converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def json_iter(value, what):
    """An iterator over a collection from the Python API; a value that is
    no collection at all (an int, say) is rejected under its name."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"{what} must be a collection, got {value!r}") from None


def composition_from_json(data):
    if not isinstance(data, list):
        raise ValidationError("composition JSON must be an array of positive ints")
    return as_composition(json_int(p, "composition parts") for p in data)


def ordered_partition_to_json(ordered_partition):
    return [sorted(block) for block in ordered_partition]


def _blocks_from_json(data, what):
    """Blocks of a partition as lists of ints; every element must be a JSON
    integer."""
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise ValidationError(f"{what} JSON must be an array of arrays")
    return [[json_int(x, "block elements") for x in block] for block in data]


def ordered_partition_from_json(data):
    return as_ordered_partition(_blocks_from_json(data, "ordered partition"))


def set_partition_to_json(set_partition):
    return sorted((sorted(block) for block in set_partition), key=lambda b: b[0])


def set_partition_from_json(data):
    return as_set_partition(_blocks_from_json(data, "set partition"))


def format_composition(comp):
    """Digit string when every part is a single digit, else comma form."""
    if comp and all(p < 10 for p in comp):
        return "".join(str(p) for p in comp)
    if not comp:
        return "0"
    return "(" + ",".join(str(p) for p in comp) + ")"


def parse_composition_text(text):
    """Parse CLI composition input.

    A string containing commas is split on commas; a bare multi-digit string
    is read digit by digit (so "122" means (1,2,2) and "12," means (12,)).
    Every field must be ASCII digits and only one trailing comma may be
    left empty; "0" and the empty string are the empty composition.
    """
    text = text.strip()
    if not text or text == "0":
        return ()
    if "," not in text:
        fields = list(text)
    else:
        fields = text.split(",")
        if not fields[-1]:
            fields.pop()
    if not all(f.isascii() and f.isdigit() for f in fields):
        raise ValidationError(f"cannot parse composition {text!r}")
    return as_composition(int(f) for f in fields)
