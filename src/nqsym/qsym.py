"""Quasisymmetric functions in the monomial (M), fundamental (L) and N bases.

The N basis element of a composition is the poset generating function of the
alternately labeled ordinal sum of antichains with those block sizes.  All
coefficients are exact rationals, but every table here holds ints, so the
conversions and products work on int numerators over one common
denominator (the lcm of the input's denominators, or the product of the
factors' for a product) and make Fractions only for the result.

Every basis change works on one dense int vector per degree n, of length
2^(n-1) and indexed by cut mask: bit i is set when a part ends after
position i + 1, so a composition is a word over {a, d}, a for no cut and d
for a cut.  None of them reads a per-degree table.
- M and L: L_S is the sum of the M_T over the cut sets T containing S
  (Gessel 1984), so M to L and L to M are subset-sum transforms, one pass
  per bit.
- N to L and N to M: because the labeling alternates by block, every block
  boundary is always a descent or always an ascent, and the N element of
  (k, beta) is the word product B(k) s N'_beta, where B(k) counts the
  permutations of [k] by run composition (for L) or the ordered set
  partitions of k elements by type (for M), s is the separator and N' has
  the other separator first.  A Horner fold over the first part expands a
  whole element; no word or P-partition is listed.
- L to N: only the identity's word of B(k) has first part k, so a
  recursive left division by the first block, first parts from the largest
  down, solves each degree in int subtractions.  M to N is M to L and then
  the division.
Small degrees use stored rows, one per word, in place of the recursion.

Products run one bilinear loop, in the monomial basis over quasi-shuffles
or directly in the N basis over its structure constants.  Their tables
key each composition by one int, its cut mask with bit weight - 1 also
set (0 for the empty one), so prepending a part is a shift and a bit, and
a product adds its terms into one dict of these ints and names each output
term once, through one session memo that decodes each key on its first
use.  The structure constants are counted block by block with
binomial weights, so the product poset and its induced ordered partitions
are never built; listing them is an oracle in the tests.  Every pair reads
one shared table of block suffixes, keyed symmetrically in the two
factors.

The expansion tables (refinements_of, nbasis_in_fundamental,
structure_constants) return their terms in whatever order they are
built, since every consumer reads them term by term.
Canonical order (weight, then binary word) is applied only at the output
boundary, by QSymElement.sorted_terms, to_json and format_element.
"""

from collections import namedtuple
from functools import lru_cache, wraps
from itertools import accumulate, compress
from math import comb, factorial, lcm
from operator import add, sub

from .compositions import (
    as_composition,
    binary_word,
    compositions,
    json_int,
    rank,
    rho_to_runs,
    triangular_order_key,
    weight,
)
from .elements import QSymElement, TensorElement
from .errors import NotDivisibleError, ValidationError

MONOMIAL, FUNDAMENTAL, NBASIS = "M", "L", "N"


def monomial_element(comp, coeff=1):
    return QSymElement.single("M", comp, coeff)


def fundamental_element(comp, coeff=1):
    return QSymElement.single("L", comp, coeff)


def _composition_keyed(table):
    """The public face of an lru_cached table keyed by compositions.

    Each argument goes through as_composition before the cache lookup, so a
    list is accepted like the rest of the API and a bad part raises
    ValidationError, never a bare TypeError from hashing.  cache_info and
    cache_clear are the table's own.  Callers in this module that already
    hold composition tuples call the table directly.
    """

    @wraps(table)
    def lookup(*comps):
        return table(*map(as_composition, comps))

    lookup.cache_info = table.cache_info
    lookup.cache_clear = table.cache_clear
    return lookup


# ---------------------------------------------------------------------------
# refinements


@lru_cache(maxsize=None)
def _refinements_of(comp):
    """All compositions refining comp, i.e. splitting its parts.

    A refinement splits each part independently, so the refinements are the
    concatenations of one composition of each part.  No conversion reads
    this table: M and L are related by subset sums over cut masks.
    """
    out = [()]
    for part in comp:
        pieces = ordered_compositions(part)
        out = [head + piece for head in out for piece in pieces]
    return tuple(out)


refinements_of = _composition_keyed(_refinements_of)


# ---------------------------------------------------------------------------
# cut-mask vectors

# Degrees up to this one are converted by stored rows, one per word (15 per
# table), instead of level by level: deep in a Horner fold or a division
# most calls land there, and a row sum is cheaper than a level.
_ROW_DEGREE = 4


def _cut_mask(comp):
    """The cut mask of a composition: bit i is set when a part ends after
    position i + 1, so a weight-n composition has a mask below 2^(n-1)."""
    mask, end = 0, -1
    for part in comp[:-1]:
        end += part
        mask |= 1 << end
    return mask


@lru_cache(maxsize=None)
def _mask_compositions(n):
    """The weight-n compositions (n >= 1) indexed by cut mask.  The masks
    with the last cut (after position n - 1) set are the upper half: those
    compositions end in a part 1, and the others extend their last part."""
    if n == 1:
        return ((1,),)
    shorter = _mask_compositions(n - 1)
    return tuple(c[:-1] + (c[-1] + 1,) for c in shorter) + tuple(c + (1,) for c in shorter)


def _key(comp):
    """The int key of a composition: its cut mask with bit weight - 1 also
    set, and 0 for ().  Prepending a part a to the composition of key c
    gives the key c << a | 1 << (a - 1), so the keys of weight n are
    exactly 2^(n-1) plus the cut masks, and every int >= 0 is one key."""
    key = 0
    for part in reversed(comp):
        key = key << part | 1 << (part - 1)
    return key


def _first_part(key):
    """The first part of the composition of a nonzero key: the position of
    its lowest set bit, plus one."""
    return (key & -key).bit_length()


def _composition(key):
    """The composition of an int key, the inverse of _key: each part is the
    distance to the next set bit, read from the lowest."""
    parts = []
    while key:
        part = _first_part(key)
        parts.append(part)
        key >>= part
    return tuple(parts)


class _Names(dict):
    """Compositions by int key, each key decoded once, on its first use.
    The memo lives for the session, like the product tables whose keys it
    names, and hands back the same tuple for every later lookup."""

    def __missing__(self, key):
        comp = self[key] = _composition(key)
        return comp


_NAMES = _Names()


def _by_composition(terms):
    """The (key, value) pairs terms as a dict keyed by composition, zero
    values dropped."""
    return {_NAMES[key]: v for key, v in terms if v}


def _product_table(table):
    """The public face of an int-keyed product table: it takes two
    compositions and returns the table's entry as (composition, count)
    pairs, with the table's own cache_info and cache_clear."""

    @wraps(table)
    def lookup(left, right):
        return tuple(_product_terms(table, left, right).items())

    lookup.cache_info = table.cache_info
    lookup.cache_clear = table.cache_clear
    return lookup


def _product_terms(table, left, right):
    """The entry of an int-keyed product table for two compositions, as a
    dict keyed by composition."""
    return _by_composition(table(_key(as_composition(left)), _key(as_composition(right))))


def _vectors(numerators):
    """Int numerators keyed by composition as one dense list per degree
    n >= 1, of length 2^(n-1) and indexed by cut mask; the scalar part is
    left out."""
    out = {}
    for comp, v in numerators.items():
        if comp:
            n = sum(comp)
            vec = out.get(n)
            if vec is None:
                vec = out[n] = [0] * (1 << (n - 1))
            vec[_cut_mask(comp)] = v
    return out


def _named(vec, n, out):
    """Add the nonzero entries of a degree-n vector to out, by composition."""
    out.update(zip(compress(_mask_compositions(n), vec), filter(None, vec)))


def _apply(levels, vec, n, *args):
    """levels(vec, n, *args), one of the level recursions below; degrees up
    to _ROW_DEGREE read its stored rows instead."""
    if n > _ROW_DEGREE:
        return levels(vec, n, *args)
    out = [0] * len(vec)
    for v, row in zip(vec, _rows(levels, n, *args)):
        if v:
            out = [o + v * r for o, r in zip(out, row)]
    return out


@lru_cache(maxsize=None)
def _rows(levels, n, *args):
    """The matrix of levels(vec, n, *args) in cut-mask order: the images of
    the unit vectors."""
    size = 1 << (n - 1)
    return tuple(
        tuple(levels([int(m == e) for m in range(size)], n, *args))
        for e in range(size)
    )


def _add_product(vec, head, tail, offset, sign=1):
    """Add sign times the word product of head, a separator and tail to
    vec: head[u] * tail[j] goes to u + offset + j * 2^k, where head has
    length 2^(k-1) and offset is 0 for the letter a after position k or
    2^(k-1) for d.  Done as slices over whichever of head and tail is
    shorter."""
    half = len(head)
    step = half << 1
    if len(tail) < half:
        for j, t in enumerate(tail):
            if t:
                t *= sign
                lo = offset + j * step
                vec[lo : lo + half] = [o + t * c for o, c in zip(vec[lo : lo + half], head)]
    else:
        for u, c in enumerate(head):
            c *= sign
            vec[u + offset :: step] = [o + c * t for o, t in zip(vec[u + offset :: step], tail)]


def _subset_sums(vec, op):
    """Set vec[m | bit] = op(vec[m | bit], vec[m]) for each bit in turn, in
    place: with op add this takes L numerators to M ones, since L_S is the
    sum of the M_T with T containing S (Gessel 1984), and with op sub it
    takes M to L.  Each bit is one pass over the vector, as stride slices or
    as contiguous blocks, whichever needs fewer slices."""
    size = len(vec)
    bit = 1
    while bit < size:
        step = bit << 1
        if bit <= size // step:
            for low in range(bit):
                vec[low + bit :: step] = map(op, vec[low + bit :: step], vec[low::step])
        else:
            for start in range(0, size, step):
                top = start + step
                vec[start + bit : top] = map(op, vec[start + bit : top], vec[start : start + bit])
        bit = step


# ---------------------------------------------------------------------------
# the block vectors


@lru_cache(maxsize=None)
def _descent_classes(a):
    """Permutations of [a] counted by run composition, as a vector indexed
    by cut mask.

    Built letter by letter: a word's state is its run composition and the
    relative rank j of its last letter.  Appending a letter of relative
    rank i among k + 1 letters continues the last run when i > j (an
    ascent) and cuts after position k otherwise (a descent).  Listed by
    cut mask, the ascent successors keep their index and the descent ones
    move up by 2^(k-1).  Each state keeps one vector of counts indexed by
    j, so the ascent successor's vector is the prefix sums of it and the
    descent successor's the suffix sums.
    """
    states = [[1]]
    for _ in range(1, a):
        descents = []
        for by_rank in states:
            suffix = [*accumulate(reversed(by_rank))]
            suffix.reverse()
            suffix.append(0)
            descents.append(suffix)
        states = [[0, *accumulate(by_rank)] for by_rank in states] + descents
    return tuple(sum(by_rank) for by_rank in states)


@lru_cache(maxsize=None)
def _level_classes(a):
    """Ordered set partitions of an a-element antichain counted by type, as
    a vector indexed by cut mask: composition c has a!/prod c_i!.

    These are the level-set types of the P-partitions of one block (Gessel
    1984).  Across an ascent the last level of a block may share its value
    with the first level of the next, so the fold into M has the separator
    a + d there.
    """
    out = []
    for comp in _mask_compositions(a):
        count = factorial(a)
        for part in comp:
            count //= factorial(part)
        out.append(count)
    return tuple(out)


# the block vectors of the Horner fold into each basis, and its separators at
# the descent level (0) and at the ascent level (1): True is the letter d (a
# cut), False the letter a, and (False, True) the sum a + d
_FOLDS = {
    "L": (_descent_classes, ((True,), (False,))),
    "M": (_level_classes, ((True,), (False, True))),
}


# ---------------------------------------------------------------------------
# N to L and N to M: a Horner fold


def _horner_levels(vec, n, target, level):
    """The degree-n N numerators vec expanded in basis target, 'L' or 'M',
    by a Horner fold over the first block.

    As words over {a, d} (a: no cut, d: a cut) the N element of (k, beta)
    is B(k) s N'_beta: B(k) is the block vector of k, s the separator of
    this level and N' the element with the levels swapped.  So the terms
    are grouped by first part k, the words with first part k being the
    stride slice [2^(k-1) :: 2^k], whose tails are expanded once at the
    other level and multiplied by B(k).  The first part n is the single
    mask 0, whose expansion is B(n) itself.
    """
    classes, seps = _FOLDS[target]
    x = vec[0]
    out = [x * c for c in classes(n)] if x else [0] * len(vec)
    for k in range(1, n):
        half, step = 1 << (k - 1), 1 << k
        g = vec[half::step]
        if not any(g):
            continue
        tail = _apply(_horner_levels, g, n - k, target, 1 - level)
        for cut in seps[level]:
            _add_product(out, classes(k), tail, half if cut else 0)
    return out


# ---------------------------------------------------------------------------
# L to N: a recursive left division


def _divide_levels(vec, n):
    """L to N at degree n >= 1: the N numerators, in cut-mask order, of the
    L numerators vec, which is consumed, by left division by the first
    block.

    At the descent level the N element of (k, beta) is D(k) d N'_beta,
    D(k) = _descent_classes(k).  Every word of D(k) has first part at most
    k, and only the identity's word, of coefficient 1, has first part k.
    So, first parts from n down, the words with first part k are exactly
    the L vector g of sum_beta x_(k,beta) N'_beta: D(k) d g is subtracted,
    and g solved recursively.  N'_beta is N_beta with every letter
    complemented (reversing a permutation's values maps D(k) onto itself),
    and complementing every mask reverses the list, so g is solved as
    g[::-1] at the descent level.  Every step is an int subtraction; the
    slices of each first part are disjoint, so nothing is left over.
    """
    out = [0] * len(vec)
    x = out[0] = vec[0]
    if x:
        vec = [r - x * c for r, c in zip(vec, _descent_classes(n))]
    for k in range(n - 1, 0, -1):
        half, step = 1 << (k - 1), 1 << k
        g = vec[half::step]
        if not any(g):
            continue
        _add_product(vec, _descent_classes(k), g, half, -1)
        out[half::step] = _apply(_divide_levels, g[::-1], n - k)
    return out


# ---------------------------------------------------------------------------
# the N basis in the fundamental basis


@lru_cache(maxsize=None)
def _nbasis_in_fundamental(comp):
    """L-expansion of the N element: counts of run compositions over all
    interleavings of the alternately labeled antichain blocks.

    Even-indexed (0-based) blocks carry the high labels and odd-indexed
    blocks the low ones, so the boundary after block j is a descent for even
    j and an ascent for odd j.  A word's run composition is then fixed by
    those of its block segments: concatenated across a descent, with the
    touching parts merged across an ascent.  So the expansion is the
    product of the per-block descent classes with separators d, a, d, ...,
    without listing the words: the Horner fold of one unit vector.
    """
    return tuple(convert(QSymElement.single("N", comp), "L").terms.items())


nbasis_in_fundamental = _composition_keyed(_nbasis_in_fundamental)


def n_basis_element(comp):
    """The N element of a composition, expanded in the fundamental basis."""
    return QSymElement._trusted("L", dict(nbasis_in_fundamental(comp)))


@lru_cache(maxsize=None)
def nl_ascent_run_rows(n):
    """The N to L pivot table at degree n, rows already in triangular order.

    Row alpha (an ascent-run composition, rows sorted by
    triangular_order_key) is stored as (alpha, pivot, terms): pivot is
    rho_to_runs(alpha), the run composition whose ascent word has run
    lengths alpha, and terms is nbasis_in_fundamental(alpha), shared with
    that table.  Keyed by ascent-run compositions the N to L matrix has unit
    diagonal and is upper unitriangular in this order, so each row has
    coefficient 1 on its pivot and no later row has that term.  Only
    nl_unitriangular_matrix reads it; no conversion does.
    """
    return tuple(
        (alpha, rho_to_runs(alpha), _nbasis_in_fundamental(alpha))
        for alpha in sorted(compositions(n), key=triangular_order_key)
    )


# ---------------------------------------------------------------------------
# conversion


def _scaled(element):
    """The element's terms as (D, {comp: int numerator}) over the lcm D of
    their denominators.  An integral element is returned as (1, its own
    terms), which the caller must not modify."""
    terms = element.terms
    denom = lcm(*(v.denominator for v in terms.values()))
    if denom == 1:
        return 1, terms
    return denom, {c: v.numerator * (denom // v.denominator) for c, v in terms.items()}


def _in_basis(vec, n, source, target):
    """A degree-n numerator vector of basis source rewritten in basis
    target; vec may be consumed.  The N basis is a Z-basis, so L to N, the
    division, keeps the numerators ints over the same denominator."""
    if source == "N":
        return _apply(_horner_levels, vec, n, target, 0)
    if target == "N":
        return _apply(_divide_levels, _in_basis(vec, n, source, "L"), n)
    if source != target:
        _subset_sums(vec, add if target == "M" else sub)
    return vec


def _numerators_in(element, target):
    """The element in basis target as (D, {comp: int numerator}), one
    vector routine per degree; the scalar part is the same in every
    basis."""
    denom, scaled = _scaled(element)
    if element.basis == target:
        return denom, scaled
    out = {(): scaled[()]} if () in scaled else {}
    for n, vec in _vectors(scaled).items():
        _named(_in_basis(vec, n, element.basis, target), n, out)
    return denom, out


def convert(element, target):
    """Rewrite an element in another basis; the function is unchanged."""
    if target not in ("M", "L", "N"):
        raise ValidationError(f"unknown basis tag {target!r}")
    if element.basis == target:
        return element
    denom, numerators = _numerators_in(element, target)
    return QSymElement._from_numerators(target, numerators, denom)


# ---------------------------------------------------------------------------
# transition matrices


class TransitionMatrix(namedtuple("TransitionMatrix", "n source target order rows")):
    """Dense change-of-basis data for one degree.

    rows[i][j] is the coefficient of target basis element order[j] in the
    expansion of source basis element order[i]; order lists the weight-n
    compositions in binary word order.
    """

    __slots__ = ()

    def entry(self, source_comp, target_comp):
        idx = {c: i for i, c in enumerate(self.order)}
        return self.rows[idx[tuple(source_comp)]][idx[tuple(target_comp)]]

    def as_lists(self):
        return [list(row) for row in self.rows]


@lru_cache(maxsize=None)
def transition_matrix(n, source, target):
    """The literal change-of-basis matrix at degree n, rows and columns in
    binary word order."""
    n = json_int(n, "transition matrix degree")
    if n < 1:
        raise ValidationError("transition matrices are defined for degree >= 1")
    order = ordered_compositions(n)
    rows = []
    for comp in order:
        expanded = convert(QSymElement.single(source, comp), target)
        rows.append(tuple(expanded.terms.get(c, 0) for c in order))
    return TransitionMatrix(n, source, target, order, tuple(rows))


@lru_cache(maxsize=None)
def ordered_compositions(n):
    """Weight-n compositions in binary word order."""
    return tuple(sorted(compositions(n), key=binary_word))


def nl_unitriangular_matrix(n):
    """The ascent-run keyed N to L matrix at degree n as (order, rows).

    Rows and columns are in the pivot table's triangular order, in which
    the matrix is integer upper unitriangular.
    """
    n = json_int(n, "N to L matrix degree")
    if n < 1:
        raise ValidationError("N to L matrices are defined for degree >= 1")
    table = nl_ascent_run_rows(n)
    order = tuple(alpha for alpha, _, _ in table)
    # the column of run composition c is that of the ascent-run composition
    # runs_to_rho(c), the row whose pivot c is
    column = {pivot: j for j, (_, pivot, _) in enumerate(table)}
    rows = []
    for _, _, terms in table:
        row = [0] * len(order)
        for c, v in terms:
            row[column[c]] = v
        rows.append(tuple(row))
    return order, tuple(rows)


# ---------------------------------------------------------------------------
# products


@lru_cache(maxsize=None)
def _quasi_shuffle(left, right):
    """Quasi-shuffle of two compositions, given and returned as int keys
    (_key), as (key, count) pairs.

    With a and b the first parts and u and v the rests,
    (a u) * (b v) = a (u * b v) + b (a u * v) + (a + b) (u * v), and
    prepending a part to a key is one shift and one bit.
    """
    if not left:
        return ((right, 1),)
    if not right:
        return ((left, 1),)
    a, b = _first_part(left), _first_part(right)
    u, v = left >> a, right >> b
    counts = {}
    for head, terms in (
        (a, _quasi_shuffle(u, right)),
        (b, _quasi_shuffle(left, v)),
        (a + b, _quasi_shuffle(u, v)),
    ):
        bit = 1 << (head - 1)
        for key, k in terms:
            key = key << head | bit
            counts[key] = counts.get(key, 0) + k
    return tuple(counts.items())


quasi_shuffle = _product_table(_quasi_shuffle)


def _product(q1, q2, basis, table):
    """Bilinear extension of a table of basis products, on the factors' int
    numerators in basis over the product of their denominators.

    The table takes and returns the int keys of _key, so every pair's terms
    are added into one dict of ints, whatever the degrees and however
    sparse the factors, and each output term is named once at the end."""
    d1, n1 = _numerators_in(q1, basis)
    d2, n2 = _numerators_in(q2, basis)
    right = [(_key(b), cb) for b, cb in n2.items()]
    out = {}
    for a, ca in n1.items():
        a = _key(a)
        for b, cb in right:
            scale = ca * cb
            for key, k in table(a, b):
                out[key] = out.get(key, 0) + scale * k
    return QSymElement._from_numerators(basis, _by_composition(out.items()), d1 * d2)


def mul(q1, q2):
    """Ring product computed in the monomial basis via quasi-shuffles."""
    return _product(q1, q2, "M", _quasi_shuffle)


@lru_cache(maxsize=None)
def _draws(side):
    """Each way the next block can take elements from one factor, as
    (taken, ways, side after) triples.

    A side is (sizes, open): the int key (_key) of the factor's antichain
    sizes still to place, the current antichain first and reduced by what
    it has given, and whether that antichain has the next block's part.  An
    open side gives x of its s current elements in comb(s, x) ways; it
    closes, or for x = s its next antichain opens, since parts alternate.
    A closed side gives nothing and opens; a used-up one is (0, True) and
    stays so.
    """
    sizes, is_open = side
    if not (sizes and is_open):
        return ((0, 1, (sizes, True)),)
    s = _first_part(sizes)
    rest = sizes >> s
    partial = tuple(
        (x, comb(s, x), (rest << (s - x) | 1 << (s - x - 1), False)) for x in range(s)
    )
    return partial + ((s, 1, (rest, True)),)


@lru_cache(maxsize=None)
def _block_suffixes(first, second):
    """The block types that place the rest of two factors, as (key, count)
    pairs with each type given by its int key, for two sides as in _draws
    with first <= second.

    A block takes x elements from one side and y from the other, x + y >= 1,
    and the sides after it read their own entry.  The counts do not depend
    on which side is which factor, so every caller orders the pair, and
    N_a * N_b and N_b * N_a share their entries.  The table lives for the
    session and grows with the distinct suffix pairs reached.
    """
    if not (first[0] or second[0]):
        return ((0, 1),)
    out = {}
    for x, ways_x, next_first in _draws(first):
        for y, ways_y, next_second in _draws(second):
            if not x + y:
                continue
            ways = ways_x * ways_y
            if next_first <= next_second:
                suffixes = _block_suffixes(next_first, next_second)
            else:
                suffixes = _block_suffixes(next_second, next_first)
            head = x + y
            bit = 1 << (head - 1)
            for typ, count in suffixes:
                typ = typ << head | bit
                out[typ] = out.get(typ, 0) + ways * count
    return tuple(out.items())


@lru_cache(maxsize=None)
def _structure_constants(left, right):
    """Expansion of N_left * N_right as (key, count) pairs, the factors and
    the terms given by their int keys (_key).

    N_left * N_right counts the induced ordered partitions of the relabeled
    disjoint sum of the two antichain-chain posets by their type; the label
    split makes every one alternating, so each contributes its type's N
    element once.  Those partitions are counted here, not listed.

    Antichain i of a factor lies in part i mod 2 (0 high, 1 low) and below
    antichain i + 1.  So a block of part p takes x unplaced elements of the
    current antichain of left and y of the current antichain of right, each
    only when that antichain's parity is p, with x + y >= 1; an antichain is
    left once it is used up, and consecutive blocks alternate parts, the
    first being high.  Elements of one antichain are interchangeable, so a
    block is chosen in comb(rem_left, x) * comb(rem_right, y) ways, and each
    count is a sum of products of binomials, visibly nonnegative.  That sum
    is the entry of the shared table _block_suffixes for both factors whole,
    their first antichains open to the first block.
    """
    if not left:
        return ((right, 1),)
    if not right:
        return ((left, 1),)
    if right < left:
        left, right = right, left
    return _block_suffixes((left, True), (right, True))


structure_constants = _product_table(_structure_constants)


def mul_nbasis(left, right):
    """Product of two N basis vectors, expanded in the N basis."""
    return QSymElement._from_numerators("N", _product_terms(_structure_constants, left, right), 1)


def nbasis_product(q1, q2):
    """Bilinear extension of mul_nbasis to N-basis elements."""
    if q1.basis != "N" or q2.basis != "N":
        raise ValidationError("nbasis_product expects N-basis elements")
    return _product(q1, q2, "N", _structure_constants)


# ---------------------------------------------------------------------------
# coproduct


def coproduct_monomial(element):
    """Deconcatenation coproduct in the monomial basis."""
    m = convert(element, "M")
    terms = {}
    for comp, coeff in m.terms.items():
        for cut in range(len(comp) + 1):
            key = (comp[:cut], comp[cut:])
            terms[key] = terms.get(key, 0) + coeff
    return TensorElement("M", terms)


def tensor_convert(tensor, target):
    """Convert both tensor legs to another basis."""
    out = {}
    for (left, right), coeff in tensor.terms.items():
        lconv = convert(QSymElement.single(tensor.basis, left), target)
        rconv = convert(QSymElement.single(tensor.basis, right), target)
        for lcomp, lc in lconv.terms.items():
            for rcomp, rc in rconv.terms.items():
                key = (lcomp, rcomp)
                out[key] = out.get(key, 0) + coeff * lc * rc
    return TensorElement(target, out)


# ---------------------------------------------------------------------------
# the rank grading and related subspaces


def supp(element):
    """Support of the N-basis expansion."""
    return convert(element, "N").support()


def in_Vnr(element, n, r):
    """True iff every N-basis support composition has weight n and rank r."""
    return all(weight(c) == n and rank(c) == r for c in supp(element))


def quotient_J_project(element):
    """Canonical representative modulo the ideal generated by the degree one
    element: drop all odd-length compositions from the N expansion."""
    q = convert(element, "N")
    return QSymElement._trusted(
        "N", {c: v for c, v in q.terms.items() if len(c) % 2 == 0}
    )


def divide_by_pure_power(element, s):
    """Solve N_(s) * p == element for p, exactly.

    The element must be homogeneous of degree n >= s >= 1.  In
    N_(s) * N_beta the type (s + beta_0, beta_1, ...) has coefficient 1 and
    every other type a smaller first part, so p is peeled off the element:
    a remaining term gamma whose first part is largest is the leading type
    of beta = (gamma_0 - s, gamma_1, ...), which takes its coefficient, and
    that multiple of N_(s) * N_beta is subtracted.  A leading term that no
    beta produces raises NotDivisibleError; the residual reaching zero
    proves the division exact.
    """
    s = json_int(s, "the divisor exponent")
    if s < 1:
        raise ValidationError("the divisor exponent must be >= 1")
    q = convert(element, "N")
    if not q:
        return QSymElement.zero("N")
    n = q.degree()
    if n < s:
        raise NotDivisibleError(f"degree {n} is smaller than the divisor degree {s}")
    denom, residual = _scaled(q)
    residual = {_key(c): v for c, v in residual.items()}
    divisor = _key((s,))
    quotient = {}
    while residual:
        # on int keys the largest first part is the largest lowest set bit;
        # beta is lead with s taken off its first part, a shift by s, and
        # is () for lead (s,) but no composition for another first part s
        lead = max(residual, key=lambda k: k & -k)
        if lead != divisor and _first_part(lead) <= s:
            raise NotDivisibleError("element is not divisible by the pure power")
        beta = lead >> s
        coeff = quotient[beta] = residual[lead]
        for key, k in _structure_constants(divisor, beta):
            value = residual.get(key, 0) - coeff * k
            if value:
                residual[key] = value
            else:
                del residual[key]
    return QSymElement._from_numerators("N", _by_composition(quotient.items()), denom)
