"""Quasisymmetric functions in the monomial (M), fundamental (L) and N bases.

The N basis element of a composition is the poset generating function of the
alternately labeled ordinal sum of antichains with those block sizes.  All
coefficients are exact rationals, but every table here holds ints, so the
conversions and products work on int numerators over one common
denominator (the lcm of the input's denominators, or the product of the
factors' for a product) and make Fractions only for the result, through
QSymElement._from_numerators.  Because the labeling alternates by block,
every block boundary is always a descent or always an ascent, so the N to L
and N to M expansions are closed forms: each coefficient is a sum of
products of per-block counts (permutations by run composition for L,
ordered set partitions by type for M), and no word or P-partition is
listed.  Every other conversion routes through the fundamental basis.  L to
N is one integer peel per degree: the N to L matrix is integer unitriangular
once its columns are keyed by ascent runs, so the rows of a pivot table,
stored in triangular order, are subtracted from the degree's numerators in
ints.

Products are taken in the monomial basis by quasi-shuffles, or directly in
the N basis through its structure constants.  Those are counted block by
block with binomial weights, so the product poset and its induced ordered
partitions are never built; listing them is an oracle in the tests.

The expansion tables (refinements_of, nbasis_in_fundamental,
nbasis_in_monomial, structure_constants) return their terms in whatever
order they are built, since every consumer reads them term by term.
Canonical order (weight, then binary word) is applied only at the output
boundary, by QSymElement.sorted_terms, to_json and format_element.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, gcd, lcm

from .compositions import (
    as_composition,
    binary_word,
    compositions,
    rank,
    rho_to_runs,
    runs_to_rho,
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


# ---------------------------------------------------------------------------
# refinement expansions between M and L


@lru_cache(maxsize=None)
def refinements_of(comp):
    """All compositions refining comp, i.e. splitting its parts.

    A refinement splits each part independently, so the refinements are the
    concatenations of one composition of each part.
    """
    comp = as_composition(comp)
    out = [()]
    for part in comp:
        pieces = ordered_compositions(part)
        out = [head + piece for head in out for piece in pieces]
    return tuple(out)


@lru_cache(maxsize=None)
def _fundamental_in_monomial(comp):
    return tuple((beta, 1) for beta in refinements_of(comp))


@lru_cache(maxsize=None)
def _monomial_in_fundamental(comp):
    comp = as_composition(comp)
    return tuple(
        (beta, (-1) ** (len(beta) - len(comp))) for beta in refinements_of(comp)
    )


# ---------------------------------------------------------------------------
# the N basis in the fundamental basis


@lru_cache(maxsize=None)
def _descent_classes(a):
    """Run compositions of the permutations of [a], with their counts.

    Built letter by letter: a word's state is its run composition and the
    relative rank j of its last letter.  Appending a letter of relative rank
    i among k + 1 letters continues the last run when i > j (an ascent) and
    opens a new run of length 1 otherwise (a descent).  Each run composition
    keeps one vector of counts indexed by j, so the ascent successor's
    vector is the prefix sums of it and the descent successor's the suffix
    sums.  Distinct compositions have distinct successors (an ascent one
    ends in a part >= 2, a descent one in a 1), so nothing is merged.
    """
    states = {(1,): [1]}
    for _ in range(1, a):
        nxt = {}
        for comp, by_rank in states.items():
            nxt[comp[:-1] + (comp[-1] + 1,)] = [0, *accumulate(by_rank)]
            suffix = [*accumulate(reversed(by_rank))]
            suffix.reverse()
            suffix.append(0)
            nxt[comp + (1,)] = suffix
        states = nxt
    return tuple((comp, sum(by_rank)) for comp, by_rank in states.items())


@lru_cache(maxsize=None)
def nbasis_in_fundamental(comp):
    """L-expansion of the N element: counts of run compositions over all
    interleavings of the alternately labeled antichain blocks.

    Even-indexed (0-based) blocks carry the high labels and odd-indexed
    blocks the low ones, so the boundary after block j is a descent for even
    j and an ascent for odd j.  A word's run composition is then fixed by
    those of its block segments: concatenated across a descent, with the
    touching parts merged across an ascent.  Folding the per-block descent
    classes left to right gives the expansion as a sum of products of
    descent-class counts, without listing the words.
    """
    comp = as_composition(comp)
    if not comp:
        return (((), 1),)
    counts = dict(_descent_classes(comp[0]))
    for j, a in enumerate(comp[1:]):
        ascent = j % 2 == 1
        classes = _descent_classes(a)
        nxt = {}
        for left, lc in counts.items():
            for right, rc in classes:
                if ascent:
                    key = left[:-1] + (left[-1] + right[0],) + right[1:]
                else:
                    key = left + right
                nxt[key] = nxt.get(key, 0) + lc * rc
        counts = nxt
    return tuple(counts.items())


def n_basis_element(comp):
    """The N element of a composition, expanded in the fundamental basis."""
    return QSymElement._trusted("L", dict(nbasis_in_fundamental(comp)))


# ---------------------------------------------------------------------------
# the N basis in the monomial basis


@lru_cache(maxsize=None)
def _level_classes(a):
    """Types of the ordered set partitions of an a-element antichain, with
    their counts: each composition c of a with the multinomial a!/prod c_i!."""
    out = []
    for comp in compositions(a):
        count = factorial(a)
        for part in comp:
            count //= factorial(part)
        out.append((comp, count))
    return tuple(out)


@lru_cache(maxsize=None)
def nbasis_in_monomial(comp):
    """M-expansion of the N element: counts of the level-set types of its
    P-partitions (Gessel 1984).

    A P-partition's level sets, listed from the smallest value up, form an
    ordered set partition of the poset.  Antichain j lies below antichain
    j + 1, strictly across a descent (even j) and weakly across an ascent
    (odd j), so a level holds elements of one antichain, except that across
    an ascent the last level of antichain j may share its value with the
    first level of antichain j + 1.  Folding the per-block level classes
    left to right therefore concatenates their types, and across an ascent
    also merges the touching parts.
    """
    comp = as_composition(comp)
    if not comp:
        return (((), 1),)
    counts = dict(_level_classes(comp[0]))
    for j, a in enumerate(comp[1:]):
        weak = j % 2 == 1
        classes = _level_classes(a)
        nxt = {}
        for left, lc in counts.items():
            for right, rc in classes:
                ways = lc * rc
                key = left + right
                nxt[key] = nxt.get(key, 0) + ways
                if weak:
                    key = left[:-1] + (left[-1] + right[0],) + right[1:]
                    nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
    return tuple(counts.items())


@lru_cache(maxsize=None)
def nl_ascent_run_rows(n):
    """The N to L pivot table at degree n, rows already in triangular order.

    Row alpha (an ascent-run composition, rows sorted by
    triangular_order_key) is stored as (alpha, pivot, terms): pivot is
    rho_to_runs(alpha), the run composition whose ascent word has run
    lengths alpha, and terms is nbasis_in_fundamental(alpha), shared with
    that table.  Keyed by ascent-run compositions the N to L matrix has unit
    diagonal and is upper unitriangular in this order, so each row has
    coefficient 1 on its pivot and no later row has that term.
    """
    return tuple(
        (alpha, rho_to_runs(alpha), nbasis_in_fundamental(alpha))
        for alpha in sorted(compositions(n), key=triangular_order_key)
    )


def _peel_degree(residual, n, denom):
    """L to N for one homogeneous degree n >= 1, by an integer peel.

    residual maps run compositions of weight n to int numerators over
    denom, and is consumed.  The rows of the pivot table are peeled in
    order: the residual's numerator on a row's pivot is that row's N
    numerator, and the row is subtracted.  Every step stays in ints, and
    each output coefficient is divided by denom once.
    """
    out = {}
    for alpha, pivot, row in nl_ascent_run_rows(n):
        if not residual:
            break
        coeff = residual.get(pivot)
        if not coeff:
            continue
        out[alpha] = Fraction(coeff, denom)
        for c, count in row:
            value = residual.get(c, 0) - coeff * count
            if value:
                residual[c] = value
            else:
                del residual[c]
    if residual:
        raise AssertionError("triangular solve left a nonzero residual")
    return out


# ---------------------------------------------------------------------------
# conversion

# the integer expansion tables of the conversions made term by term
_TERMWISE = {
    ("M", "L"): _monomial_in_fundamental,
    ("L", "M"): _fundamental_in_monomial,
    ("N", "L"): nbasis_in_fundamental,
    ("N", "M"): nbasis_in_monomial,
}


def _scaled(element):
    """The element's terms as (D, {comp: int numerator}) over the lcm D of
    their denominators.  An integral element is returned as (1, its own
    terms), which the caller must not modify."""
    terms = element.terms
    denom = lcm(*(v.denominator for v in terms.values()))
    if denom == 1:
        return 1, terms
    return denom, {c: v.numerator * (denom // v.denominator) for c, v in terms.items()}


def _numerators_in(element, target):
    """The element in basis target ('M' or 'L') as (D, {comp: int
    numerator}), expanded term by term through the integer tables."""
    denom, scaled = _scaled(element)
    if element.basis == target:
        return denom, scaled
    table = _TERMWISE[element.basis, target]
    out = {}
    for comp, coeff in scaled.items():
        for beta, factor in table(comp):
            out[beta] = out.get(beta, 0) + coeff * factor
    return denom, out


def _to_nbasis(element):
    """An element in the N basis, from its L numerators over one
    denominator D, peeled degree by degree.  Each degree is divided through
    by g = gcd(D, its numerators), so it is peeled over D // g, the lcm of
    its reduced L denominators.  The scalar part is the same in every basis
    and passes through unchanged."""
    denom, in_l = _numerators_in(element, "L")
    by_degree = {}
    for c, v in in_l.items():
        if v and c:
            by_degree.setdefault(weight(c), {})[c] = v
    out = {}
    if () in element.terms:
        out[()] = element.terms[()]
    for n, terms in by_degree.items():
        g = gcd(denom, *terms.values())
        residual = {c: v // g for c, v in terms.items()} if g > 1 else terms
        out.update(_peel_degree(residual, n, denom // g))
    return QSymElement._trusted("N", out)


def convert(element, target):
    """Rewrite an element in another basis; the function is unchanged."""
    if target not in ("M", "L", "N"):
        raise ValidationError(f"unknown basis tag {target!r}")
    if element.basis == target:
        return element
    if target == "N":
        return _to_nbasis(element)
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
    table = nl_ascent_run_rows(n)
    order = tuple(alpha for alpha, _, _ in table)
    rows = []
    for _, _, row in table:
        by_rho = {runs_to_rho(c): v for c, v in row}
        rows.append(tuple(by_rho.get(delta, 0) for delta in order))
    return order, tuple(rows)


# ---------------------------------------------------------------------------
# products


@lru_cache(maxsize=None)
def quasi_shuffle(left, right):
    """Quasi-shuffle of two exponent compositions, as (composition, count) pairs."""
    left, right = as_composition(left), as_composition(right)
    if not left:
        return ((right, 1),)
    if not right:
        return ((left, 1),)
    a, b = left[0], right[0]
    counts = {}
    for comp, k in quasi_shuffle(left[1:], right):
        key = (a,) + comp
        counts[key] = counts.get(key, 0) + k
    for comp, k in quasi_shuffle(left, right[1:]):
        key = (b,) + comp
        counts[key] = counts.get(key, 0) + k
    for comp, k in quasi_shuffle(left[1:], right[1:]):
        key = (a + b,) + comp
        counts[key] = counts.get(key, 0) + k
    return tuple(counts.items())


def mul(q1, q2):
    """Ring product computed in the monomial basis via quasi-shuffles."""
    d1, m1 = _numerators_in(q1, "M")
    d2, m2 = _numerators_in(q2, "M")
    out = {}
    for gamma, cg in m1.items():
        for delta, cd in m2.items():
            scale = cg * cd
            if not scale:
                continue
            for comp, k in quasi_shuffle(gamma, delta):
                out[comp] = out.get(comp, 0) + scale * k
    return QSymElement._from_numerators("M", out, d1 * d2)


@lru_cache(maxsize=None)
def structure_constants(left, right):
    """Expansion of N_left * N_right as (composition, count) pairs.

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
    count is a sum of products of binomials, visibly nonnegative.  The DP
    state is (left antichain, placed from it, right antichain, placed from
    it, part of the next block), mapped to its suffix type -> count.
    """
    left, right = as_composition(left), as_composition(right)
    if not left:
        return ((right, 1),)
    if not right:
        return ((left, 1),)
    memo = {}

    def suffixes(i, a, j, b, part):
        key = (i, a, j, b, part)
        if key in memo:
            return memo[key]
        if i == len(left) and j == len(right):
            return {(): 1}
        xs = left[i] - a if i < len(left) and i % 2 == part else 0
        ys = right[j] - b if j < len(right) and j % 2 == part else 0
        out = {}
        for x in range(xs + 1):
            ni, na = (i + 1, 0) if x and x == xs else (i, a + x)
            for y in range(ys + 1):
                if not x + y:
                    continue
                nj, nb = (j + 1, 0) if y and y == ys else (j, b + y)
                ways = comb(xs, x) * comb(ys, y)
                for typ, count in suffixes(ni, na, nj, nb, 1 - part).items():
                    typ = (x + y,) + typ
                    out[typ] = out.get(typ, 0) + ways * count
        memo[key] = out
        return out

    counts = suffixes(0, 0, 0, 0, 0)
    return tuple(counts.items())


def mul_nbasis(left, right):
    """Product of two N basis vectors, expanded in the N basis."""
    return QSymElement._trusted("N", dict(structure_constants(left, right)))


def nbasis_product(q1, q2):
    """Bilinear extension of mul_nbasis to N-basis elements."""
    if q1.basis != "N" or q2.basis != "N":
        raise ValidationError("nbasis_product expects N-basis elements")
    d1, n1 = _scaled(q1)
    d2, n2 = _scaled(q2)
    out = {}
    for a, ca in n1.items():
        for b, cb in n2.items():
            scale = ca * cb
            for comp, k in structure_constants(a, b):
                out[comp] = out.get(comp, 0) + scale * k
    return QSymElement._from_numerators("N", out, d1 * d2)


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
    if s < 1:
        raise ValidationError("the divisor exponent must be >= 1")
    q = convert(element, "N")
    if not q:
        return QSymElement.zero("N")
    n = q.degree()
    if n < s:
        raise NotDivisibleError(f"degree {n} is smaller than the divisor degree {s}")
    denom, residual = _scaled(q)
    residual = dict(residual)
    quotient = {}
    while residual:
        lead = max(residual, key=lambda c: c[0])
        if lead == (s,):
            beta = ()
        elif lead[0] > s:
            beta = (lead[0] - s,) + lead[1:]
        else:
            raise NotDivisibleError("element is not divisible by the pure power")
        coeff = quotient[beta] = residual[lead]
        for comp, k in structure_constants((s,), beta):
            value = residual.get(comp, 0) - coeff * k
            if value:
                residual[comp] = value
            else:
                del residual[comp]
    return QSymElement._from_numerators("N", quotient, denom)
