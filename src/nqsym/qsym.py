"""Quasisymmetric functions in the monomial (M), fundamental (L) and N bases.

The N basis element of a composition is the poset generating function of the
alternately labeled ordinal sum of antichains with those block sizes.  All
coefficients are exact rationals.  Conversions route through the fundamental
basis; the N to L direction is a counting expansion and the reverse is a
unitriangular back substitution.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

from . import linalg
from .compositions import (
    as_composition,
    binary_word,
    composition_to_subset,
    compositions,
    partition_type,
    rank,
    runs,
    runs_to_rho,
    subset_to_composition,
    term_order_key,
    triangular_order_key,
    weight,
)
from .elements import QSymElement, TensorElement
from .errors import NotDivisibleError, ValidationError
from .posets import (
    alternating_antichain_labels,
    induced_ordered_partitions,
    nbasis_product_poset,
)

MONOMIAL, FUNDAMENTAL, NBASIS = "M", "L", "N"


def monomial_element(comp, coeff=1):
    return QSymElement.single("M", comp, coeff)


def fundamental_element(comp, coeff=1):
    return QSymElement.single("L", comp, coeff)


# ---------------------------------------------------------------------------
# refinement expansions between M and L


@lru_cache(maxsize=None)
def refinements_of(comp):
    """All compositions refining comp, i.e. splitting its parts."""
    comp = as_composition(comp)
    n = weight(comp)
    base = composition_to_subset(comp)
    free = [i for i in range(1, n) if i not in base]
    out = []
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            out.append(subset_to_composition(base | set(extra), n))
    return tuple(sorted(out, key=term_order_key))


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
def nbasis_in_fundamental(comp):
    """L-expansion of the N element: counts of run compositions over all
    interleavings of the alternately labeled antichain blocks."""
    comp = as_composition(comp)
    if not comp:
        return (((), 1),)
    blocks = alternating_antichain_labels(comp)
    counts = {}
    for choice in product(*(permutations(b) for b in blocks)):
        word = tuple(x for seg in choice for x in seg)
        c = runs(word)
        counts[c] = counts.get(c, 0) + 1
    return tuple(sorted(counts.items(), key=lambda kv: term_order_key(kv[0])))


def n_basis_element(comp):
    """The N element of a composition, expanded in the fundamental basis."""
    return QSymElement("L", dict(nbasis_in_fundamental(comp)))


@lru_cache(maxsize=None)
def nl_ascent_run_rows(n):
    """Rows of the N to L expansion at degree n, columns keyed by ascent-run
    compositions instead of run compositions.

    The two keyings are related by the bijection between a word's increasing
    runs and the run lengths of its ascent word.  Under this keying the
    matrix has unit diagonal, and sorting rows and columns by
    triangular_order_key makes it upper unitriangular.
    """
    rows = {}
    for alpha in compositions(n):
        if not alpha:
            continue
        rows[alpha] = {
            runs_to_rho(c): v for c, v in nbasis_in_fundamental(alpha)
        }
    return rows


def _fundamental_to_nbasis_degree(terms, n):
    """Back substitution for one homogeneous degree; terms maps runs comps."""
    rows = nl_ascent_run_rows(n)
    residual = {runs_to_rho(c): v for c, v in terms.items()}
    order = sorted(rows, key=triangular_order_key)
    out = {}
    for alpha in order:
        coeff = residual.get(alpha, 0)
        if not coeff:
            continue
        out[alpha] = coeff
        for delta, count in rows[alpha].items():
            residual[delta] = residual.get(delta, 0) - coeff * count
            if not residual[delta]:
                del residual[delta]
    if residual:
        raise AssertionError("triangular solve left a nonzero residual")
    return out


# ---------------------------------------------------------------------------
# conversion


def convert(element, target):
    """Rewrite an element in another basis; the function is unchanged."""
    if target not in ("M", "L", "N"):
        raise ValidationError(f"unknown basis tag {target!r}")
    if element.basis == target:
        return element
    if element.basis == "M" and target == "L":
        return _expand_termwise(element, _monomial_in_fundamental, "L")
    if element.basis == "L" and target == "M":
        return _expand_termwise(element, _fundamental_in_monomial, "M")
    if element.basis == "N" and target in ("L", "M"):
        in_l = _expand_termwise(element, nbasis_in_fundamental, "L")
        return in_l if target == "L" else convert(in_l, "M")
    if target == "N":
        in_l = convert(element, "L")
        out = {}
        for n in in_l.degrees():
            terms = {c: v for c, v in in_l.terms.items() if weight(c) == n}
            if n == 0:
                out[()] = out.get((), 0) + terms.get((), 0)
                continue
            for comp, coeff in _fundamental_to_nbasis_degree(terms, n).items():
                out[comp] = out.get(comp, 0) + coeff
        return QSymElement("N", out)
    raise ValidationError(f"no conversion from {element.basis} to {target}")


def _expand_termwise(element, table, target):
    out = {}
    for comp, coeff in element.terms.items():
        for beta, factor in table(comp):
            key = beta
            out[key] = out.get(key, 0) + coeff * factor
    return QSymElement(target, out)


# ---------------------------------------------------------------------------
# transition matrices


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense change-of-basis data for one degree.

    rows[i][j] is the coefficient of target basis element order[j] in the
    expansion of source basis element order[i]; order lists the weight-n
    compositions in binary word order.
    """

    n: int
    source: str
    target: str
    order: tuple
    rows: tuple

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


def nl_unitriangular_matrix(n, triangular=True):
    """The ascent-run keyed N to L matrix at degree n as (order, rows).

    With triangular=True rows and columns are sorted by triangular_order_key
    and the matrix is integer upper unitriangular; otherwise binary word
    order is used (unit diagonal either way).
    """
    key = triangular_order_key if triangular else binary_word
    order = tuple(sorted((c for c in compositions(n) if c), key=key))
    table = nl_ascent_run_rows(n)
    rows = tuple(
        tuple(table[alpha].get(delta, 0) for delta in order) for alpha in order
    )
    return order, rows


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
    m1, m2 = convert(q1, "M"), convert(q2, "M")
    out = {}
    for gamma, cg in m1.terms.items():
        for delta, cd in m2.terms.items():
            scale = cg * cd
            for comp, k in quasi_shuffle(gamma, delta):
                out[comp] = out.get(comp, 0) + scale * k
    return QSymElement("M", out)


@lru_cache(maxsize=None)
def structure_constants(left, right):
    """Expansion of N_left * N_right as a map composition -> count.

    Counts the induced ordered partitions of the relabeled disjoint sum of
    the two antichain-chain posets by their type; the label split guarantees
    every induced ordered partition is alternating, so each contributes its
    type's N element once.
    """
    left, right = as_composition(left), as_composition(right)
    if not left:
        return ((right, 1),)
    if not right:
        return ((left, 1),)
    poset, (high, low) = nbasis_product_poset(left, right)
    parts = [p for p in (high, low) if p]
    counts = {}
    for induced in induced_ordered_partitions(poset, parts):
        typ = partition_type(induced)
        counts[typ] = counts.get(typ, 0) + 1
    return tuple(sorted(counts.items(), key=lambda kv: term_order_key(kv[0])))


def mul_nbasis(left, right):
    """Product of two N basis vectors, expanded in the N basis."""
    return QSymElement("N", dict(structure_constants(left, right)))


def nbasis_product(q1, q2):
    """Bilinear extension of mul_nbasis to N-basis elements."""
    if q1.basis != "N" or q2.basis != "N":
        raise ValidationError("nbasis_product expects N-basis elements")
    out = {}
    for a, ca in q1.terms.items():
        for b, cb in q2.terms.items():
            scale = ca * cb
            for comp, k in structure_constants(a, b):
                out[comp] = out.get(comp, 0) + scale * k
    return QSymElement("N", out)


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


@lru_cache(maxsize=None)
def compositions_of_rank(n, r):
    """Weight-n compositions of rank r, in binary word order."""
    return tuple(
        c for c in ordered_compositions(n) if rank(c) == r
    )


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
    return QSymElement(
        "N", {c: v for c, v in q.terms.items() if len(c) % 2 == 0}
    )


def divide_by_pure_power(element, s):
    """Solve N_(s) * p == element for p, exactly.

    The element must be homogeneous of degree n >= s >= 1.  Because the N
    product adds ranks, the system splits by rank and each block is solved
    as an exact rational linear system; inconsistency raises
    NotDivisibleError.
    """
    if s < 1:
        raise ValidationError("the divisor exponent must be >= 1")
    q = convert(element, "N")
    if not q:
        return QSymElement.zero("N")
    n = q.degree()
    if n < s:
        raise NotDivisibleError(f"degree {n} is smaller than the divisor degree {s}")
    by_rank = {}
    for comp, coeff in q.terms.items():
        by_rank.setdefault(rank(comp), {})[comp] = coeff
    result = {}
    for r_total, terms in by_rank.items():
        r_quot = r_total - s
        candidates = compositions_of_rank(n - s, r_quot) if r_quot >= 0 else ()
        if not candidates:
            raise NotDivisibleError(
                f"no rank {r_quot} component of degree {n - s} can produce rank {r_total}"
            )
        row_space = compositions_of_rank(n, r_total)
        row_index = {c: i for i, c in enumerate(row_space)}
        columns = []
        for beta in candidates:
            col = [0] * len(row_space)
            for comp, k in structure_constants((s,), beta):
                col[row_index[comp]] += k
            columns.append(col)
        target = [terms.get(c, 0) for c in row_space]
        solution = linalg.solve_columns(columns, target)
        if solution is None:
            raise NotDivisibleError("element is not divisible by the pure power")
        for beta, value in zip(candidates, solution):
            if value:
                result[beta] = result.get(beta, 0) + value
    quotient = QSymElement("N", result)
    if nbasis_product(QSymElement.single("N", (s,)), quotient) != q:
        raise NotDivisibleError("element is not divisible by the pure power")
    return quotient
