import random
import sys
from fractions import Fraction
from math import lcm

import pytest

import _linalg_oracle as linalg
from _poset_oracle import induced_ordered_partitions, nbasis_product_poset
from _qsym_oracle import (
    TERMWISE,
    expand_termwise,
    nbasis_in_fundamental_by_fold,
    nbasis_in_monomial_by_fold,
    quasi_shuffle_by_overlaps,
    refinements_by_subsets,
)
from nqsym import compositions as comp
from nqsym import elements, qsym
from nqsym.elements import QSymElement, TensorElement, format_element
from nqsym.errors import NotDivisibleError, ValidationError


def random_element(rng, basis, max_degree=6, terms=3, integral=True):
    out = {}
    for _ in range(terms):
        n = rng.randint(0, max_degree)
        cands = [c for c in comp.compositions(n)]
        coeff = rng.randint(-5, 5) if integral else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out[rng.choice(cands)] = coeff
    return QSymElement(basis, out)


def as_dict(pairs):
    """The (composition, coefficient) pairs of an expansion table as a dict;
    a table lists each composition once, in no particular order."""
    out = dict(pairs)
    assert len(out) == len(pairs)
    return out


def test_element_normalization_and_equality():
    e = QSymElement("M", {(1, 2): 1, (2, 1): 0})
    assert e.terms == {(1, 2): 1}
    assert e + QSymElement("M", {(1, 2): -1}) == QSymElement.zero("M")
    assert QSymElement("M", {(1, 2): Fraction(2, 2)}).is_integral()


def test_elements_and_tensors_share_one_term_map():
    q = QSymElement("M", {(1,): 1})
    t = TensorElement("M", {((1,), ()): 1})
    # equality reads the basis tag as well as the terms
    assert q != QSymElement("L", {(1,): 1})
    assert t != TensorElement("N", {((1,), ()): 1})
    # an element never equals a tensor, even with no terms on either side
    assert QSymElement.zero("M") != TensorElement("M")
    assert TensorElement("M") != QSymElement.zero("M")
    # equal elements hash equal
    q_again = QSymElement("M", [((1,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    t_again = TensorElement("M", [(((1,), ()), Fraction(1, 3)), (((1,), ()), Fraction(2, 3))])
    assert q == q_again and hash(q) == hash(q_again)
    assert t == t_again and hash(t) == hash(t_again)
    assert not QSymElement.zero("M") and not TensorElement("M") and q and t
    assert repr(q) == "QSymElement('M', {(1,): 1})"
    assert repr(t) == "TensorElement('M', {((1,), ()): 1})"
    for value in (q, t):
        assert not hasattr(value, "__dict__")
        for name in ("basis", "other"):
            with pytest.raises(AttributeError) as info:
                setattr(value, name, "L")
            assert str(info.value) == f"{type(value).__name__} is immutable"


def test_merged_coefficients_are_normalized():
    # repeated keys are summed; thirds that sum to 1 give the int 1
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    q = QSymElement("M", [((1,), third), ((1,), two_thirds), ((2,), third), ((2,), -third)])
    assert q.terms == {(1,): 1} and type(q.terms[(1,)]) is int
    t = TensorElement("M", [(((1,), ()), third), (((1,), ()), two_thirds)])
    assert type(t.coefficient((1,), ())) is int


def test_mixed_basis_addition_converts_to_monomial():
    n2 = QSymElement.single("N", (2,))
    l11 = QSymElement.single("L", (1, 1))
    total = n2 + l11
    assert total.basis == "M"
    assert total == qsym.convert(n2, "M") + qsym.convert(l11, "M")
    assert total.terms == {(2,): 1, (1, 1): 3}
    assert (n2 - n2).basis == "N"


def test_nbasis_element_examples():
    assert qsym.n_basis_element((1, 2, 2)).terms == {
        (1, 4): 1,
        (1, 3, 1): 1,
        (1, 1, 3): 1,
        (1, 1, 2, 1): 1,
    }
    assert qsym.n_basis_element((1, 1)).terms == {(1, 1): 1}
    assert qsym.n_basis_element(()).terms == {(): 1}
    # a single antichain gives the run-composition census of all orderings
    from itertools import permutations

    for n in range(1, 6):
        expected = {}
        for w in permutations(range(1, n + 1)):
            c = comp.runs(w)
            expected[c] = expected.get(c, 0) + 1
        assert qsym.n_basis_element((n,)).terms == expected


def test_nbasis_element_positive_fundamental_coefficients():
    for n in range(1, 8):
        for alpha in comp.compositions(n):
            if not alpha:
                continue
            e = qsym.n_basis_element(alpha)
            assert all(isinstance(v, int) and v > 0 for v in e.terms.values())


def test_nbasis_element_matches_poset_route():
    from nqsym.posets import build_P_alpha, qsym_of_poset

    for n in range(1, 7):
        for alpha in comp.compositions(n):
            if not alpha:
                continue
            assert qsym.n_basis_element(alpha) == qsym_of_poset(build_P_alpha(alpha))


def enumerated_nbasis_in_fundamental(alpha):
    """Oracle: the run-composition census of every interleaving word of the
    alternately labeled antichain blocks, all prod a_i! of them."""
    from itertools import permutations, product

    from nqsym.posets import alternating_antichain_labels

    counts = {}
    for choice in product(*(permutations(b) for b in alternating_antichain_labels(alpha))):
        word = tuple(x for seg in choice for x in seg)
        c = comp.runs(word)
        counts[c] = counts.get(c, 0) + 1
    return counts


def test_nbasis_in_fundamental_matches_word_enumeration():
    for n in range(1, 10):
        for alpha in comp.compositions(n):
            table = as_dict(qsym.nbasis_in_fundamental(alpha))
            assert table == enumerated_nbasis_in_fundamental(alpha)


def descent_classes(a):
    """The descent-class vector of a as a dict keyed by run composition."""
    return dict(zip(qsym._mask_compositions(a), qsym._descent_classes(a)))


def test_cut_masks_index_the_compositions():
    # bit i of a composition's cut mask is set when i + 1 is a partial sum
    for n in range(1, 11):
        names = qsym._mask_compositions(n)
        assert len(names) == 2 ** (n - 1) and set(names) == set(comp.compositions(n))
        for mask, c in enumerate(names):
            assert qsym._cut_mask(c) == mask
            assert {i + 1 for i in range(n - 1) if mask >> i & 1} == comp.composition_to_subset(c)


def test_int_keys_name_every_composition_once():
    # the key is the cut mask plus bit n - 1 for weight n, and 0 for ();
    # prepending a part a is c << a | 1 << (a - 1) from () on
    keys = set()
    for n in range(11):
        for c in comp.compositions(n):
            key = qsym._key(c)
            assert key == (qsym._cut_mask(c) | 1 << (n - 1) if c else 0)
            assert qsym._composition(key) == c and qsym._NAMES[key] == c
            keys.add(key)
            for a in range(1, 5):
                assert qsym._composition(key << a | 1 << (a - 1)) == (a,) + c
    assert keys == set(range(2**10))


def test_descent_classes_match_brute_force():
    from itertools import permutations

    for a in range(1, 8):
        expected = {}
        for w in permutations(range(a)):
            c = comp.runs(w)
            expected[c] = expected.get(c, 0) + 1
        assert descent_classes(a) == expected


def test_descent_classes_match_multinomial_route():
    # N_(a) is the antichain's generating function (x1 + x2 + ...)^a, whose
    # monomial coefficients are multinomials
    from math import factorial, prod

    for a in range(1, 11):
        power = QSymElement(
            "M",
            {d: factorial(a) // prod(factorial(p) for p in d) for d in comp.compositions(a)},
        )
        assert qsym.convert(power, "L").terms == descent_classes(a)


def test_descent_classes_count_every_permutation():
    from math import factorial

    for a in range(1, 14):
        classes = qsym._descent_classes(a)
        assert sum(classes) == factorial(a)
        assert all(count > 0 for count in classes)
        assert len(classes) == 2 ** (a - 1)
        assert all(comp.weight(c) == a for c in descent_classes(a))


def test_convert_examples():
    assert qsym.convert(qsym.fundamental_element((1,)), "M").terms == {(1,): 1}
    assert qsym.convert(QSymElement.single("N", (2,)), "M").terms == {(2,): 1, (1, 1): 2}


def test_convert_round_trips():
    rng = random.Random(17)
    for trial in range(60):
        basis = rng.choice("MLN")
        q = random_element(rng, basis, integral=(trial % 2 == 0))
        for target in "MLN":
            assert qsym.convert(qsym.convert(q, target), basis) == q


def test_nbasis_in_monomial_matches_route_through_fundamental():
    for n in range(10):
        for alpha in comp.compositions(n):
            n_alpha = QSymElement.single("N", alpha)
            oracle = qsym.convert(qsym.convert(n_alpha, "L"), "M")
            assert qsym.convert(n_alpha, "M").terms == oracle.terms, alpha


def assert_normalized(element):
    assert element == QSymElement(element.basis, element.terms)
    for value in element.terms.values():
        assert type(value) in (int, Fraction) and value != 0
        assert not (isinstance(value, Fraction) and value.denominator == 1)


def test_internal_builders_return_normalized_elements():
    half = Fraction(1, 2)
    # L[2] - L[11] = M[2]: the M[11] terms cancel, and halves sum to ints
    cancelling = [
        QSymElement("L", {(2,): 1, (1, 1): -1}),
        QSymElement("N", {(2,): half, (1, 1): half}),
        QSymElement("N", {(1, 2): half, (2, 1): -half, (3,): Fraction(3, 2)}),
    ]
    assert qsym.convert(cancelling[0], "M").terms == {(2,): 1}
    # M to L, L to M, N to M and mul on fractions: terms cancel, or their
    # fractions sum to ints
    third = Fraction(1, 3)
    fractional = [
        (QSymElement("M", {(2,): third, (1, 1): third}), "L", {(2,): third}),
        (QSymElement("L", {(2,): half, (1, 1): -half}), "M", {(2,): half}),
        (QSymElement("L", {(2,): half, (1, 1): half}), "M", {(2,): half, (1, 1): 1}),
        (QSymElement("N", {(2,): half}), "M", {(2,): half, (1, 1): 1}),
        (QSymElement("N", {(2,): half, (1, 1): -half}), "M", {(2,): half, (1, 1): half}),
    ]
    for q, target, terms in fractional:
        assert qsym.convert(q, target).terms == terms
        assert_normalized(qsym.convert(q, target))
    m1 = QSymElement.single("M", (1,))
    assert qsym.mul(m1.scale(half), m1.scale(2)).terms == {(2,): 1, (1, 1): 2}
    assert qsym.mul(m1.scale(half), m1.scale(half)).terms == {(2,): Fraction(1, 4), (1, 1): half}
    for q, _, _ in fractional:
        assert_normalized(qsym.mul(q, q))
        assert_normalized(qsym.mul(q, q.scale(-1)))
    cancelling += [q for q, _, _ in fractional]
    rng = random.Random(61)
    samples = cancelling + [
        random_element(rng, rng.choice("MLN"), max_degree=5, integral=(i % 2 == 0))
        for i in range(30)
    ]
    for q in samples:
        for target in "MLN":
            assert_normalized(qsym.convert(q, target))
        assert_normalized(q + q.scale(-1))
        assert_normalized(-q)
        n_q = qsym.convert(q, "N")
        assert_normalized(qsym.nbasis_product(n_q, -n_q))
        for other in samples[:6]:
            assert_normalized(qsym.mul(q, other))
            assert_normalized(q - other)
            assert_normalized(qsym.nbasis_product(n_q, qsym.convert(other, "N")))
        for s in (1, 2):
            product = qsym.nbasis_product(QSymElement.single("N", (s,)), n_q)
            for part in n_q.degrees():
                homogeneous = QSymElement(
                    "N",
                    {c: v for c, v in product.terms.items() if comp.weight(c) == part + s},
                )
                assert_normalized(qsym.divide_by_pure_power(homogeneous, s))
    for alpha in comp.compositions(4):
        for beta in comp.compositions(3):
            assert_normalized(qsym.mul_nbasis(alpha, beta))


def test_scale_accepts_only_exact_scalars():
    q = QSymElement("M", {(2,): 1, (1, 1): Fraction(1, 2)})
    assert q.scale(2).terms == {(2,): 2, (1, 1): 1}
    assert q.scale(Fraction(2, 3)).terms == {(2,): Fraction(2, 3), (1, 1): Fraction(1, 3)}
    assert q.scale(0) == QSymElement.zero("M")
    for bad in (0.1, 2.0, "1/3", None, 1j):
        with pytest.raises(ValidationError):
            q.scale(bad)


def test_bool_coefficients_and_scalars_are_rejected():
    # a bool is no exact rational here, as in from_json's "num"
    q = QSymElement("M", {(2,): 1})
    for build in [
        lambda: QSymElement("M", {(1,): True}),
        lambda: QSymElement("M", {(1,): False}),
        lambda: QSymElement.single("M", (1,), True),
        lambda: q.scale(True),
        lambda: q * True,
        lambda: False * q,
    ]:
        with pytest.raises(ValidationError):
            build()


def test_refinements_match_subset_enumeration():
    for n in range(11):
        for alpha in comp.compositions(n):
            table = qsym.refinements_of(alpha)
            oracle = refinements_by_subsets(alpha)
            assert len(table) == len(oracle) and set(table) == set(oracle), alpha


def test_subset_sums_match_refinement_tables():
    for n in range(9):
        for alpha in comp.compositions(n):
            for source, target in (("M", "L"), ("L", "M")):
                single = QSymElement.single(source, alpha)
                oracle = expand_termwise(single, TERMWISE[source, target], target)
                assert qsym.convert(single, target) == oracle, (source, alpha)


def test_horner_matches_dict_folds():
    for n in range(10):
        for alpha in comp.compositions(n):
            assert as_dict(qsym.nbasis_in_fundamental(alpha)) == dict(
                nbasis_in_fundamental_by_fold(alpha)
            ), alpha
            assert qsym.convert(QSymElement.single("N", alpha), "M").terms == dict(
                nbasis_in_monomial_by_fold(alpha)
            ), alpha


def test_stored_rows_match_the_level_recursion(monkeypatch):
    routes = (("N", "L"), ("N", "M"), ("L", "N"), ("M", "N"))
    singles = [
        (QSymElement.single(source, alpha), target)
        for n in range(1, 9)
        for alpha in comp.compositions(n)
        for source, target in routes
    ]
    expected = [qsym.convert(single, target) for single, target in singles]
    monkeypatch.setattr(qsym, "_ROW_DEGREE", 0)
    assert [qsym.convert(single, target) for single, target in singles] == expected


def test_division_inverts_every_nbasis_element():
    for n in range(11):
        for alpha in comp.compositions(n):
            assert qsym.convert(qsym.n_basis_element(alpha), "N").terms == {alpha: 1}, alpha


def test_integer_l_expansion_has_integer_n_expansion():
    rng = random.Random(23)
    for _ in range(40):
        q = random_element(rng, "L", max_degree=7)
        assert qsym.convert(q, "N").is_integral()


def test_convert_mixed_degree_with_scalar_part():
    q = QSymElement("L", {(): 2, (1,): 3, (2, 1): -1})
    n = qsym.convert(q, "N")
    assert n.coefficient(()) == 2
    assert qsym.convert(n, "L") == q


DENOMINATORS = (1, 2, 3, 4, 5, 7)


def _fractional_terms(rng, n, count):
    comps = list(comp.compositions(n))
    return [
        (rng.choice(comps), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(DENOMINATORS)))
        for _ in range(count)
    ]


def sparse_fractional_elements(count=200, seed=71):
    """Seeded sparse M and L elements of degrees 1-9 with mixed denominators.
    Every fifth one has a term that cancels and a term whose thirds sum to
    an integer; every seventh also has terms of a second degree and a ()
    term."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, 9)
        pairs = _fractional_terms(rng, n, rng.randint(1, 4))
        if i % 5 == 0:
            cancelled, coeff = pairs[0]
            thirds = rng.choice(list(comp.compositions(n)))
            pairs += [(cancelled, -coeff), (thirds, Fraction(1, 3)), (thirds, Fraction(2, 3))]
        if i % 7 == 0:
            pairs += _fractional_terms(rng, rng.randint(1, 9), 2)
            pairs.append(((), Fraction(rng.randint(1, 5), rng.choice(DENOMINATORS))))
        out.append(QSymElement(rng.choice("ML"), pairs))
    return out


def nbasis_by_gauss_jordan(samples):
    """Oracle: N coefficients solved degree by degree from the dense N to L
    system in binary word order, by one Gauss-Jordan elimination per degree
    with the L vector of every element as a target."""
    in_l = [qsym.convert(q, "L") for q in samples]
    solved = [{(): q.terms[()]} if () in q.terms else {} for q in in_l]
    for n in sorted({comp.weight(c) for q in in_l for c in q.terms} - {0}):
        order = qsym.ordered_compositions(n)
        index = {c: i for i, c in enumerate(order)}
        columns = []
        for alpha in order:
            column = [0] * len(order)
            for c, v in qsym.nbasis_in_fundamental(alpha):
                column[index[c]] = v
            columns.append(column)
        which = [i for i, q in enumerate(in_l) if any(comp.weight(c) == n for c in q.terms)]
        targets = [[in_l[i].terms.get(c, 0) for c in order] for i in which]
        for i, solution in zip(which, linalg.solve_columns_many(columns, targets)):
            solved[i].update((alpha, x) for alpha, x in zip(order, solution) if x)
    return [QSymElement("N", terms) for terms in solved]


def test_integer_solve_matches_gauss_jordan(monkeypatch):
    samples = sparse_fractional_elements()
    assert sum(not q.is_integral() for q in samples) >= 150
    assert sum(len(q.degrees()) > 1 and () in q.terms for q in samples) >= 20
    oracle = nbasis_by_gauss_jordan(samples)
    divisions = []

    def fraction(numerator, denominator):
        divisions.append(denominator)
        return Fraction(numerator, denominator)

    def spied(func, *args):
        """func(*args), recording the denominator of every Fraction that
        the element builders make meanwhile."""
        divisions.clear()
        with monkeypatch.context() as patch:
            patch.setattr(elements, "Fraction", fraction)
            return func(*args)

    mixed = 0
    for q, expected in zip(samples, oracle):
        in_n = spied(qsym.convert, q, "N")
        assert in_n == expected
        assert_normalized(in_n)
        # one Fraction per non-integral output term, over the common
        # denominator D of the element's coefficients, and none for an
        # integral term, which D divides exactly
        denom = lcm(*(v.denominator for v in q.terms.values()))
        fractional = sum(not isinstance(v, int) for v in in_n.terms.values())
        assert divisions == [denom] * fractional
        mixed += denom > 1 and fractional < len(in_n.terms)
        assert qsym.convert(in_n, q.basis) == q
    # the samples where D > 1 divides some output numerator exactly
    assert mixed >= 100
    # an integral tensor converts with no Fraction at all
    ones = QSymElement("N", {c: 1 for c in comp.compositions(8)})
    delta = qsym.coproduct_monomial(ones)
    assert len(delta.terms) == 704
    assert spied(qsym.tensor_convert, delta, "N").terms
    assert divisions == []


def test_transition_matrix_n2():
    tm = qsym.transition_matrix(2, "N", "L")
    assert tm.order == ((2,), (1, 1))
    assert tm.as_lists() == [[1, 1], [0, 1]]
    assert tm.entry((2,), (1, 1)) == 1


def test_transition_matrix_dimension_and_determinant():
    for n in range(1, 7):
        tm = qsym.transition_matrix(n, "N", "L")
        assert len(tm.order) == 2 ** (n - 1)
        assert abs(linalg.determinant(tm.as_lists())) == 1
        inverse = qsym.transition_matrix(n, "L", "N")
        assert all(isinstance(v, int) for row in inverse.rows for v in row)


def _in_binary_word_order(order, rows):
    """The same matrix with rows and columns permuted into binary word order."""
    perm = sorted(range(len(order)), key=lambda i: comp.binary_word(order[i]))
    return (
        tuple(order[i] for i in perm),
        tuple(tuple(rows[i][j] for j in perm) for i in perm),
    )


def test_nl_unitriangular_matrix():
    for n in range(1, 8):
        order, rows = qsym.nl_unitriangular_matrix(n)
        for i, row in enumerate(rows):
            assert row[i] == 1
            assert all(v == 0 for v in row[:i])
            assert all(isinstance(v, int) and v >= 0 for v in row)
        # binary word ordering keeps the unit diagonal but not triangularity
        order_bw, rows_bw = _in_binary_word_order(order, rows)
        assert all(rows_bw[i][i] == 1 for i in range(len(order_bw)))
    _, rows4 = _in_binary_word_order(*qsym.nl_unitriangular_matrix(4))
    assert any(
        rows4[i][j] != 0 for i in range(len(rows4)) for j in range(i)
    ), "binary word order happens to triangularize degree 4"
    # n is read as transition_matrix reads it
    for n, message in (
        (0, "N to L matrices are defined for degree >= 1"),
        ("3", "N to L matrix degree must be an integer, got '3'"),
    ):
        with pytest.raises(ValidationError) as info:
            qsym.nl_unitriangular_matrix(n)
        assert str(info.value) == message


def test_mul_examples():
    p = qsym.mul(qsym.monomial_element((1,)), qsym.monomial_element((1, 1)))
    assert p.terms == {(1, 1, 1): 3, (2, 1): 1, (1, 2): 1}
    one = QSymElement.one("M")
    q = QSymElement("M", {(2, 1): 3, (1,): -2})
    assert qsym.mul(one, q) == q


def test_products_put_the_sum_over_both_denominators():
    # mul and nbasis_product share one bilinear loop: each pair of terms is
    # weighted by its numerators, over the product of the two denominators
    half, third = Fraction(1, 2), Fraction(1, 3)
    m = qsym.mul(QSymElement("M", {(1,): half}), QSymElement("M", {(1,): third, (2,): 1}))
    assert m.terms == {
        (1, 1): Fraction(1, 3),
        (2,): Fraction(1, 6),
        (1, 2): half,
        (2, 1): half,
        (3,): half,
    }
    n = qsym.nbasis_product(
        QSymElement("N", {(1,): half}), QSymElement("N", {(1,): third, (1, 1): 1})
    )
    assert n.terms == {(2,): Fraction(1, 6), (2, 1): half, (1, 1, 1): half}


def test_mul_commutative_associative():
    rng = random.Random(31)
    for _ in range(15):
        a = random_element(rng, "M", max_degree=3, terms=2)
        b = random_element(rng, "L", max_degree=3, terms=2)
        c = random_element(rng, "N", max_degree=2, terms=2)
        ab = qsym.mul(a, b)
        assert ab == qsym.mul(b, a)
        assert qsym.mul(ab, c) == qsym.mul(a, qsym.mul(b, c))


def test_structure_constants_examples():
    assert dict(qsym.structure_constants((1,), (1,))) == {(2,): 1}
    assert dict(qsym.structure_constants((1,), (1, 1))) == {(2, 1): 1, (1, 1, 1): 1}
    assert dict(qsym.structure_constants((), (2, 1))) == {(2, 1): 1}


def _structure_constants_by_enumeration(left, right):
    """Oracle: list every induced ordered partition of the product poset and
    count them by type."""
    if not left:
        return {right: 1}
    if not right:
        return {left: 1}
    poset, (high, low) = nbasis_product_poset(left, right)
    parts = [p for p in (high, low) if p]
    counts = {}
    for induced in induced_ordered_partitions(poset, parts):
        typ = comp.partition_type(induced)
        counts[typ] = counts.get(typ, 0) + 1
    return counts


def test_structure_constants_match_enumeration():
    pairs = 0
    for total in range(9):
        for wa in range(total + 1):
            for alpha in comp.compositions(wa):
                for beta in comp.compositions(total - wa):
                    expected = _structure_constants_by_enumeration(alpha, beta)
                    table = as_dict(qsym.structure_constants(alpha, beta))
                    assert table == expected, (alpha, beta)
                    pairs += 1
    assert pairs == 1280


def test_structure_constants_are_symmetric():
    fives = list(comp.compositions(5))
    for alpha in fives:
        for beta in fives:
            assert as_dict(qsym.structure_constants(alpha, beta)) == as_dict(
                qsym.structure_constants(beta, alpha)
            ), (alpha, beta)


def _clear_structure_tables():
    qsym._structure_constants.cache_clear()
    qsym._block_suffixes.cache_clear()


def test_structure_constants_do_not_depend_on_call_order():
    # the block-suffix table is shared by every pair and filled on demand,
    # so the entries an earlier pair left behind must not change a later one
    pairs = [
        (alpha, beta)
        for total in range(8)
        for wa in range(total + 1)
        for alpha in comp.compositions(wa)
        for beta in comp.compositions(total - wa)
    ]
    _clear_structure_tables()
    forward = {pair: as_dict(qsym.structure_constants(*pair)) for pair in pairs}
    random.Random(53).shuffle(pairs)
    _clear_structure_tables()
    shuffled = {pair: as_dict(qsym.structure_constants(*pair)) for pair in pairs}
    assert len(pairs) == 576
    assert shuffled == forward


def test_mul_nbasis_matches_oracle_small():
    for total in range(2, 7):
        for wa in range(1, total):
            for alpha in comp.compositions(wa):
                if not alpha:
                    continue
                for beta in comp.compositions(total - wa):
                    if not beta:
                        continue
                    direct = qsym.convert(qsym.mul_nbasis(alpha, beta), "M")
                    oracle = qsym.mul(
                        qsym.convert(QSymElement.single("N", alpha), "M"),
                        qsym.convert(QSymElement.single("N", beta), "M"),
                    )
                    assert direct == oracle


def test_nbasis_product_element_dispatch():
    a = QSymElement("N", {(1,): 2})
    b = QSymElement("N", {(1, 1): 1})
    assert (a * b).terms == {(2, 1): 2, (1, 1, 1): 2}
    assert (a * b).basis == "N"


def test_coproduct_examples():
    t = qsym.coproduct_monomial(qsym.monomial_element((1, 1)))
    assert t.terms == {((1, 1), ()): 1, ((1,), (1,)): 1, ((), (1, 1)): 1}
    unit = qsym.coproduct_monomial(QSymElement.one("M"))
    assert unit.terms == {((), ()): 1}


def test_coproduct_counit_and_coassociativity():
    rng = random.Random(41)
    for _ in range(20):
        q = random_element(rng, "M", max_degree=5, terms=2)
        t = qsym.coproduct_monomial(q)
        left = {}
        right = {}
        for (a, b), coeff in t.terms.items():
            if a == ():
                right[b] = right.get(b, 0) + coeff
            if b == ():
                left[a] = left.get(a, 0) + coeff
        m = qsym.convert(q, "M")
        assert left == m.terms and right == m.terms
        # both double coproducts agree as triple splittings
        first = {}
        for (a, b), coeff in t.terms.items():
            for cut in range(len(a) + 1):
                key = (a[:cut], a[cut:], b)
                first[key] = first.get(key, 0) + coeff
        second = {}
        for (a, b), coeff in t.terms.items():
            for cut in range(len(b) + 1):
                key = (a, b[:cut], b[cut:])
                second[key] = second.get(key, 0) + coeff
        first = {k: v for k, v in first.items() if v}
        second = {k: v for k, v in second.items() if v}
        assert first == second


def test_coproduct_rank_grading_counterexample():
    delta = qsym.coproduct_monomial(QSymElement.single("N", (1, 1)))
    in_n = qsym.tensor_convert(delta, "N")
    assert in_n.coefficient((1,), (1,)) == 1
    assert comp.rank((1,)) + comp.rank((1,)) != comp.rank((1, 1))


def test_supp_and_Vnr():
    assert qsym.supp(QSymElement.single("N", (1, 2, 2))) == frozenset({(1, 2, 2)})
    assert qsym.supp(QSymElement.zero("N")) == frozenset()
    assert qsym.in_Vnr(QSymElement.single("N", (1, 2, 2)), 5, 3)
    assert not qsym.in_Vnr(QSymElement.single("N", (1, 2, 2)), 5, 2)
    from math import comb

    for n in range(1, 11):
        counts = [0] * (n + 1)
        for c in qsym.ordered_compositions(n):
            counts[comp.rank(c)] += 1
        assert counts == [0] + [comb(n - 1, r - 1) for r in range(1, n + 1)]


def test_quotient_projection():
    assert qsym.quotient_J_project(QSymElement.single("N", (1,))) == QSymElement.zero("N")
    q = QSymElement("N", {(2, 1, 1): 1, (2, 2): 1})
    assert qsym.quotient_J_project(q).terms == {(2, 2): 1}
    rng = random.Random(47)
    for _ in range(20):
        a = random_element(rng, "N", max_degree=5)
        b = random_element(rng, "N", max_degree=5)
        proj = qsym.quotient_J_project
        assert proj(a + b) == proj(a) + proj(b)
        assert proj(proj(a)) == proj(a)


def test_divide_by_pure_power():
    assert qsym.divide_by_pure_power(QSymElement.single("N", (2,)), 1).terms == {(1,): 1}
    with pytest.raises(NotDivisibleError):
        qsym.divide_by_pure_power(QSymElement.single("N", (1, 1)), 1)
    with pytest.raises(NotDivisibleError):
        qsym.divide_by_pure_power(QSymElement.single("N", (2,)), 3)
    with pytest.raises(ValidationError):
        qsym.divide_by_pure_power(QSymElement.single("N", (2,)), 0)
    with pytest.raises(ValidationError):
        qsym.divide_by_pure_power(QSymElement("N", {(2,): 1, (3,): 1}), 1)
    assert qsym.divide_by_pure_power(QSymElement.zero("L"), 2) == QSymElement.zero("N")
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(1, 5)
        s = rng.randint(1, 3)
        cands = [c for c in comp.compositions(n) if c]
        q = QSymElement(
            "N", {rng.choice(cands): rng.randint(1, 3), rng.choice(cands): -2}
        )
        product = qsym.nbasis_product(QSymElement.single("N", (s,)), q)
        assert qsym.divide_by_pure_power(product, s) == qsym.convert(q, "N")


@pytest.mark.parametrize("s", ["2", 2.0, True], ids=["string", "float", "bool"])
def test_divide_by_pure_power_rejects_non_int_exponent(s):
    for element in (QSymElement.single("N", (2, 1)), QSymElement.zero("N")):
        with pytest.raises(ValidationError):
            qsym.divide_by_pure_power(element, s)


def _divide_by_gauss_jordan(element, s):
    """Oracle: N_(s) * p == element solved rank by rank as a linear system
    (the N product adds ranks), then checked by multiplying back."""
    q = qsym.convert(element, "N")
    if not q:
        return QSymElement.zero("N")
    n = q.degree()
    if n < s:
        raise NotDivisibleError("degree below the divisor degree")
    by_rank = {}
    for c, coeff in q.terms.items():
        by_rank.setdefault(comp.rank(c), {})[c] = coeff
    result = {}
    for r_total, terms in by_rank.items():
        candidates = [c for c in qsym.ordered_compositions(n - s) if comp.rank(c) == r_total - s]
        if not candidates:
            raise NotDivisibleError("no quotient rank")
        row_space = [c for c in qsym.ordered_compositions(n) if comp.rank(c) == r_total]
        row_index = {c: i for i, c in enumerate(row_space)}
        columns = []
        for beta in candidates:
            col = [0] * len(row_space)
            for c, k in qsym.structure_constants((s,), beta):
                col[row_index[c]] += k
            columns.append(col)
        solution = linalg.solve_columns(columns, [terms.get(c, 0) for c in row_space])
        if solution is None:
            raise NotDivisibleError("inconsistent system")
        for beta, value in zip(candidates, solution):
            if value:
                result[beta] = value
    quotient = QSymElement("N", result)
    if qsym.nbasis_product(QSymElement.single("N", (s,)), quotient) != q:
        raise NotDivisibleError("the product does not match")
    return quotient


def _quotient_or_none(divide, element, s):
    try:
        return divide(element, s)
    except NotDivisibleError:
        return None


def test_divide_by_pure_power_matches_gauss_jordan():
    for w in range(7):
        for beta in comp.compositions(w):
            for s in (1, 2, 3):
                product = qsym.nbasis_product(
                    QSymElement.single("N", (s,)), QSymElement.single("N", beta)
                )
                quotient = qsym.divide_by_pure_power(product, s)
                assert quotient.terms == {beta: 1}
                assert quotient.is_integral()
                assert _divide_by_gauss_jordan(product, s) == quotient
    rng = random.Random(61)
    not_divisible = 0
    for _ in range(150):
        n, s = rng.randint(1, 5), rng.randint(1, 3)
        cands = [c for c in comp.compositions(n) if c]
        p = QSymElement(
            "N",
            {
                rng.choice(cands): Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                rng.choice(cands): Fraction(1, 3),
            },
        )
        product = qsym.nbasis_product(QSymElement.single("N", (s,)), p)
        assert qsym.divide_by_pure_power(product, s) == p
        assert _divide_by_gauss_jordan(product, s) == p
        extra = [c for c in comp.compositions(n + s) if c]
        perturbed = product + QSymElement.single("N", rng.choice(extra), rng.randint(1, 2))
        expected = _quotient_or_none(_divide_by_gauss_jordan, perturbed, s)
        assert _quotient_or_none(qsym.divide_by_pure_power, perturbed, s) == expected
        not_divisible += expected is None
    assert not_divisible >= 100


def test_quasi_shuffle_counts():
    qs = dict(qsym.quasi_shuffle((1,), (1, 1)))
    assert qs == {(1, 1, 1): 3, (2, 1): 1, (1, 2): 1}
    assert dict(qsym.quasi_shuffle((), (3, 1))) == {(3, 1): 1}


def test_quasi_shuffle_matches_overlapping_shuffles():
    # every pair of total weight <= 7, most of them of two different
    # weights, so keys that collided across degrees would show
    pairs = 0
    for total in range(8):
        for wa in range(total + 1):
            for alpha in comp.compositions(wa):
                for beta in comp.compositions(total - wa):
                    expected = quasi_shuffle_by_overlaps(alpha, beta)
                    assert as_dict(qsym.quasi_shuffle(alpha, beta)) == expected, (alpha, beta)
                    pairs += 1
    assert pairs == 576


def test_product_tables_face_the_api_with_compositions():
    # the tables hold int keys; their public faces and mul_nbasis name them
    for face in (qsym.quasi_shuffle, qsym.structure_constants):
        terms = face((1, 2), [2])
        assert terms
        for c, count in terms:
            assert type(c) is tuple and all(type(part) is int for part in c)
            assert sum(c) == 5 and type(count) is int
        assert face.cache_info().currsize >= 1
    assert qsym.mul_nbasis((1,), (1,)).terms == {(2,): 1}
    assert qsym.mul_nbasis((), ()).terms == {(): 1}
    # every term is named through the one memo of decoded keys, at any
    # weight, and a second lookup hands back the stored tuples
    terms = qsym.structure_constants((7,), (3, 3))
    table = qsym._structure_constants(qsym._key((7,)), qsym._key((3, 3)))
    assert all(sum(c) == 13 for c, _ in terms)
    assert {qsym._key(c): count for c, count in terms} == dict(table)
    again = qsym.structure_constants([7], [3, 3])
    assert all(c is d for (c, _), (d, _) in zip(terms, again))


COMPOSITION_TABLES = [
    ("nbasis_in_fundamental", [(1, 2)]),
    ("structure_constants", [(1,), (1,)]),
    ("quasi_shuffle", [(1,), (2,)]),
    ("refinements_of", [(2, 1)]),
]


@pytest.mark.parametrize("name, args", COMPOSITION_TABLES, ids=[n for n, _ in COMPOSITION_TABLES])
def test_composition_tables_accept_lists_and_reject_bad_parts(name, args):
    table = getattr(qsym, name)
    assert table(*map(list, args)) == table(*args)
    for bad in ([1, 0], [1.5], ("2",), [True]):
        with pytest.raises(ValidationError):
            table(bad, *args[1:])
    info = table.cache_info()
    assert info.currsize >= 1 and info.hits >= 1
    table.cache_clear()
    assert table.cache_info().currsize == 0


def test_json_and_formatting():
    q = QSymElement("N", {(2, 2): Fraction(1, 2), (1, 1, 1, 1): -3})
    data = q.to_json()
    assert data["terms"][0]["comp"] == [2, 2]
    assert data["terms"][0]["num"] == 1 and data["terms"][0]["den"] == 2
    assert QSymElement.from_json(data) == q
    text = format_element(q)
    assert "N[22]" in text and "N[1111]" in text
    with pytest.raises(ValidationError):
        QSymElement.from_json({"basis": "N", "terms": [{"comp": [1], "num": 1, "den": 0}]})


def test_element_json_decoding_is_strict():
    good = {"comp": [2, 1], "num": 3, "den": 2}
    assert QSymElement.from_json({"basis": "M", "terms": [good]}).terms == {(2, 1): Fraction(3, 2)}
    assert QSymElement.from_json({"basis": "M", "terms": [{"comp": [1], "num": 2}]}).terms == {(1,): 2}
    bad_terms = ["abc", {"comp": [1], "num": 1}, [[1]], [{"num": 1}], [{"comp": [1], "den": 1}]]
    for wrong in (2.7, 2.0, True, "2"):
        bad_terms.append([{**good, "comp": [wrong]}])
        bad_terms.append([{**good, "num": wrong}])
        bad_terms.append([{**good, "den": wrong}])
    bad_terms.append([{**good, "comp": "21"}])
    for terms in bad_terms:
        with pytest.raises(ValidationError):
            QSymElement.from_json({"basis": "M", "terms": terms})


def test_term_json_ordering_by_degree_then_word():
    q = QSymElement("M", {(1, 1): 1, (2,): 1, (1,): 1, (3,): 1})
    comps = [tuple(t["comp"]) for t in q.to_json()["terms"]]
    assert comps == [(1,), (2,), (1, 1), (3,)]


def test_shared_caches_are_thread_safe():
    # elements are immutable and the memoized tables are write-once; racing
    # conversions must agree with the serial result
    import threading

    q = QSymElement("M", {c: Fraction(1, len(c) + 1) for n in range(8) for c in comp.compositions(n)})
    expected = qsym.convert(q, "N")
    # every memo table that the M to N route reads
    for table in (
        qsym._descent_classes,
        qsym._rows,
        qsym._mask_compositions,
    ):
        table.cache_clear()
    results = [None] * 8
    def work(i):
        results[i] = qsym.convert(q, "N")
    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)


def test_shared_structure_tables_are_thread_safe():
    # racing dense N products fill the shared block-suffix table together;
    # each must agree with the serial product
    import threading

    fives = list(comp.compositions(5))
    a = QSymElement("N", {c: i + 1 for i, c in enumerate(fives)})
    b = QSymElement("N", {c: Fraction(i - 7, 3) for i, c in enumerate(fives)})
    expected = qsym.nbasis_product(a, b)
    _clear_structure_tables()
    results = [None] * 8
    def work(i):
        results[i] = qsym.nbasis_product(a, b)
    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
