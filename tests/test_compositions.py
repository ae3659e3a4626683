import random
from itertools import permutations

import pytest

from _poset_oracle import binary_word_cmp, induced_partition_by_type
from nqsym import compositions as comp
from nqsym import qsym
from nqsym.elements import QSymElement, TensorElement
from nqsym.errors import ValidationError


def all_compositions_upto(n):
    for k in range(n + 1):
        yield from comp.compositions(k)


def test_weight():
    assert comp.weight((1, 2, 2)) == 5
    assert comp.weight(()) == 0
    assert comp.weight((1, 5, 6, 3, 2, 3)) == 20


def test_rank_odd_indexed_parts():
    assert comp.rank((1, 2, 2)) == 3
    assert comp.rank(()) == 0
    assert comp.rank((2, 3)) == 2


def test_rank_plus_even_rank_is_weight():
    for c in all_compositions_upto(8):
        assert comp.rank(c) + sum(c[1::2]) == comp.weight(c)


def test_subset_bijection_examples():
    assert comp.composition_to_subset((1, 2, 2)) == frozenset({1, 3})
    assert comp.subset_to_composition(set(), 4) == (4,)
    with pytest.raises(ValidationError):
        comp.subset_to_composition({5}, 4)


def test_subset_bijection_round_trip():
    for n in range(0, 11):
        seen = set()
        for c in comp.compositions(n):
            s = comp.composition_to_subset(c)
            assert comp.subset_to_composition(s, n) == c
            seen.add(s)
        assert len(seen) == (2 ** (n - 1) if n else 1)


def test_refines():
    assert comp.refines((1, 1, 3), (1, 4))
    assert not comp.refines((2, 3), (3, 2))
    assert comp.refines((5,), (5,))


def test_refines_partial_order_with_extremes():
    n = 6
    comps = list(comp.compositions(n))
    for a in comps:
        assert comp.refines(a, (n,))
        assert comp.refines((1,) * n, a)
        for b in comps:
            if comp.refines(a, b) and comp.refines(b, a):
                assert a == b
            for c in comps:
                if comp.refines(a, b) and comp.refines(b, c):
                    assert comp.refines(a, c)


def test_reversal():
    assert comp.reversal((1, 2, 2)) == (2, 2, 1)
    assert comp.reversal(()) == ()
    for c in all_compositions_upto(8):
        assert comp.reversal(comp.reversal(c)) == c


def test_runs_examples():
    assert comp.runs((9, 3, 4, 7, 5, 6, 2, 1, 8)) == (1, 3, 2, 1, 2)
    assert comp.runs((1, 2, 3, 4, 5)) == (5,)
    assert comp.runs((5, 4, 3, 2, 1)) == (1, 1, 1, 1, 1)
    with pytest.raises(ValidationError):
        comp.runs(())


def test_rho_example():
    w = (1, 8, 4, 3, 5, 6, 7, 2, 9)
    assert comp.ascent_word(w) == "110011101"
    assert comp.rho(w) == (2, 2, 3, 1, 1)
    assert comp.rho(tuple(range(1, 7))) == (6,)


def test_rho_runs_bijection_exhaustive():
    for n in range(1, 8):
        for w in permutations(range(1, n + 1)):
            assert comp.runs_to_rho(comp.runs(w)) == comp.rho(w)
            assert comp.rho_to_runs(comp.rho(w)) == comp.runs(w)


def test_binary_word_order_example():
    assert comp.binary_word((2, 1)) == "001"
    assert comp.binary_word((3,)) == "000"
    assert binary_word_cmp((3,), (2, 1)) < 0
    assert binary_word_cmp((1, 2), (1, 2)) == 0
    with pytest.raises(ValidationError):
        binary_word_cmp((2,), (2, 1))


def test_binary_word_order_total_on_fixed_weight():
    comps = list(comp.compositions(6))
    words = [comp.binary_word(c) for c in comps]
    assert len(set(words)) == len(comps)
    for a in comps:
        for b in comps:
            ab = binary_word_cmp(a, b)
            ba = binary_word_cmp(b, a)
            assert ab == -ba
            if ab == 0:
                assert a == b


def test_term_order_key_is_weight_then_binary_word():
    pooled = [c for n in range(12) for c in comp.compositions(n)]
    random.Random(5).shuffle(pooled)
    keys = {comp.term_order_key(c) for c in pooled}
    assert len(keys) == len(pooled) == 2 ** 11
    expected = sorted(pooled, key=lambda c: (comp.weight(c), comp.binary_word(c)))
    assert sorted(pooled, key=comp.term_order_key) == expected


def test_term_order_key_is_one_int_marked_by_weight():
    # 2^(n-1) plus the binary word as a number, its leading zero most
    # significant, so weight n fills [2^(n-1), 2^n)
    assert comp.term_order_key(()) == 0
    assert comp.term_order_key((1,)) == 0b1
    assert comp.term_order_key((3,)) == 0b100
    assert comp.term_order_key((2, 1)) == 0b101
    assert comp.term_order_key((1, 2, 1)) == 0b1110
    for n in range(1, 10):
        keys = sorted(comp.term_order_key(c) for c in comp.compositions(n))
        assert keys == list(range(2 ** (n - 1), 2 ** n))


def test_triangular_order_extends_refinement_but_binary_word_does_not():
    # the strict refinement (1,1,1) of (1,2) sorts before it in binary word
    # order, so that order cannot certify triangularity; the length-major
    # order always places refinements later
    assert comp.binary_word((1, 1, 1)) < comp.binary_word((1, 2))
    assert comp.refines((1, 1, 1), (1, 2))
    for n in range(1, 8):
        for a in comp.compositions(n):
            for b in comp.compositions(n):
                if a != b and comp.refines(b, a):
                    assert comp.triangular_order_key(a) < comp.triangular_order_key(b)


def test_segmentation():
    segs = comp.segment((2, 7, 5, 1, 8), (2, 1, 2))
    assert segs == ((2, 7), (5,), (1, 8))
    induced = induced_partition_by_type((2, 7, 5, 1, 8), (2, 1, 2))
    assert induced == (frozenset({2, 7}), frozenset({5}), frozenset({1, 8}))
    assert induced_partition_by_type((2, 7, 5), (3,)) == (frozenset({2, 5, 7}),)
    with pytest.raises(ValidationError):
        comp.segment((1, 2, 3), (2, 2))


def test_type_recovered_from_induced_partition():
    import random

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 9)
        word = tuple(rng.sample(range(1, 30), n))
        typ = []
        left = n
        while left:
            part = rng.randint(1, left)
            typ.append(part)
            left -= part
        induced = induced_partition_by_type(word, tuple(typ))
        assert comp.partition_type(induced) == tuple(typ)


def test_fibre_example_and_count():
    K = comp.as_ordered_partition([{2, 7}, {5}, {1, 8}])
    assert set(comp.fibre(K)) == {
        (2, 7, 5, 1, 8),
        (2, 7, 5, 8, 1),
        (7, 2, 5, 1, 8),
        (7, 2, 5, 8, 1),
    }
    singles = comp.as_ordered_partition([{3}, {1}, {9}])
    assert list(comp.fibre(singles)) == [(3, 1, 9)]


def test_fibre_sizes_and_partition_of_symmetric_group():
    import math

    for n in range(1, 6):
        for typ in comp.compositions(n):
            if not typ:
                continue
            seen = set()
            total = 0
            for w in permutations(range(1, n + 1)):
                K = induced_partition_by_type(w, typ)
                if K in seen:
                    continue
                seen.add(K)
                fib = list(comp.fibre(K))
                assert len(fib) == math.prod(math.factorial(len(b)) for b in K)
                assert w in set(comp.fibre(induced_partition_by_type(w, typ)))
                total += len(fib)
            assert total == math.factorial(n)


def test_induced_partition_by_set_partition_example():
    T = comp.as_set_partition([{1, 4}, {2, 6, 8, 9}, {3, 5, 7}])
    K = comp.induced_partition_by_set_partition((9, 6, 5, 4, 1, 2, 3, 7, 8), T)
    assert K == tuple(
        frozenset(b) for b in [{6, 9}, {5}, {1, 4}, {2}, {3, 7}, {8}]
    )
    single = comp.as_set_partition([{1, 2, 3}])
    assert comp.induced_partition_by_set_partition((2, 3, 1), single) == (
        frozenset({1, 2, 3}),
    )
    singletons = comp.as_set_partition([{1}, {2}, {3}])
    assert comp.induced_partition_by_set_partition((2, 3, 1), singletons) == (
        frozenset({2}),
        frozenset({3}),
        frozenset({1}),
    )
    # the empty word induces the empty ordered partition
    assert comp.induced_partition_by_set_partition((), frozenset()) == ()


def test_induced_partition_respects_blocks():
    import random

    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 9)
        word = tuple(rng.sample(range(1, 20), n))
        blocks = {}
        for x in word:
            blocks.setdefault(rng.randint(0, 2), set()).add(x)
        T = comp.as_set_partition(blocks.values())
        block_of = {x: b for b in T for x in b}
        K = comp.induced_partition_by_set_partition(word, T)
        for piece in K:
            assert len({block_of[x] for x in piece}) == 1
        for left, right in zip(K, K[1:]):
            assert block_of[next(iter(left))] != block_of[next(iter(right))]


def test_is_alternating():
    assert comp.is_alternating(comp.as_ordered_partition([{2, 3}, {1}]))
    assert not comp.is_alternating(comp.as_ordered_partition([{1}, {2, 3}]))
    assert comp.is_alternating(comp.as_ordered_partition([{4, 9}]))


def test_permutation_validation():
    with pytest.raises(ValidationError):
        comp.as_permutation((1, 2, 1))
    with pytest.raises(ValidationError):
        comp.as_composition((1, 0, 2))
    with pytest.raises(ValidationError):
        comp.as_ordered_partition([{1, 2}, {2, 3}])


@pytest.mark.parametrize(
    "build",
    [
        lambda: QSymElement("N", {(2.7, True): 1}),
        lambda: qsym.structure_constants((1.9,), (2,)),
        lambda: comp.as_composition(("3",)),
    ],
    ids=["float-and-bool-element-key", "float-structure-constants-factor", "string-part"],
)
def test_non_int_parts_are_rejected_not_truncated(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "parts",
    [(2.7, 0, True), (1, 0, "3"), (2.0, 1), (True, 2)],
    ids=["float-zero-bool", "string", "integral-float", "bool"],
)
def test_drop_zero_parts_rejects_non_int_parts(parts):
    with pytest.raises(ValidationError):
        comp.drop_zero_parts(parts)


@pytest.mark.parametrize(
    "build",
    [
        lambda: comp.as_permutation([1.5, 2.9, "3"]),
        lambda: comp.as_ordered_partition([[1.5, True], ["3"]]),
        lambda: comp.as_set_partition([[1.5, True], ["3"]]),
    ],
    ids=["permutation", "ordered-partition", "set-partition"],
)
def test_python_constructors_reject_non_int_entries(build):
    # int() would read these as (1, 2, 3) and ({1}, {3})
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: comp.as_composition(5), "composition must be a collection, got 5"),
        (lambda: QSymElement("N", {5: 1}), "composition must be a collection, got 5"),
        (lambda: QSymElement.single("N", 5), "composition must be a collection, got 5"),
        (lambda: QSymElement("N", [5]), "a term must be a (key, coefficient) pair, got 5"),
        (
            lambda: QSymElement("N", [((1,),)]),
            "a term must be a (key, coefficient) pair, got ((1,),)",
        ),
        (
            lambda: TensorElement("M", {5: 1}),
            "a tensor key must be a pair of compositions, got 5",
        ),
        (
            lambda: TensorElement("M", {((1,),): 1}),
            "a tensor key must be a pair of compositions, got ((1,),)",
        ),
        (lambda: comp.as_permutation(5), "permutation must be a collection, got 5"),
        (lambda: comp.as_set_partition(5), "set partition must be a collection, got 5"),
        (lambda: comp.as_ordered_partition([5]), "a block must be a collection, got 5"),
    ],
    ids=[
        "as_composition",
        "element-key",
        "single",
        "term-not-a-pair",
        "term-of-one",
        "tensor-key-not-a-pair",
        "tensor-key-of-one",
        "as_permutation",
        "as_set_partition",
        "ordered-partition-block",
    ],
)
def test_malformed_compositions_and_terms_are_named(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def test_drop_zero_parts_drops_zeros_and_rejects_negatives():
    assert comp.drop_zero_parts((2, 0)) == (2,)
    assert comp.drop_zero_parts((0, 1, 0, 3)) == (1, 3)
    assert comp.drop_zero_parts((0,)) == ()
    with pytest.raises(ValidationError):
        comp.drop_zero_parts((2, -1))


def test_json_codecs():
    K = comp.as_ordered_partition([{2, 7}, {5}])
    assert comp.ordered_partition_from_json(comp.ordered_partition_to_json(K)) == K
    T = comp.as_set_partition([{3, 1}, {2}])
    assert comp.set_partition_from_json(comp.set_partition_to_json(T)) == T
    assert comp.composition_from_json([1, 2, 2]) == (1, 2, 2)


def test_ordered_partition_json_rejects_non_integers():
    for bad in (1.5, True, "2"):
        with pytest.raises(ValidationError):
            comp.ordered_partition_from_json([[1, bad], [3]])
    for bad in ("12", 1, None):
        with pytest.raises(ValidationError):
            comp.ordered_partition_from_json([bad])


def test_set_partition_json_rejects_non_integers():
    for bad in (1.5, True, "2"):
        with pytest.raises(ValidationError):
            comp.set_partition_from_json([[1, bad], [3]])
    for bad in ("12", 1, None):
        with pytest.raises(ValidationError):
            comp.set_partition_from_json([bad])


def test_parse_and_format():
    assert comp.parse_composition_text("1,2,2") == (1, 2, 2)
    assert comp.parse_composition_text("122") == (1, 2, 2)
    assert comp.parse_composition_text("12,") == (12,)
    assert comp.parse_composition_text("7") == (7,)
    assert comp.format_composition((1, 2, 2)) == "122"
    assert comp.format_composition((1, 12)) == "(1,12)"
    assert comp.format_composition(()) == "0"
