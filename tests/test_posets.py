import math
import random

import pytest

from _poset_oracle import (
    disjoint_sum_relabeled,
    induced_ordered_partitions,
    nbasis_product_poset,
)
from nqsym import compositions as comp
from nqsym.elements import QSymElement
from nqsym.errors import ResourceLimitError, ValidationError
from nqsym.posets import (
    LabeledPoset,
    antichain,
    build_P_K,
    build_P_alpha,
    chain,
    decompose_by,
    is_antichain_inducing,
    labeling_kind,
    linear_extensions,
    ordinal_sum,
    qsym_of_poset,
    relabeled,
)
from nqsym.qsym import mul, convert


def random_poset(rng, labels):
    labels = sorted(labels)
    relations = []
    for i, lo in enumerate(labels):
        for hi in labels[i + 1 :]:
            if rng.random() < 0.35:
                if rng.random() < 0.5:
                    relations.append((lo, hi))
                else:
                    relations.append((hi, lo))
    try:
        return LabeledPoset(labels, relations)
    except ValidationError:
        return random_poset(rng, labels)


def test_construction_rejects_cycles_and_bad_labels():
    with pytest.raises(ValidationError):
        LabeledPoset([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(ValidationError):
        LabeledPoset([1, 2], [(1, 3)])
    with pytest.raises(ValidationError):
        LabeledPoset([0, 1])


def test_construction_rejects_non_int_labels():
    # int() would read this as labels (1, 2) with the cover (1, 2)
    with pytest.raises(ValidationError):
        LabeledPoset([1.5, 2.9, True], [(1.2, 2.7)])
    for bad in (1.5, True, "2"):
        with pytest.raises(ValidationError):
            LabeledPoset([1, bad])
        with pytest.raises(ValidationError):
            LabeledPoset([1, 2], [(1, bad)])


def test_relabeled_rejects_non_int_labels():
    # int() would relabel the chain 1 < 2 as 3 < 1
    with pytest.raises(ValidationError):
        relabeled(chain([1, 2]), {1: 3.7, 2: 1.2})
    with pytest.raises(ValidationError):
        relabeled(chain([1, 2]), {1.0: 3, 2: 4})
    assert relabeled(chain([1, 2]), {1: 3, 2: 1}).covers == frozenset({(3, 1)})


def test_covers_are_transitive_reduction():
    p = chain([1, 2, 3])
    assert p.covers == frozenset({(1, 2), (2, 3)})
    assert p.less(1, 3)
    q = LabeledPoset([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert q == p


def test_linear_extensions_of_P122():
    p = build_P_alpha((1, 2, 2))
    assert list(linear_extensions(p)) == [
        (3, 1, 2, 4, 5),
        (3, 1, 2, 5, 4),
        (3, 2, 1, 4, 5),
        (3, 2, 1, 5, 4),
    ]


def test_linear_extensions_counts():
    assert len(list(linear_extensions(antichain([1, 2, 3])))) == 6
    assert list(linear_extensions(chain([1, 2, 3]))) == [(1, 2, 3)]
    for n in range(1, 6):
        assert len(list(linear_extensions(antichain(range(1, n + 1))))) == math.factorial(n)


def test_linear_extensions_limit():
    with pytest.raises(ResourceLimitError):
        linear_extensions(antichain(range(1, 14)))
    # explicit override allows larger posets
    big = chain(range(1, 14))
    assert len(list(linear_extensions(big, limit=14))) == 1


def test_qsym_of_poset_P122():
    f = qsym_of_poset(build_P_alpha((1, 2, 2)))
    assert f.terms == {(1, 4): 1, (1, 3, 1): 1, (1, 1, 3): 1, (1, 1, 2, 1): 1}


def test_qsym_of_chain_is_single_fundamental():
    for n in range(1, 6):
        f = qsym_of_poset(chain(range(1, n + 1)))
        assert f.terms == {(n,): 1}


def test_relabel_invariance():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        p = random_poset(rng, range(1, n + 1))
        shift = rng.randint(0, 20)
        spread = sorted(rng.sample(range(1, 60), n))
        mapping = {x: spread[i] + shift for i, x in enumerate(sorted(p.labels))}
        q = relabeled(p, mapping)
        assert qsym_of_poset(p) == qsym_of_poset(q)


def test_ordinal_sum_and_disjoint_sum():
    two_chain = ordinal_sum(antichain([1]), antichain([2]))
    assert two_chain == chain([1, 2])
    with pytest.raises(ValidationError):
        ordinal_sum(antichain([1]), antichain([1]))
    rng = random.Random(5)
    for _ in range(20):
        p = random_poset(rng, range(1, rng.randint(2, 5)))
        q = random_poset(rng, range(1, rng.randint(2, 5)))
        both = disjoint_sum_relabeled(p, q)
        assert convert(qsym_of_poset(both), "M") == mul(
            qsym_of_poset(p), qsym_of_poset(q)
        )
    empty = LabeledPoset([])
    p = random_poset(rng, [1, 2, 3])
    assert qsym_of_poset(disjoint_sum_relabeled(p, empty)) == qsym_of_poset(p)


def test_degree_additivity():
    rng = random.Random(9)
    for _ in range(10):
        p = random_poset(rng, range(1, 4))
        q = random_poset(rng, range(1, 5))
        total = qsym_of_poset(ordinal_sum(p, relabeled(q, {x: x + 10 for x in q.labels})))
        assert total.degree() == p.n + q.n


def test_build_P_alpha_labeling():
    p = build_P_alpha((1, 2, 2))
    assert p.covers == frozenset(
        {(3, 1), (3, 2), (1, 4), (1, 5), (2, 4), (2, 5)}
    )
    assert build_P_alpha((4,)) == antichain([1, 2, 3, 4])
    assert build_P_alpha((1, 1)) == chain([2, 1])
    with pytest.raises(ValidationError):
        build_P_alpha(())


def test_unique_extension_with_ascent_runs_equal_to_index():
    for n in range(1, 7):
        for alpha in comp.compositions(n):
            if not alpha:
                continue
            hits = [
                w
                for w in linear_extensions(build_P_alpha(alpha))
                if comp.rho(w) == alpha
            ]
            assert len(hits) == 1
            # the witness ascends inside odd-indexed blocks and descends
            # inside even-indexed ones
            w = hits[0]
            pos = 0
            for i, part in enumerate(alpha):
                block = w[pos : pos + part]
                if i % 2 == 0:
                    assert list(block) == sorted(block)
                else:
                    assert list(block) == sorted(block, reverse=True)
                pos += part


def test_ascent_run_length_never_drops():
    # every extension's ascent-run composition is at least as long as the
    # index composition, and equal-length values never exceed it in the
    # larger-parts-first lexicographic sense
    for n in range(1, 7):
        for alpha in comp.compositions(n):
            if not alpha:
                continue
            for w in linear_extensions(build_P_alpha(alpha)):
                key_w = comp.triangular_order_key(comp.rho(w))
                assert key_w >= comp.triangular_order_key(alpha)


def test_build_P_K_matches_fibre():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 7)
        support = rng.sample(range(1, 20), n)
        blocks = []
        pool = list(support)
        rng.shuffle(pool)
        while pool:
            size = rng.randint(1, len(pool))
            blocks.append(set(pool[:size]))
            pool = pool[size:]
        K = comp.as_ordered_partition(blocks)
        f = qsym_of_poset(build_P_K(K))
        expected = {}
        for w in comp.fibre(K):
            c = comp.runs(w)
            expected[c] = expected.get(c, 0) + 1
        assert f.terms == expected


def test_alternating_partition_gives_nbasis_element():
    from nqsym.qsym import n_basis_element

    cases = [
        [{4, 5}, {1, 2}, {6}],
        [{9}, {2}, {7, 8}],
        [{3, 4, 5}],
    ]
    for blocks in cases:
        K = comp.as_ordered_partition(blocks)
        assert comp.is_alternating(K)
        assert qsym_of_poset(build_P_K(K)) == n_basis_element(comp.partition_type(K))


def test_decompose_by_P122():
    p = build_P_alpha((1, 2, 2))
    # grouping the bottom two levels is not antichain-inducing here: the
    # block {1,2,3} appears induced and contains the relation 3 < 1
    bad = comp.as_set_partition([{1, 2, 3}, {4, 5}])
    assert not is_antichain_inducing(p, bad)
    T = comp.as_set_partition([{1, 2}, {3, 4, 5}])
    assert is_antichain_inducing(p, T)
    induced = decompose_by(p, T)
    total = QSymElement.zero("L")
    for K in induced:
        total = total + qsym_of_poset(build_P_K(K))
    assert total == qsym_of_poset(p)
    levels = comp.as_set_partition([{3}, {1, 2}, {4, 5}])
    assert is_antichain_inducing(p, levels)
    total = QSymElement.zero("L")
    for K in decompose_by(p, levels):
        total = total + qsym_of_poset(build_P_K(K))
    assert total == qsym_of_poset(p)


def test_decompose_by_singletons_is_extension_set():
    p = build_P_alpha((2, 1))
    T = comp.as_set_partition([{1}, {2}, {3}])
    induced = decompose_by(p, T)
    exts = set(linear_extensions(p))
    assert {tuple(next(iter(b)) for b in K) for K in induced} == exts


def test_decompose_by_single_block_on_antichain():
    p = antichain([1, 2, 3])
    T = comp.as_set_partition([{1, 2, 3}])
    assert decompose_by(p, T) == {(frozenset({1, 2, 3}),)}
    assert is_antichain_inducing(p, T)


def test_decompose_by_partitions_extensions():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 6)
        p = random_poset(rng, range(1, n + 1))
        cut = rng.randint(1, n)
        T = comp.as_set_partition(
            [set(range(1, cut + 1)), set(range(cut + 1, n + 1))]
            if cut < n
            else [set(range(1, n + 1))]
        )
        induced = decompose_by(p, T)
        fibres = [set(comp.fibre(K)) for K in induced]
        for i in range(len(fibres)):
            for j in range(i + 1, len(fibres)):
                assert not (fibres[i] & fibres[j])
        if is_antichain_inducing(p, T):
            assert set().union(*fibres) == set(linear_extensions(p))


def test_induced_ordered_partitions_matches_definitional_route():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(2, 6)
        p = random_poset(rng, range(1, n + 1))
        pieces = {}
        for x in p.labels:
            pieces.setdefault(rng.randint(0, 1), set()).add(x)
        parts = [frozenset(v) for v in pieces.values()]
        direct = set(map(tuple, induced_ordered_partitions(p, parts)))
        T = comp.as_set_partition(parts)
        assert direct == decompose_by(p, T)


def test_labeling_kind():
    assert labeling_kind(chain([2, 1])) == "strict"
    assert labeling_kind(chain([1, 2])) == "natural"
    assert labeling_kind(antichain([1, 2, 3])) == "both"
    mixed = LabeledPoset([1, 2, 3], [(1, 2), (3, 2)])
    assert labeling_kind(mixed) == "neither"


def test_product_poset_small_cases():
    q, (high, low) = nbasis_product_poset((1,), (1,))
    assert low == frozenset()
    assert q == antichain([1, 2])
    assert [set(K[0]) for K in induced_ordered_partitions(q, (high,))] == [{1, 2}]

    q, (high, low) = nbasis_product_poset((1,), (1, 1))
    induced = set(map(tuple, induced_ordered_partitions(q, (high, low))))
    assert induced == {
        (frozenset({2, 3}), frozenset({1})),
        (frozenset({3}), frozenset({1}), frozenset({2})),
    }


def test_product_poset_induced_partitions_alternate():
    for total in range(2, 9):
        for wa in range(1, total):
            for a in comp.compositions(wa):
                if not a:
                    continue
                for b in comp.compositions(total - wa):
                    if not b:
                        continue
                    q, (high, low) = nbasis_product_poset(a, b)
                    parts = [x for x in (high, low) if x]
                    for K in induced_ordered_partitions(q, parts):
                        assert comp.is_alternating(K)


def test_poset_json_round_trip():
    p = build_P_alpha((2, 1))
    assert LabeledPoset.from_json(p.to_json()) == p


def test_poset_json_rejects_non_integers():
    # int() would read this as labels [1, 2] with the cover (1, 2)
    with pytest.raises(ValidationError):
        LabeledPoset.from_json({"labels": [1.5, 2.9, True], "covers": [[1.2, 2.7]]})
    for bad in (1.5, True, "2"):
        with pytest.raises(ValidationError):
            LabeledPoset.from_json({"labels": [1, bad], "covers": []})
        with pytest.raises(ValidationError):
            LabeledPoset.from_json({"labels": [1, 2], "covers": [[1, bad]]})
    for cover in ([1], [1, 2, 3], "12", 12):
        with pytest.raises(ValidationError):
            LabeledPoset.from_json({"labels": [1, 2, 3], "covers": [cover]})
    for data in ({"labels": "12"}, {"labels": [1, 2], "covers": {"1": 2}}):
        with pytest.raises(ValidationError):
            LabeledPoset.from_json(data)
