import math
import random

import pytest

from _poset_oracle import (
    disjoint_sum_relabeled,
    induced_ordered_partitions,
    is_antichain_inducing_by_extensions,
    nbasis_product_poset,
)
from nqsym import compositions as comp
from nqsym.elements import QSymElement
from nqsym.errors import ResourceLimitError, ValidationError
from nqsym.posets import (
    LabeledPoset,
    alternating_antichain_labels,
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
    with pytest.raises(ValidationError, match="^order relation contains a cycle$"):
        LabeledPoset([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
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
    assert q == p and hash(q) == hash(p)
    # the closure reaches the bottom of a chain given by its covers alone
    assert chain([1, 2, 3, 4, 5]).below_masks == (0, 1, 3, 7, 15)
    assert LabeledPoset.__slots__ == ("labels", "below_masks")
    for gone in ("below", "relations", "is_antichain"):
        assert not hasattr(p, gone)


def test_masks_and_covers_match_brute_force_closure_and_reduction():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(1, 9)
        labels = rng.sample(range(1, 30), n)
        # pairs earlier -> later in a random order, so the relation is acyclic
        relations = [
            (a, b) for i, a in enumerate(labels) for b in labels[i + 1 :] if rng.random() < 0.3
        ]
        rng.shuffle(relations)
        p = LabeledPoset(labels, relations)
        closure = set(relations)
        while True:
            more = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
            if not more:
                break
            closure |= more
        reduction = {
            (a, c)
            for a, c in closure
            if not any((a, b) in closure and (b, c) in closure for b in labels)
        }
        index = {x: i for i, x in enumerate(p.labels)}
        assert p.below_masks == tuple(
            sum(1 << index[a] for a, b in closure if b == x) for x in p.labels
        )
        assert p.covers == reduction
        assert all(p.less(a, b) == ((a, b) in closure) for a in labels for b in labels)
        q = LabeledPoset(reversed(labels), sorted(reduction))
        assert q == p and hash(q) == hash(p)


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
    for limit in ("3", 3.0, True):
        with pytest.raises(ValidationError) as info:
            linear_extensions(chain([1, 2]), limit=limit)
        assert str(info.value) == f"enumeration limit must be an integer, got {limit!r}"


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


def _all_posets(n):
    """Every strict order on the labels 1..n, each once."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    found = {}
    for chosen in range(1 << len(pairs)):
        try:
            p = LabeledPoset(
                range(1, n + 1), [pair for i, pair in enumerate(pairs) if chosen >> i & 1]
            )
        except ValidationError:
            continue
        found.setdefault(p.below_masks, p)
    return list(found.values())


def _set_partitions(labels):
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for blocks in _set_partitions(rest):
        yield [{first}] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] | {first}] + blocks[i + 1 :]


def test_antichain_inducing_matches_extension_oracle_up_to_four_labels():
    pairs = 0
    for n, count in zip(range(1, 5), (1, 3, 19, 219)):
        posets = _all_posets(n)
        assert len(posets) == count
        for p in posets:
            for blocks in _set_partitions(list(p.labels)):
                T = comp.as_set_partition(blocks)
                assert is_antichain_inducing(p, T) == is_antichain_inducing_by_extensions(
                    p, T
                ), (p, T)
                pairs += 1
    assert pairs == 3387


def test_antichain_inducing_matches_extension_oracle_on_sampled_posets():
    rng = random.Random(42)
    seen = set()
    for _ in range(150):
        n = rng.randint(5, 7)
        p = random_poset(rng, range(1, n + 1))
        parts = rng.randint(1, n)
        pieces = {}
        for x in p.labels:
            pieces.setdefault(rng.randrange(parts), set()).add(x)
        T = comp.as_set_partition(pieces.values())
        expected = is_antichain_inducing_by_extensions(p, T)
        assert is_antichain_inducing(p, T) == expected, (p, T)
        seen.add(expected)
    assert seen == {True, False}


def test_antichain_inducing_reads_covers_not_comparable_pairs():
    # 1 < 3 share a block, but 2 always sits between them
    assert is_antichain_inducing(chain([1, 2, 3]), [{1, 3}, {2}])
    assert not is_antichain_inducing(chain([1, 2, 3]), [{1}, {2, 3}])


def test_antichain_inducing_past_the_enumeration_cap():
    assert is_antichain_inducing(antichain(range(1, 41)), [{x} for x in range(1, 41)])
    p = build_P_alpha((4, 4, 4, 4))
    blocks = alternating_antichain_labels((4, 4, 4, 4))
    assert is_antichain_inducing(p, blocks)
    assert not is_antichain_inducing(p, [blocks[0] + blocks[1]] + blocks[2:])
    with pytest.raises(ResourceLimitError):
        decompose_by(p, blocks)


def test_empty_poset_decomposes_into_the_empty_partition():
    empty = LabeledPoset([])
    assert decompose_by(empty, []) == {()}
    assert is_antichain_inducing(empty, []) is True


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LabeledPoset(5), "poset labels must be a collection, got 5"),
        (lambda: LabeledPoset([1, 2], 5), "poset relations must be a collection, got 5"),
        (lambda: LabeledPoset([1, 2], [(1,)]), "a relation must be a pair of labels, got (1,)"),
        (lambda: LabeledPoset([1, 2], [5]), "a relation must be a pair of labels, got 5"),
        (
            lambda: is_antichain_inducing(chain([1, 2]), 5),
            "set partition must be a collection, got 5",
        ),
        (lambda: decompose_by(chain([1, 2]), [5]), "a block must be a collection, got 5"),
        (
            lambda: is_antichain_inducing(chain([1, 2]), [{1}]),
            "set partition must partition the poset labels",
        ),
        (
            lambda: decompose_by(chain([1, 2]), [{1}, {2, 3}]),
            "set partition must partition the poset labels",
        ),
    ],
    ids=[
        "labels", "relations", "relation-of-one", "relation-not-a-pair",
        "antichain-inducing-partition", "decompose-block", "antichain-inducing-cover",
        "decompose-cover",
    ],
)
def test_malformed_poset_arguments_are_named(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


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
