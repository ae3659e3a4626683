import itertools
import random
from fractions import Fraction
from functools import reduce
from math import comb
from operator import or_

import pytest

import _linalg_oracle as linalg
from _matroid_oracle import (
    base_poset_by_definition,
    basis_type_counts_by_subsets,
    circuits,
    clone_classes_by_transpositions,
    components_by_circuits,
    interleave_by_exact_shapes,
    orbits_by_closure,
    qsym_of_matroid_by_extensions,
    qsym_of_matroid_by_flags,
)
from _rank2_oracle import (
    full_split_by_split,
    hilbert_basis_check_by_fractions,
    rank2_qsym_by_u_vectors,
    t_vec_by_terms,
)
from nqsym import compositions as comp
from nqsym import matroids as mat
from nqsym import qsym, verify
from nqsym.elements import QSymElement, TensorElement
from nqsym.errors import ValidationError
from nqsym.matroids import Matroid, RankTwoClass, uniform


def test_invariant_is_normalized():
    rng = random.Random(67)
    matroids = [uniform(2, 4), uniform(1, 2).direct_sum(uniform(0, 2))]
    matroids += [mat.sample_loopless_matroid(rng, rng.randint(2, 7)) for _ in range(12)]
    for m in matroids:
        f = mat.qsym_of_matroid(m)
        assert f == QSymElement(f.basis, f.terms)
        assert all(type(v) is int and v > 0 for v in f.terms.values())


def test_construction_validates_exchange():
    with pytest.raises(ValidationError):
        Matroid(3, [{1, 2}, {3}])
    with pytest.raises(ValidationError):
        Matroid(4, [{1, 2}, {3, 4}])
    ok = Matroid(3, [{1, 2}, {2, 3}])
    assert ok.rank == 2
    with pytest.raises(ValidationError):
        Matroid(2, [])


def test_uniform_and_dual():
    u = uniform(1, 4)
    assert u.bases == {frozenset({i}) for i in range(1, 5)}
    for r in range(0, 5):
        assert uniform(r, 4).dual() == uniform(4 - r, 4)


def test_loops_coloops_components():
    m = uniform(1, 2).direct_sum(uniform(0, 1))
    assert m.loops() == frozenset({3})
    assert m.coloops() == frozenset()
    assert uniform(2, 2).coloops() == frozenset({1, 2})
    parts = uniform(1, 2).direct_sum(uniform(1, 3)).components()
    assert set(parts) == {frozenset({1, 2}), frozenset({3, 4, 5})}
    # a loop forms its own component
    assert len(m.components()) == 2


def test_circuits_of_uniform():
    u = uniform(2, 4)
    assert all(len(c) == 3 for c in circuits(u))
    assert len(circuits(u)) == comb(4, 3)


def _relabeled(sets, ground):
    """Sets over `ground`, relabeled order-preservingly onto [|ground|]."""
    label = {x: i + 1 for i, x in enumerate(sorted(ground))}
    return [frozenset(label[x] for x in s) for s in sets]


def _minors_by_definition(m, subset):
    """Restriction and contraction built from independent sets, through the
    validating constructor.  M|A has the maximal independent subsets of A as
    bases; M/A has the sets B - J over the bases B containing one fixed
    basis J of M|A."""
    rest = frozenset(range(1, m.n + 1)) - subset
    independent = {
        frozenset(s)
        for b in m.bases
        for k in range(len(b) + 1)
        for s in itertools.combinations(sorted(b), k)
    }
    inside = [s for s in independent if s <= subset]
    r = max(len(s) for s in inside)
    restricted = [s for s in inside if len(s) == r]
    j = min(restricted, key=sorted)
    contracted = [b - j for b in m.bases if j <= b]
    return (
        Matroid(len(subset), _relabeled(restricted, subset)),
        Matroid(len(rest), _relabeled(contracted, rest)),
    )


def test_rank_additivity_restriction_contraction():
    rng = random.Random(3)
    for _ in range(40):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 7))
        subset = frozenset(x for x in range(1, m.n + 1) if rng.random() < 0.5)
        assert m.restriction(subset).rank + m.contraction(subset).rank == m.rank
    examples = [uniform(r, n) for n in range(6) for r in range(n + 1)]
    examples += [
        mat.rank2_from_partition(lam)
        for n in range(2, 7)
        for lam in comp.partitions(n, min_parts=2)
    ]
    examples.append(uniform(2, 4).direct_sum(uniform(0, 1)).direct_sum(uniform(1, 1)))
    for m in examples:
        for k in range(m.n + 1):
            for subset in itertools.combinations(range(1, m.n + 1), k):
                subset = frozenset(subset)
                restricted, contracted = _minors_by_definition(m, subset)
                assert m.restriction(subset) == restricted
                assert m.contraction(subset) == contracted
                assert restricted.rank + contracted.rank == m.rank


def test_internal_constructions_are_exchange_valid():
    """Families built through the trusted constructor pass the validating one."""
    built = [uniform(r, n) for n in range(6) for r in range(n + 1)]
    built += [m.dual() for m in built]
    built += [
        uniform(1, 2).direct_sum(uniform(0, 1)),
        uniform(2, 3).direct_sum(uniform(1, 2)).direct_sum(uniform(1, 1)),
        mat.rank2_matroid_from_blocks([{2, 5}, {1}, {3, 4}]),
        mat.rank2_matroid_from_blocks([{1}, {2}, {3}, {4}]),
    ]
    for m in built:
        assert mat.exchange_valid(m._masks)
        assert Matroid(m.n, m.bases) == m
    # one nonempty block has no cross pairs, so no bases
    with pytest.raises(ValidationError):
        mat.rank2_matroid_from_blocks([{1, 2}, set()])


@pytest.mark.parametrize(
    "call",
    [
        lambda m: m.restriction([1.5, 2.9, 3]),
        lambda m: m.restriction(["3"]),
        lambda m: m.contraction([True]),
        lambda m: mat.base_poset(m, [1.0, 2.0]),
        lambda m: mat.polytope_edge(m, [1.0, 2.0], [1, 3]),
        lambda m: mat.rank2_matroid_from_blocks([[1.0, 2.0], [3]]),
        lambda m: m.restriction(3),
        lambda m: m.contraction(3),
        lambda m: mat.base_poset(m, 3),
        lambda m: mat.polytope_edge(m, 3, [1, 2]),
    ],
    ids=[
        "restriction-float",
        "restriction-string",
        "contraction-bool",
        "base-poset-float",
        "polytope-edge-float",
        "blocks-float",
        "restriction-int",
        "contraction-int",
        "base-poset-int",
        "polytope-edge-int",
    ],
)
def test_matroid_api_rejects_non_int_elements(call):
    with pytest.raises(ValidationError):
        call(uniform(2, 4))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Matroid(3, [[1, 2, 2], [1, 3]]),
        lambda: Matroid.from_json({"n": 3, "bases": [[1, 2], [3, 1, 3]]}),
        lambda: mat.rank2_matroid_from_blocks([[1, 1], [2]]),
        lambda: Matroid(3, [[1, 2]]).restriction([1, 1]),
        lambda: uniform(2, 3).contraction([2, 2]),
        lambda: mat.base_poset(uniform(2, 3), [1, 2, 2]),
        lambda: mat.polytope_edge(uniform(2, 3), [1, 2], [1, 3, 3]),
    ],
    ids=["basis", "json-basis", "blocks", "restriction", "contraction", "base-poset", "edge"],
)
def test_matroid_api_rejects_repeated_elements(call):
    # a repeat used to collapse silently: [1, 2, 2] was read as {1, 2}
    with pytest.raises(ValidationError, match="repeats an element"):
        call()


_TYPE = "basis element must be an integer, got "
_REPEAT = "a set of basis elements repeats an element: "
_RANGE = "basis elements must lie in [n]"
_SIZES = "all bases must have the same cardinality"


# Each malformed input with the message Matroid(n, bases) gave for it before
# validation built the masks in one pass.  From [[1, 1, 2.5]] on most inputs
# break two rules, and the message names the rule that was reported first.
@pytest.mark.parametrize(
    "n, bases, message",
    [
        (3, [[1, True], [1, 2]], _TYPE + "True"),
        (3, [[1, 2.0]], _TYPE + "2.0"),
        (3, [["1", 2]], _TYPE + "'1'"),
        (3, [None], "expected a set of basis elements, got None"),
        (3, [[1, 2], 5], "expected a set of basis elements, got 5"),
        (3, ["12", [1, 2]], _TYPE + "'1'"),
        (3, [[1, 1], [1, 2]], _REPEAT + "[1, 1]"),
        (3, [[0, 1]], _RANGE),
        (3, [[1, 4]], _RANGE),
        (3, [[-1, 2]], _RANGE),
        (3, [[1, 10**30]], _RANGE),
        (3, [[1, 2], [1]], _SIZES),
        (3, [], "a matroid needs at least one basis"),
        (4, [[1, 2], [3, 4]], "base family violates the exchange axiom"),
        (-1, [[1]], "ground set size must be >= 0"),
        (True, [[1]], "ground set size must be an integer, got True"),
        (2.0, [[1]], "ground set size must be an integer, got 2.0"),
        (3, [[1, 1, 2.5]], _TYPE + "2.5"),
        (3, [[2.5, 1, 1]], _TYPE + "2.5"),
        (3, [[1, 1], [1, "a"]], _REPEAT + "[1, 1]"),
        (3, [["a"], [1, 1]], _TYPE + "'a'"),
        (3, [[1.5], 7], _TYPE + "1.5"),
        (3, [7, [1.5]], "expected a set of basis elements, got 7"),
        (3, [[1, 9], [1]], _SIZES),
        (4, [[1, 2], [3, 9]], _RANGE),
        (3, [[0, 0]], _REPEAT + "[0, 0]"),
        (3, [[4, 4], [1, 2]], _REPEAT + "[4, 4]"),
        (3, [[], [1]], _SIZES),
        (3, [[1, 2], [1, 0, 2]], _SIZES),
        (-1, [[1, 1]], "ground set size must be >= 0"),
        (3, [[5, 1], [6, 1]], _RANGE),
        (3, [[1, 2], [2, 1], [3, 4]], _RANGE),
        (4, [[1, 2], [3, 4], [1, 5]], _RANGE),
        (3, [[1, 2], [None, 1]], _TYPE + "None"),
        (3, [[1, 2], [1, 2, 3], [0]], _SIZES),
    ],
)
def test_malformed_matroid_input_messages(n, bases, message):
    with pytest.raises(ValidationError) as info:
        Matroid(n, bases)
    assert str(info.value) == message
    if type(n) is int and all(type(b) is list for b in bases):
        with pytest.raises(ValidationError) as info:
            Matroid.from_json({"n": n, "bases": bases})
        assert str(info.value) == message


def test_well_formed_matroid_input_edge_cases():
    class Element(int):
        pass

    assert Matroid(2, [[Element(1)], [Element(2)]]) == uniform(1, 2)
    assert Matroid(3, [[1, 2], [2, 1]]) == Matroid(3, [(2, 1)]) == Matroid(3, [{1, 2}])
    assert Matroid(0, [[]]) == uniform(0, 0)
    assert Matroid(4, iter([iter([3, 1]), (1, 4), {3, 4}])).to_json() == {
        "n": 4,
        "bases": [[1, 3], [1, 4], [3, 4]],
    }


def test_integer_arguments_of_the_public_api_are_strict():
    # bools were taken as 0 and 1, and floats and strings ended in a bare TypeError
    rng = random.Random(0)
    for call in [
        lambda: uniform(True, 3),
        lambda: uniform(2.0, 4),
        lambda: Matroid.uniform(2, "4"),
        lambda: mat.Ubar_vec(5, True),
        lambda: mat.T_vec(4, 2.0),
        lambda: mat.U_vec("4", 2),
        lambda: mat.split((2, 1, 1), True),
        lambda: mat.split((2, 1, 1), 1.0),
        lambda: mat.hilbert_basis_check("8"),
        lambda: mat.hilbert_basis_check(8.0),
        lambda: mat.recover_rank2_modm2({1: 1}, "5"),
        lambda: mat.sample_loopless_matroid(rng, 4.0),
        lambda: verify.run_all(max_n="8"),
        lambda: verify.run_all(max_n=2.5),
        lambda: verify.run_all(max_n=2, seed=True),
    ]:
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Matroid(3, 5), "bases must be a collection, got 5"),
        (lambda: mat.rank2_matroid_from_blocks(5), "blocks must be a collection, got 5"),
        (lambda: mat.geom_decompose((3, 2, 1), 5), "members must be a collection, got 5"),
        (lambda: QSymElement("N", 5), "terms must be a collection, got 5"),
        (
            lambda: qsym.transition_matrix(2.0, "N", "M"),
            "transition matrix degree must be an integer, got 2.0",
        ),
    ],
    ids=[
        "Matroid", "rank2_matroid_from_blocks", "geom_decompose", "QSymElement",
        "transition_matrix",
    ],
)
def test_non_collection_arguments_are_named(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_base_poset_uniform_is_complete_bipartite():
    u = uniform(2, 4)
    p = mat.base_poset(u, frozenset({1, 2}))
    # cobase labels 1..2, base labels 3..4, all base-to-cobase covers present
    assert p.covers == frozenset({(3, 1), (3, 2), (4, 1), (4, 2)})
    all_coloops = uniform(3, 3)
    p = mat.base_poset(all_coloops, frozenset({1, 2, 3}))
    assert p.covers == frozenset()
    with pytest.raises(ValidationError):
        mat.base_poset(u, frozenset({1}))


def test_base_poset_cobase_degree_positive_for_loopless():
    rng = random.Random(5)
    for _ in range(25):
        m = mat.sample_loopless_matroid(rng, rng.randint(2, 7))
        for basis in m.bases:
            p = mat.base_poset(m, basis)
            cob_labels = set(range(1, m.n - m.rank + 1))
            touched = {lo for lo, hi in p.covers} | {hi for lo, hi in p.covers}
            assert cob_labels <= touched or not cob_labels


def test_qsym_of_matroid_uniform():
    assert mat.qsym_of_matroid(uniform(2, 4)).terms == {(2, 2): 6}
    for n in range(1, 8):
        for r in range(0, n + 1):
            f = mat.qsym_of_matroid(uniform(r, n))
            expected_comp = comp.drop_zero_parts((r, n - r)) if r else (n,)
            assert f.terms == {expected_comp: comb(n, r)}
    # rank above n/2, through the dual
    for n in range(8, 15):
        for r in range(n // 2 + 1, n + 1):
            f = mat.qsym_of_matroid(uniform(r, n))
            assert f.terms == {comp.drop_zero_parts((r, n - r)): comb(n, r)}, (r, n)
    assert mat.qsym_of_matroid(uniform(12, 13)).terms == {(12, 1): 13}


def test_no_ground_set_cap_past_twelve_elements():
    # F and both of duality_check's routes take any n; only the CLI bounds
    # its input (matroid-f --max-n)
    m = uniform(12, 13).direct_sum(uniform(0, 1)).direct_sum(uniform(1, 1))
    assert m.n == 15
    assert mat._qsym_by_interleaving(m) == mat.qsym_of_matroid(m)
    sampled = mat.sample_loopless_matroid(random.Random(3), 13)
    assert (sampled.n, sampled.rank, sampled.num_bases) == (13, 4, 665)
    report = mat.duality_check(sampled)
    assert all(report[key] is True for key in report), report


def test_fast_path_matches_linear_extension_oracle():
    rng = random.Random(7)
    for _ in range(30):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 6))
        assert mat.qsym_of_matroid(m) == qsym_of_matroid_by_extensions(m)
    # also with loops present
    for _ in range(10):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 4)).direct_sum(uniform(0, 1))
        assert mat.qsym_of_matroid(m) == qsym_of_matroid_by_extensions(m)


def _pairwise_exchange_valid(base_masks):
    """The exchange axiom checked pair by pair, as stated: for bases b1 != b2
    and every e in b1 - b2 some f in b2 - b1 makes b1 - e + f a basis."""
    masks = list(base_masks)
    mask_set = set(masks)
    for b1 in masks:
        for b2 in masks:
            if b1 == b2:
                continue
            e = b1 & ~b2
            while e:
                ebit = e & -e
                e ^= ebit
                f = b2 & ~b1
                ok = False
                while f:
                    fbit = f & -f
                    f ^= fbit
                    if ((b1 ^ ebit) | fbit) in mask_set:
                        ok = True
                        break
                if not ok:
                    return False
    return True


def _equal_size_families(n):
    """Every nonempty family of equal-size subsets of [n], as mask lists."""
    for k in range(n + 1):
        subsets = [mat._mask_of(c) for c in itertools.combinations(range(1, n + 1), k)]
        for pick in range(1, 1 << len(subsets)):
            yield [m for i, m in enumerate(subsets) if pick >> i & 1]


def _labelled_matroids(max_n):
    for n in range(max_n + 1):
        for masks in _equal_size_families(n):
            if _pairwise_exchange_valid(masks):
                yield Matroid.from_masks(n, masks)


def test_exchange_valid_matches_pairwise_oracle_exhaustively():
    families = 0
    for n in range(6):
        for masks in _equal_size_families(n):
            assert mat.exchange_valid(masks) == _pairwise_exchange_valid(masks), masks
            families += 1
    assert families == 2229
    # the labelled matroids on [n], n <= 5: 1, 2, 5, 16, 68, 406
    assert sum(1 for _ in _labelled_matroids(5)) == 498


def test_exchange_valid_reads_any_iterable_once():
    # the family is read once, as a set, so every basis listed twice and a
    # one-shot generator agree with the set; the basis count must see each
    # repeat as one basis, or a family listed twice could reach C(m, r)
    # without being uniform
    verdicts = {True: 0, False: 0}
    for n in range(6):
        for masks in _equal_size_families(n):
            verdict = mat.exchange_valid(set(masks))
            assert mat.exchange_valid(masks + masks[::-1]) == verdict, masks
            assert mat.exchange_valid(m for m in masks) == verdict, masks
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_exchange_valid_matches_pairwise_oracle_on_random_families():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for n, count in ((6, 150), (7, 150), (8, 150), (9, 30), (10, 30)):
        for _ in range(count):
            m = mat.sample_loopless_matroid(rng, n)
            subsets = [
                mat._mask_of(c) for c in itertools.combinations(range(1, n + 1), m.rank)
            ]
            if n >= 9 or rng.random() < 0.5:
                # near a matroid: a sampled one with one subset added or removed
                # (the only branch at n >= 9, where the pairwise oracle is slow)
                masks = list(set(m._masks) ^ {rng.choice(subsets)}) or subsets[:1]
            else:
                density = rng.random()
                masks = [b for b in subsets if rng.random() < density] or subsets[:1]
            verdict = _pairwise_exchange_valid(masks)
            assert mat.exchange_valid(masks) == verdict, (n, masks)
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


class _CountedMask(int):
    """A basis mask that counts how often a low bit is split off it, which
    exchange_valid does to every basis once in its pass over the family."""

    splits = 0

    def __neg__(self):
        _CountedMask.splits += 1
        return -int(self)


def _verdict_and_passes(masks):
    """exchange_valid's verdict on masks, and how many passes over the
    family it made: 0 when the basis count decides, else 1, which collects
    the extension sets and the holder bitsets."""
    _CountedMask.splits = 0
    verdict = mat.exchange_valid([_CountedMask(m) for m in masks])
    return verdict, _CountedMask.splits // max(len(set(masks)), 1)


def test_exchange_valid_branches_match_pairwise_oracle():
    # for 0 <= r <= 6 and r <= n <= 12, each family pinned by the pairwise
    # oracle up to 252 members (past that it takes seconds; the two-bases
    # family fails at once, so it is pinned at every size)
    assert _verdict_and_passes([]) == (True, 0)
    assert _verdict_and_passes([0]) == (True, 0)
    pinned = 0
    for n in range(13):
        for r in range(min(6, n) + 1):
            full = (1 << n) - 1
            small = comb(n, r) <= 252
            # U(r, n - 2) on [n] with the loops 1 and n // 2 + 1: every
            # r-subset of its union, so it passes by the count, though the
            # n elements up to its largest would not count it
            loops = 1 | 1 << n // 2
            elements = [x for x in range(1, n + 1) if not loops >> (x - 1) & 1]
            if 2 <= n and r <= len(elements):
                masks = [mat._mask_of(c) for c in itertools.combinations(elements, r)]
                assert reduce(or_, masks) != full, (r, n)
                assert _verdict_and_passes(masks) == (True, 0), (r, n)
                if small:
                    assert _pairwise_exchange_valid(masks), (r, n)
                    pinned += 1
            masks = list(uniform(r, n)._masks)
            if 2 <= r < n:
                # U(r, n) minus one basis, sparse paving: no longer counted,
                # and every extension set leaves |H| <= r, so it passes
                minus_one = masks[1:]
                assert _verdict_and_passes(minus_one) == (True, 1), (r, n)
                if small:
                    assert _pairwise_exchange_valid(minus_one), (r, n)
                    pinned += 1
            if 2 <= r and r + 2 <= n:
                # minus two bases I + a and I + b: the extensions of I leave
                # H = I + a + b, which holds I - i + a + b, so it fails
                low = (1 << r - 1) - 1
                minus_two = [m for m in masks if m not in (low | 1 << r - 1, low | 1 << n - 1)]
                assert _verdict_and_passes(minus_two) == (False, 1), (r, n)
                assert not _pairwise_exchange_valid(minus_two), (r, n)
                pinned += 1
    assert pinned >= 100, pinned


def test_exchange_valid_holder_bitsets_match_pairwise_oracle():
    # U(r, m) with every element i doubled by a parallel copy i + m: each
    # independent I of size r - 1 spans its r - 1 parallel pairs, so
    # |H| = 2r - 2 > r for every one of the C(m, r - 1) extension sets, and
    # the holder bitsets decide each of them
    for r, m in ((3, 6), (3, 7), (4, 6)):
        masks = [
            mat._mask_of(x + m * copy for x, copy in zip(c, copies))
            for c in itertools.combinations(range(1, m + 1), r)
            for copies in itertools.product((0, 1), repeat=r)
        ]
        assert _verdict_and_passes(masks) == (True, 1), (r, m)
        assert _pairwise_exchange_valid(masks), (r, m)
        for dropped in (masks[:1], masks[:2], [masks[0], masks[-1]]):
            trial = [b for b in masks if b not in dropped]
            assert _verdict_and_passes(trial) == (False, 1), (r, m, dropped)
            assert not _pairwise_exchange_valid(trial), (r, m, dropped)


def _sampler_walk(rng, n):
    """The families sample_loopless_matroid passes through, each deletion
    checked against the whole family by exchange_valid."""
    r = rng.randint(1, max(1, n - 1)) if n > 1 else 1
    masks = Matroid.uniform(r, n)._masks
    goal = rng.randint(0, len(masks) - 1)
    order = list(masks)
    rng.shuffle(order)
    walk = [set(masks)]
    for candidate in order:
        if len(walk) - 1 >= goal or len(walk[-1]) == 1:
            break
        trial = walk[-1] - {candidate}
        union = 0
        for b in trial:
            union |= b
        if union == (1 << n) - 1 and mat.exchange_valid(trial):
            walk.append(trial)
    return walk


def test_incremental_deletion_check_matches_exchange_valid():
    verdicts = {True: 0, False: 0}
    for n in range(1, 7):
        for seed in range(20):
            walk = _sampler_walk(random.Random(seed), n)
            sampled = mat.sample_loopless_matroid(random.Random(seed), n)
            assert sampled == Matroid.from_masks(n, walk[-1]), (n, seed)
            for family in walk:
                for removed in family if len(family) > 1 else ():
                    trial = family - {removed}
                    verdict = mat.exchange_valid(trial)
                    assert mat._deletion_keeps_exchange(n, trial, removed) == verdict, (n, seed)
                    verdicts[verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_fast_path_matches_extensions_on_every_small_matroid():
    for m in _labelled_matroids(5):
        assert mat.qsym_of_matroid(m) == qsym_of_matroid_by_extensions(m), m


def test_fast_path_matches_flag_definition():
    for m in _labelled_matroids(5):
        assert mat.qsym_of_matroid(m) == qsym_of_matroid_by_flags(m), m
    for n in range(7):
        for r in range(n + 1):
            m = uniform(r, n)
            assert mat.qsym_of_matroid(m) == qsym_of_matroid_by_flags(m), (r, n)


def _relabeled_matroid(m, rng):
    """m with its elements permuted at random."""
    perm = list(range(m.n))
    rng.shuffle(perm)
    return Matroid.from_masks(
        m.n, [sum(1 << perm[i] for i in range(m.n) if b >> i & 1) for b in m._masks]
    )


def _with_loops_and_coloops(m, loops, coloops):
    for _ in range(loops):
        m = m.direct_sum(uniform(0, 1))
    for _ in range(coloops):
        m = m.direct_sum(uniform(1, 1))
    return m


def test_smaller_side_matches_no_switch_route_and_flags():
    # qsym_of_matroid strips loops and coloops and interleaves the dual when
    # 2r > n; the no-switch route strips the loops only and interleaves the
    # side given.  Every labelled matroid on [n], n <= 5, with 0-2 loops and
    # 0-2 coloops placed at random; the flag definition on one of the nine
    # sums of each matroid, cycling through them, where it has n <= 7.
    rng = random.Random(43)
    flagged = 0
    for i, m in enumerate(_labelled_matroids(5)):
        for loops in range(3):
            for coloops in range(3):
                augmented = _relabeled_matroid(_with_loops_and_coloops(m, loops, coloops), rng)
                f = mat.qsym_of_matroid(augmented)
                assert f == mat._qsym_by_interleaving(augmented), augmented
                if (loops, coloops) == divmod(i % 9, 3) and augmented.n <= 7:
                    assert f == qsym_of_matroid_by_flags(augmented), augmented
                    flagged += 1
    assert flagged >= 300, flagged


def _sampled_matroids():
    """80 sampled loopless matroids on up to 9 elements, every other one
    summed with a second sample, with 0-2 loops and 0-1 coloops added and
    the elements relabelled at random."""
    rng = random.Random(41)
    for trial in range(80):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 9))
        if trial % 2:
            # two sampled summands, interleaved by a relabelling
            m = m.direct_sum(mat.sample_loopless_matroid(rng, rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2)):
            m = m.direct_sum(uniform(0, 1))
        for _ in range(rng.randint(0, 1)):
            m = m.direct_sum(uniform(1, 1))
        yield _relabeled_matroid(m, rng)


def test_components_match_circuit_oracle():
    for m in _labelled_matroids(5):
        expected = components_by_circuits(m)
        assert m.components() == expected, m
        assert mat.polytope_dim(m) == m.n - len(expected), m
    for m in _sampled_matroids():
        assert m.components() == components_by_circuits(m), m


def test_num_bases_counts_without_building_frozensets():
    for m in _labelled_matroids(4):
        assert m.num_bases == len(m.bases) == len(m._masks), m
    assert Matroid(3, [[1, 2], [2, 1], [1, 3]]).num_bases == 2


def test_base_poset_matches_label_by_label_construction():
    for m in _labelled_matroids(5):
        for basis in m.bases:
            poset = mat.base_poset(m, basis)
            expected = base_poset_by_definition(m, basis)
            assert poset == expected and poset.covers == expected.covers, (m, basis)


def test_basis_type_counts_match_subset_enumeration_exhaustively():
    # every shape of rank <= 3 with <= 4 cobase elements, each of which has
    # a partner, as qsym_of_matroid builds them for a loopless matroid
    for rank in range(1, 4):
        for size in range(5):
            for partners in itertools.combinations_with_replacement(range(1, 1 << rank), size):
                expected = basis_type_counts_by_subsets(rank, partners)
                assert mat._basis_type_counts(rank, partners) == expected, (rank, partners)


def test_basis_type_counts_invariant_under_renaming_base_positions():
    # the merge of shapes in _interleave rests on this: every shape of rank
    # <= 3 with <= 4 cobase elements, partnerless ones included, under every
    # permutation of its base positions; _relabelled must return a renaming
    shapes = 0
    for rank in range(1, 4):
        for size in range(5):
            for partners in itertools.combinations_with_replacement(range(1 << rank), size):
                expected = mat._basis_type_counts(rank, partners)
                renamings = set()
                for perm in itertools.permutations(range(rank)):
                    renamed = tuple(
                        sorted(sum(1 << perm[i] for i in range(rank) if p >> i & 1) for p in partners)
                    )
                    renamings.add(renamed)
                    assert mat._basis_type_counts(rank, renamed) == expected, (rank, partners, perm)
                assert mat._relabelled(rank, partners) in renamings, (rank, partners)
                shapes += 1
    assert shapes == 15 + 70 + 495


def _merge_test_families():
    """Base mask lists: every labelled matroid on [n], n <= 5, and the
    complements of its bases; then the sampled matroids of
    test_components_match_circuit_oracle on the side that qsym_of_matroid
    interleaves, the complements when 2r > n."""
    for m in _labelled_matroids(5):
        yield m.n, list(m._masks)
        yield m.n, [((1 << m.n) - 1) ^ b for b in m._masks]
    for m in _sampled_matroids():
        if 2 * m.rank > m.n:
            m = m.dual()
        yield m.n, list(m._masks)


def test_merged_interleave_matches_exact_shape_grouping():
    merged = 0
    for n, masks in _merge_test_families():
        full = (1 << n) - 1
        family, every = frozenset(masks), dict.fromkeys(masks, 1)
        assert mat._interleave(full, family, every) == interleave_by_exact_shapes(n, masks), (n, masks)
        exact = {
            tuple(sorted(mat._partner_masks(b, full & ~b, frozenset(masks)))) for b in masks
        }
        rank = masks[0].bit_count()
        merged += len(exact) - len({mat._relabelled(rank, p) for p in exact})
    # the families must exercise the merge, not only the exact-key grouping
    assert merged >= 100, merged


def test_a_relabelling_that_is_no_bijection_is_caught(monkeypatch):
    # a mutant that sends the last base position onto the one before it
    # must make the merged interleaving differ from the exact-key oracle
    relabelled = mat._relabelled

    def collapsed(rank, partners):
        out = relabelled(rank, partners)
        if rank < 2:
            return out
        top = 1 << (rank - 1)
        return tuple(sorted(p ^ top | top >> 1 if p & top else p for p in out))

    monkeypatch.setattr(mat, "_relabelled", collapsed)
    assert any(
        mat._interleave((1 << n) - 1, frozenset(masks), dict.fromkeys(masks, 1))
        != interleave_by_exact_shapes(n, masks)
        for n, masks in _merge_test_families()
    )


def test_clone_classes_and_orbits_match_transposition_oracle():
    # every labelled matroid on [n], n <= 5, and the sampled matroids, each
    # with its dual: the classes are those found by trying every
    # transposition, and each orbit found by closing one basis under them
    # has exactly one representative, weighted by the orbit's size
    matroids = list(_labelled_matroids(5)) + list(_sampled_matroids())
    merged = 0
    for m in matroids + [m.dual() for m in matroids]:
        ground, family = (1 << m.n) - 1, m._mask_set
        classes = clone_classes_by_transpositions(ground, family)
        assert mat._clone_classes(ground, family) == classes, m
        orbits = mat._clone_orbits(ground, family)
        assert sum(orbits.values()) == m.num_bases, m
        assert all(rep in family for rep in orbits), m
        expected = orbits_by_closure(family, classes)
        assert len(orbits) == len(expected), m
        for orbit in expected:
            (rep,) = [rep for rep in orbits if rep in orbit]
            assert orbits[rep] == len(orbit), m
        merged += m.num_bases - len(orbits)
    assert merged >= 4500, merged


def test_clone_classes_of_uniform_rank_two_and_k4():
    # any two elements of U(r, n) are clones, so one basis stands for all
    for n in range(1, 9):
        ground = (1 << n) - 1
        for r in range(n + 1):
            family = uniform(r, n)._mask_set
            assert mat._clone_classes(ground, family) == [ground], (r, n)
            assert mat._clone_orbits(ground, family) == {(1 << r) - 1: comb(n, r)}, (r, n)
    # a rank-two class: each block of two or more elements is a class, and
    # the one-element blocks form one class together
    for n in range(2, 9):
        for lam in comp.partitions(n, min_parts=2):
            m = mat.rank2_from_partition(lam)
            ground, family = (1 << n) - 1, m._mask_set
            blocks = [mat._mask_of(b) for b in mat._interval_blocks(lam)]
            singles = sum(b for b in blocks if b & (b - 1) == 0)
            expected = [b for b in blocks if b & (b - 1)] + ([singles] if singles else [])
            assert mat._clone_classes(ground, family) == expected, lam
            assert clone_classes_by_transpositions(ground, family) == expected, lam
    m = mat.rank2_from_partition((3, 1, 1))
    assert m.num_bases == 7
    assert mat._clone_classes(0b11111, m._mask_set) == [0b111, 0b11000]
    assert mat._clone_orbits(0b11111, m._mask_set) == {mat._mask_of({1, 4}): 6, mat._mask_of({4, 5}): 1}
    # the graphic matroid of K4 (edges 1-6, four triangles) has no clones,
    # though every edge lies in as many spanning trees
    triangles = ({1, 2, 4}, {1, 3, 5}, {2, 3, 6}, {4, 5, 6})
    k4 = Matroid(6, [b for b in itertools.combinations(range(1, 7), 3) if set(b) not in triangles])
    assert k4.num_bases == 16
    assert mat._clone_classes(0b111111, k4._mask_set) == [1 << i for i in range(6)]
    assert mat._clone_orbits(0b111111, k4._mask_set) == dict.fromkeys(k4._masks, 1)


def test_clone_classes_of_uniform_beside_loops_and_coloops():
    # the basis count names one class only when the family is every r-subset
    # of ground; with loops or coloops beside U(r, m), on either side, the
    # swap tests decide, and an empty ground has no class at all
    assert mat._clone_classes(0, {0}) == []
    for m in range(6):
        for r in range(m + 1):
            for loops, coloops in itertools.product(range(3), repeat=2):
                beside = uniform(0, loops).direct_sum(uniform(coloops, coloops))
                for matroid in (beside.direct_sum(uniform(r, m)), uniform(r, m).direct_sum(beside)):
                    ground, family = (1 << matroid.n) - 1, matroid._mask_set
                    classes = clone_classes_by_transpositions(ground, family)
                    assert mat._clone_classes(ground, family) == classes, (r, m, loops, coloops)
                    orbits = mat._clone_orbits(ground, family)
                    assert len(orbits) == len(orbits_by_closure(family, classes)), (r, m)


def test_clone_orbit_route_matches_all_bases_route():
    # qsym_of_matroid interleaves one basis per clone orbit of each
    # component, _qsym_by_interleaving every basis of the whole matroid;
    # test_smaller_side_matches_no_switch_route_and_flags compares the two
    # on every labelled matroid with n <= 5
    cases = list(_sampled_matroids())
    cases += [uniform(r, n) for n in range(1, 11) for r in range(n + 1)]
    cases += [uniform(6, 12), uniform(8, 16)]
    for n in range(3, 9):
        for lam in comp.partitions(n, min_parts=2):
            for loops in range(3):
                for coloops in range(2):
                    cases.append(
                        _with_loops_and_coloops(mat.rank2_from_partition(lam), loops, coloops)
                    )
    for m in cases:
        assert mat.qsym_of_matroid(m) == mat._qsym_by_interleaving(m), m


def test_fast_path_matches_extensions_on_uniform_and_rank_two_families():
    for n in range(8):
        for r in range(n + 1):
            m = uniform(r, n)
            assert mat.qsym_of_matroid(m) == qsym_of_matroid_by_extensions(m)
    for n in range(2, 6):
        for lam in comp.partitions(n, min_parts=2):
            for loops, coloops in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)):
                m = mat.rank2_from_partition(lam)
                for _ in range(loops):
                    m = m.direct_sum(uniform(0, 1))
                for _ in range(coloops):
                    m = m.direct_sum(uniform(1, 1))
                oracle = qsym_of_matroid_by_extensions(m)
                assert mat.qsym_of_matroid(m) == oracle, (lam, loops, coloops)


def test_invariant_multiplicative_over_direct_sum():
    rng = random.Random(11)
    for _ in range(20):
        a = mat.sample_loopless_matroid(rng, rng.randint(1, 4))
        b = mat.sample_loopless_matroid(rng, rng.randint(1, 4))
        assert mat.qsym_of_matroid(a.direct_sum(b)) == qsym.nbasis_product(
            mat.qsym_of_matroid(a), mat.qsym_of_matroid(b)
        )


def _coproduct_of_minors(m, invariant):
    """F applied to both sides of the matroid coproduct: the sum over the
    subsets A of [n] of F(M|A) (x) F(M/A), in the monomial basis."""
    terms = {}
    for size in range(m.n + 1):
        for subset in itertools.combinations(range(1, m.n + 1), size):
            left, right = invariant(m.restriction(subset)), invariant(m.contraction(subset))
            for lcomp, lcoeff in left.terms.items():
                for rcomp, rcoeff in right.terms.items():
                    key = (lcomp, rcomp)
                    terms[key] = terms.get(key, 0) + lcoeff * rcoeff
    return TensorElement("M", terms)


def test_invariant_is_a_coalgebra_morphism():
    # F maps the matroid coproduct, the sum over A of M|A (x) M/A, onto the
    # deconcatenation of QSym (Billera, Jia and Reiner, "A quasisymmetric
    # function for matroids", 2009), so the cuts of F(M) are fixed by F of
    # its proper minors: every labelled matroid with n <= 4, 40 sampled
    # loopless ones with n <= 7, some with a loop or a coloop summed on,
    # U(3,7) and the rank-two class (3,2,2,1)
    memo = {}

    def invariant(m):
        if m not in memo:
            memo[m] = qsym.convert(mat.qsym_of_matroid(m), "M")
        return memo[m]

    rng = random.Random(83)
    matroids = list(_labelled_matroids(4))
    for trial in range(40):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 7))
        if trial % 4 == 1:
            m = m.direct_sum(uniform(0, 1))
        elif trial % 4 == 3:
            m = m.direct_sum(uniform(1, 1))
        matroids.append(m)
    matroids += [uniform(3, 7), mat.rank2_from_partition((3, 2, 2, 1))]
    for m in matroids:
        expected = qsym.coproduct_monomial(invariant(m))
        assert _coproduct_of_minors(m, invariant) == expected, m


def test_direct_sum_names_an_argument_that_is_no_matroid():
    with pytest.raises(ValidationError) as info:
        uniform(1, 2).direct_sum(5)
    assert str(info.value) == "direct_sum expects a Matroid, got 5"


def test_direct_sum_of_four_components_matches_whole_interleaving():
    # U(2,4)^4 (n = 16, rank 8): F multiplies four components, while the
    # no-switch route interleaves all 1296 bases at once
    u = uniform(2, 4)
    m = u.direct_sum(u).direct_sum(u).direct_sum(u)
    f = mat.qsym_of_matroid(m)
    assert f == mat._qsym_by_interleaving(m)
    assert f.coefficient((8, 8)) == 1296


def test_invariant_is_valuative_on_every_matroidal_hyperplane_split():
    # the hyperplane x(A) = k cuts the base polytope into the bases with
    # |B & A| <= k and those with |B & A| >= k, meeting in the facet
    # |B & A| = k; when all three are matroids, F(M) + F(facet) is
    # F(low) + F(high) (Ardila, Fink and Rincon, "Valuations for matroid
    # polytope subdivisions", 2010)
    splits = matroidal = 0
    for m in _labelled_matroids(5):
        for a in range(1 << m.n):
            meets = [(b & a).bit_count() for b in m._masks]
            for k in range(min(meets) + 1, max(meets)):
                splits += 1
                sides = [
                    [b for b, c in zip(m._masks, meets) if keep(c)]
                    for keep in (k.__ge__, k.__le__, k.__eq__)
                ]
                if all(mat.exchange_valid(side) for side in sides):
                    matroidal += 1
                    low, high, facet = (
                        mat.qsym_of_matroid(Matroid.from_masks(m.n, side)) for side in sides
                    )
                    assert mat.qsym_of_matroid(m) + facet == low + high, (m, a, k)
    assert (splits, matroidal) == (2242, 286)


def test_loop_coloop_equivalence():
    rng = random.Random(13)
    for _ in range(20):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 5))
        with_loop = m.direct_sum(uniform(0, 1))
        with_coloop = m.direct_sum(uniform(1, 1))
        f = mat.qsym_of_matroid(with_loop)
        # the no-switch route keeps the coloop in the interleaving
        assert f == mat._qsym_by_interleaving(with_coloop)
        assert f == qsym.nbasis_product(
            mat.qsym_of_matroid(m), QSymElement.single("N", (1,))
        )


def test_loops_plus_coloops_formula():
    assert mat.loops_coloops_from_qsym(mat.qsym_of_matroid(uniform(1, 1))) == 1
    assert mat.loops_coloops_from_qsym(mat.qsym_of_matroid(uniform(1, 2))) == 0
    rng = random.Random(17)
    for _ in range(40):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 5))
        for _ in range(rng.randint(0, 2)):
            m = m.direct_sum(uniform(0, 1))
        for _ in range(rng.randint(0, 2)):
            m = m.direct_sum(uniform(1, 1))
        expected = len(m.loops()) + len(m.coloops())
        assert mat.loops_coloops_from_qsym(mat.qsym_of_matroid(m)) == expected


def test_rank_space_membership_with_loops():
    rng = random.Random(19)
    for _ in range(20):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 5))
        loops = rng.randint(0, 2)
        augmented = m
        for _ in range(loops):
            augmented = augmented.direct_sum(uniform(0, 1))
        f = mat.qsym_of_matroid(augmented)
        assert qsym.in_Vnr(f, augmented.n, augmented.rank + loops)


def test_T_U_vectors():
    assert mat.T_vec(5, 1).terms == {(2, 3): Fraction(1, 2)}
    assert mat.T_vec(2, 1).terms == {(2,): Fraction(1, 2)}
    assert mat.T_vec(4, 3).terms == {
        (2, 2): Fraction(1, 2),
        (1, 1, 1, 1): 2,
        (1, 2, 1): 1,
    }
    assert mat.Ubar_vec(6, 3) == QSymElement.zero("N")
    assert mat.Ubar_vec(6, 4) == mat.U_vec(6, 2).scale(-1)
    with pytest.raises(ValidationError):
        mat.T_vec(3, 3)


def test_t_vector_closed_form_matches_term_by_term_sums():
    rng = random.Random(18)
    for n in range(2, 11):
        for k in range(1, n):
            assert mat.T_vec(n, k).to_json() == t_vec_by_terms(n, k).to_json(), (n, k)
        for lam in comp.partitions(n, min_parts=2):
            expected = rank2_qsym_by_u_vectors(lam)
            assert mat.rank2_qsym(lam).to_json() == expected.to_json(), lam
        # u_coordinates solves for the coordinates the element was built
        # from, exactly, on random fractional weights
        for _ in range(5):
            t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(1, n))
            element = QSymElement.zero("N")
            for k, tk in enumerate(t, start=1):
                element = element + t_vec_by_terms(n, k).scale(tk * k * (n - k))
            if element:
                assert mat.u_coordinates(element) == (n, t)


def test_U_vectors_span_rank_two_space():
    for n in range(2, 10):
        comps = [c for c in qsym.ordered_compositions(n) if comp.rank(c) == 2]
        rows = []
        for k in range(1, n):
            vec = mat.U_vec(n, k)
            rows.append([Fraction(vec.terms.get(c, 0)) for c in comps])
        assert linalg.matrix_rank(rows) == len(comps) == n - 1
        # the symmetric sums span the product part, of dimension floor(n/2)
        sym = []
        for k in range(1, n // 2 + 1):
            vec = mat.U_vec(n, k) + mat.U_vec(n, n - k)
            sym.append([Fraction(vec.terms.get(c, 0)) for c in comps])
        assert linalg.matrix_rank(sym) == n // 2


def _u_coordinates_by_gauss_jordan(element):
    """Oracle: the U coordinates as one exact linear system over all the
    rank-two compositions of the degree."""
    q = qsym.convert(element, "N")
    n = q.degree()
    if n < 2 or not qsym.in_Vnr(q, n, 2):
        raise ValidationError("not in the rank-two span")
    rows = [c for c in qsym.ordered_compositions(n) if comp.rank(c) == 2]
    columns = [[mat.U_vec(n, k).terms.get(c, 0) for c in rows] for k in range(1, n)]
    solution = linalg.solve_columns(columns, [q.terms.get(c, 0) for c in rows])
    if solution is None:
        raise ValidationError("not in the span of the U vectors")
    return n, tuple(solution)


def test_u_coordinates_match_gauss_jordan():
    for n in range(2, 13):
        for lam in comp.partitions(n, min_parts=2):
            q = mat.rank2_qsym(lam)
            n_out, t = mat.u_coordinates(q)
            assert (n_out, t) == _u_coordinates_by_gauss_jordan(q)
            assert all(isinstance(x, Fraction) for x in t)
            assert t == tuple(Fraction(lam.count(k)) for k in range(1, n))
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(2, 9)
        t = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(1, n)]
        q = QSymElement.zero("N")
        for k in range(1, n):
            q = q + mat.U_vec(n, k).scale(t[k - 1])
        if q:
            assert mat.u_coordinates(q) == _u_coordinates_by_gauss_jordan(q) == (n, tuple(t))
    for bad in [
        QSymElement.single("N", (1, 3)),
        QSymElement("N", {(2, 2): 1, (1, 3): 1}),
        QSymElement("N", {(2, 2): 1, (3, 1, 1): 2}),
    ]:
        with pytest.raises(ValidationError):
            _u_coordinates_by_gauss_jordan(bad)
        with pytest.raises(ValidationError):
            mat.u_coordinates(bad)


def test_rank2_class_examples():
    m = mat.rank2_from_partition((2, 1))
    assert m == uniform(1, 2).direct_sum(uniform(1, 1))
    for lam in [(3, 2), (2, 2, 1), (4, 1, 1)]:
        m = mat.rank2_from_partition(lam)
        n = sum(lam)
        assert len(m.bases) == sum(
            a * b for i, a in enumerate(lam) for b in lam[i + 1 :]
        )
    assert uniform(1, 5).bases == {frozenset({i}) for i in range(1, 6)}
    with pytest.raises(ValidationError):
        mat.rank2_from_partition((3,))
    with pytest.raises(ValidationError):
        mat.rank2_from_partition((1, 3))


def test_rank2_formula_matches_direct_computation():
    for n in range(2, 9):
        for lam in comp.partitions(n, min_parts=2):
            assert mat.rank2_qsym(lam) == mat.qsym_of_matroid(
                mat.rank2_from_partition(lam)
            )
    assert mat.rank2_qsym((1, 1, 1)).terms == {(2, 1): 3}


def test_rank2_product_identity():
    for n in range(2, 10):
        for a in range(1, n):
            b = n - a
            lhs = qsym.nbasis_product(
                QSymElement.single("N", comp.drop_zero_parts((1, a - 1)), a),
                QSymElement.single("N", comp.drop_zero_parts((1, b - 1)), b),
            )
            assert lhs == mat.U_vec(n, a) + mat.U_vec(n, b)


def test_mod_m2():
    for n in range(2, 9):
        for a in range(1, n // 2 + 1):
            lam = tuple(sorted((a, n - a), reverse=True))
            assert all(v == 0 for v in mat.mod_m2(mat.rank2_qsym(lam)).values())
    for n in range(3, 8):
        for lam in comp.partitions(n, min_parts=2):
            assert mat.mod_m2(mat.rank2_qsym(lam)) == mat.ubar_coordinates_of_partition(
                lam
            )
    # linearity on random pairs
    rng = random.Random(23)
    lams = [lam for n in (6, 7) for lam in comp.partitions(n, min_parts=2)]
    for _ in range(15):
        n = rng.choice((6, 7))
        pool = [l for l in lams if sum(l) == n]
        a, b = rng.choice(pool), rng.choice(pool)
        qa, qb = mat.rank2_qsym(a), mat.rank2_qsym(b)
        combo = mat.mod_m2(qa + qb.scale(3))
        ca, cb = mat.mod_m2(qa), mat.mod_m2(qb)
        assert combo == {k: ca[k] + 3 * cb[k] for k in ca}
    with pytest.raises(ValidationError):
        mat.mod_m2(QSymElement.single("N", (1, 2)))


def test_recover_rank2_round_trip():
    for n in range(2, 11):
        for lam in comp.partitions(n, min_parts=2):
            f = mat.rank2_qsym(lam)
            for loops in range(3):
                # N_(0) is the empty composition, the unit
                power = QSymElement.single("N", comp.drop_zero_parts((loops,)))
                rec = mat.recover_rank2(qsym.nbasis_product(f, power))
                assert rec.lam == lam and rec.loops == loops


def test_recover_rank2_with_loops_and_coloops():
    f = mat.qsym_of_matroid(mat.rank2_from_partition((3, 2, 1)).direct_sum(uniform(0, 1)))
    rec = mat.recover_rank2(f)
    assert rec.lam == (3, 2, 1) and rec.loops == 1 and rec.coloops == 0

    two_coloops_one_loop = uniform(1, 1).direct_sum(uniform(1, 1)).direct_sum(uniform(0, 1))
    rec = mat.recover_rank2(mat.qsym_of_matroid(two_coloops_one_loop))
    assert rec.case == "two-coloops-plus-loops"
    assert (rec.loops, rec.coloops, rec.lam) == (1, 2, (1, 1))

    one_coloop = uniform(1, 1).direct_sum(uniform(1, 3))
    rec = mat.recover_rank2(mat.qsym_of_matroid(one_coloop))
    assert rec.case == "one-coloop" and rec.lam == (3, 1) and rec.loops == 0


def test_recover_rank2_rejects_non_invariants():
    for bad in [
        QSymElement.single("N", (1, 2, 2)),
        QSymElement("N", {(2, 2): 1, (1, 1, 1, 1): 1}),
        QSymElement.single("N", (2, 3), 2),
        QSymElement.single("N", (1, 3)),
    ]:
        with pytest.raises(ValidationError):
            mat.recover_rank2(bad)


def test_recover_modm2_round_trip():
    for n in range(3, 10):
        for lam in comp.partitions(n, min_parts=3):
            coords = mat.ubar_coordinates_of_partition(lam)
            assert mat.recover_rank2_modm2(coords, n) == lam
    # a part equal to n/2 is invisible in the coordinates
    lam = (3, 2, 1)
    coords = mat.ubar_coordinates_of_partition(lam)
    assert mat.recover_rank2_modm2(coords, 6) == lam
    with pytest.raises(ValidationError):
        mat.recover_rank2_modm2({1: Fraction(1, 2)}, 6)


def test_recover_modm2_rejects_non_numbers():
    # the true coordinates of (3, 2, 1) at n = 6 are {1: 1, 2: 1}; a string,
    # a float or a bool index is rejected, never converted, and so is a
    # value that is not a mapping
    assert mat.recover_rank2_modm2(mat.mod_m2(mat.rank2_qsym((3, 2, 1))), 6) == (3, 2, 1)
    for coords in ({1: "1", 2: "1"}, {1: 1.0, 2: 1.0}, {True: 1, 2: 1}, 5, [1, 2]):
        with pytest.raises(ValidationError):
            mat.recover_rank2_modm2(coords, 6)


def test_distinct_classes_have_distinct_coordinates():
    for n in range(3, 10):
        seen = {}
        for lam in comp.partitions(n, min_parts=3):
            key = tuple(sorted(mat.ubar_coordinates_of_partition(lam).items()))
            assert key not in seen, (lam, seen[key])
            seen[key] = lam


def test_split_identities():
    desc = lambda c: tuple(sorted(c, reverse=True))
    for n in range(2, 9):
        for lam in comp.partitions(n, min_parts=2):
            for s in range(1, len(lam)):
                res = mat.split(lam, s)
                assert (
                    mat.rank2_qsym(lam)
                    == mat.rank2_qsym(desc(res.alpha))
                    + mat.rank2_qsym(desc(res.beta))
                    - mat.rank2_qsym(desc(res.mu))
                )
                parent = res.certificate.parent.matroid()
                le = res.certificate.child_le.matroid()
                ge = res.certificate.child_ge.matroid()
                assert le.bases | ge.bases == parent.bases
                assert le.bases & ge.bases == {
                    b for b in parent.bases if len(b & res.certificate.subset) == 1
                }
    # a two-part class splits trivially
    res = mat.split((3, 2), 1)
    assert sorted(res.alpha, reverse=True) == sorted(res.mu, reverse=True) == [3, 2]


def test_split_on_compositions():
    res = mat.split((1, 3, 2), 2)
    assert res.alpha == (4, 2) and res.beta == (1, 3, 2) and res.mu == (4, 2)
    with pytest.raises(ValidationError):
        mat.split((2, 2), 2)


def test_full_split_to_length3():
    assert mat.full_split_to_length3((2, 2, 1)) == ((2, 2, 1),)
    parts = mat.full_split_to_length3((2, 1, 1, 1))
    assert parts == ((2, 2, 1), (3, 1, 1))
    for n in range(4, 10):
        for lam in comp.partitions(n, min_parts=4):
            parts = mat.full_split_to_length3(lam)
            assert len(parts) == len(lam) - 2
            assert all(len(p) == 3 for p in parts)
            total = {k: Fraction(0) for k in mat.ubar_coordinates_of_partition(lam)}
            for p in parts:
                for k, v in mat.ubar_coordinates_of_partition(p).items():
                    total[k] += v
            assert total == mat.ubar_coordinates_of_partition(lam)


def test_full_split_closed_form_matches_split_certificates():
    for n in range(4, 15):
        for lam in comp.partitions(n, min_parts=4):
            assert mat.full_split_to_length3(lam) == full_split_by_split(lam), lam
    for lam in [(1, 1, 1), (3, 2, 1), (4, 4, 4)]:
        assert mat.full_split_to_length3(lam) == full_split_by_split(lam) == (lam,)


def test_ubar_coordinates_are_ints():
    for n in range(2, 12):
        for lam in comp.partitions(n, min_parts=2):
            coords = mat.ubar_coordinates_of_partition(lam)
            assert list(coords) == list(range(1, (n + 1) // 2))
            assert all(type(v) is int for v in coords.values()), lam


def test_geom_decompose_identity_and_splits():
    d = mat.geom_decompose((2, 1, 1), [(2, 1, 1)])
    assert d.verified and len(d.representatives) == 1
    assert d.representatives[0].lam == (2, 1, 1)
    for n in range(4, 9):
        for lam in comp.partitions(n, min_parts=4):
            members = mat.full_split_to_length3(lam)
            d = mat.geom_decompose(lam, list(members))
            assert d.verified
            assert tuple(r.lam for r in d.representatives) == members
    with pytest.raises(ValidationError):
        mat.geom_decompose((2, 1, 1), [(1, 1, 1, 1)])


def test_geom_decompose_randomized():
    rng = random.Random(29)
    desc = lambda c: tuple(sorted(c, reverse=True))
    for _ in range(25):
        n = rng.randint(5, 9)
        lam = rng.choice([l for l in comp.partitions(n, min_parts=3)])
        members = [lam]
        for _ in range(rng.randint(0, 3)):
            idx = [i for i, m in enumerate(members) if len(m) > 3]
            if not idx:
                break
            i = rng.choice(idx)
            arrangement = list(members.pop(i))
            rng.shuffle(arrangement)
            s = rng.randint(2, len(arrangement) - 2)
            res = mat.split(tuple(arrangement), s)
            members += [desc(res.alpha), desc(res.beta)]
        d = mat.geom_decompose(lam, members)
        assert d.verified


def test_verify_polytope_decomposition_negatives():
    lam = (2, 1, 1, 1)
    members = mat.full_split_to_length3(lam)
    d = mat.geom_decompose(lam, list(members))
    parent = d.root.matroid()
    parts = [r.matroid() for r in d.representatives]
    ok, reason = mat.verify_polytope_decomposition(parent, parts, d.splits)
    assert ok and reason is None
    ok, reason = mat.verify_polytope_decomposition(parent, parts[:1], d.splits)
    assert not ok and "cover" in reason
    stranger = uniform(2, parent.n)
    ok, reason = mat.verify_polytope_decomposition(parent, [stranger], d.splits)
    assert not ok and "outside" in reason
    # a certificate with its two sides swapped, or with one side's class
    # standing for the other, is caught on the <=1 side or the >=1 side
    cert = d.splits[0]
    swapped = cert._replace(child_le=cert.child_ge, child_ge=cert.child_le)
    ok, reason = mat.verify_polytope_decomposition(parent, parts, [swapped])
    assert not ok and "<=1 side" in reason
    ok, reason = mat.verify_polytope_decomposition(
        parent, parts, [cert._replace(child_ge=cert.child_le)]
    )
    assert not ok and ">=1 side" in reason
    # every split of every class with n <= 8 passes, and fails once S
    # trades its least element for n, off its block boundary
    for n in range(3, 9):
        for lam in comp.partitions(n, min_parts=3):
            for s in range(1, len(lam)):
                c = mat.split(lam, s).certificate
                parent = c.parent.matroid()
                sides = [c.child_le.matroid(), c.child_ge.matroid()]
                assert mat.verify_polytope_decomposition(parent, sides, [c]) == (True, None)
                if len(c.subset) > 1:
                    moved = c._replace(subset=c.subset - {min(c.subset)} | {n})
                    assert not mat.verify_polytope_decomposition(parent, sides, [moved])[0]


def test_polytope_dim_and_edges():
    assert mat.polytope_dim(mat.rank2_from_partition((3, 2))) == 3
    assert mat.polytope_dim(mat.rank2_from_partition((2, 1, 1))) == 3
    assert mat.polytope_dim(uniform(2, 4)) == 3
    u = uniform(2, 4)
    assert mat.polytope_edge(u, {1, 2}, {1, 3})
    assert not mat.polytope_edge(u, {1, 2}, {3, 4})
    with pytest.raises(ValidationError):
        mat.polytope_edge(u, {1, 2}, {1, 2, 3})


def test_hilbert_basis_check_n6():
    report = mat.hilbert_basis_check(6)
    assert report["passed"]
    gens = {tuple(g) for g in report["generators"]}
    assert gens == {(4, 1, 1), (3, 2, 1), (2, 2, 2)}
    assert report["sum_bound"] == 1
    assert report["decompositions"]["[2, 2, 1, 1]"]["valid"]


def _generator_sums(n):
    """Oracle for indecomposability: every length-three class equal to a
    sum of two or three length-three classes, found by searching every
    multiset of generators."""
    gens = [lam for lam in comp.partitions(n, min_parts=3) if len(lam) == 3]
    vectors = {lam: mat.ubar_coordinates_of_partition(lam) for lam in gens}
    found = []
    for size in (2, 3):
        for combo in itertools.combinations_with_replacement(gens, size):
            total = {k: sum(vectors[lam][k] for lam in combo) for k in vectors[gens[0]]}
            found += [(lam, combo) for lam in gens if vectors[lam] == total]
    return found


def test_hilbert_basis_check_matches_fraction_functional():
    for n in range(3, 15):
        report = mat.hilbert_basis_check(n)
        assert list(report.items()) == list(hilbert_basis_check_by_fractions(n).items()), n
        assert report["passed"] and report["sum_bound"] == 1


def test_hilbert_indecomposability_matches_multiset_search():
    for n in range(3, 10):
        report = mat.hilbert_basis_check(n)
        assert report["indecomposable"] == (not _generator_sums(n))
        assert report["counterexample"] is None
        assert list(report) == [
            "n",
            "generators",
            "pairwise_distinct",
            "indecomposable",
            "sum_bound",
            "counterexample",
            "longer_classes_decompose",
            "decompositions",
            "passed",
        ]


def test_duality():
    report = mat.duality_check(uniform(2, 4))
    assert report["monomial_holds"] and report["nbasis_holds"] and report["vshift_holds"]
    rng = random.Random(31)
    found = 0
    while found < 12:
        m = mat.sample_loopless_matroid(rng, rng.randint(2, 7))
        report = mat.duality_check(m)
        assert report["monomial_holds"]
        assert report["vshift_holds"]
        if report["nbasis_precondition_ok"]:
            assert report["nbasis_holds"]
            found += 1
    counterexample = mat.duality_check(mat.rank2_from_partition((2, 1)))
    assert counterexample["monomial_holds"]
    assert not counterexample["nbasis_holds"]
    assert not counterexample["nbasis_precondition_ok"]


def test_missing_edge_coefficient_counts_boundary_exchanges():
    rng = random.Random(37)
    checked = 0
    while checked < 20:
        m = mat.sample_loopless_matroid(rng, rng.randint(4, 7))
        r, n = m.rank, m.n
        if r < 2 or n - r < 2:
            continue
        checked += 1
        f = mat.qsym_of_matroid(m)
        coefficient = f.terms.get((r - 1, 1, 1, n - r - 1), 0)
        bases = m.bases
        missing = 0
        for basis in bases:
            for b in basis:
                for c in range(1, n + 1):
                    if c in basis:
                        continue
                    if frozenset(basis - {b} | {c}) not in bases:
                        missing += 1
        boundary = 0
        for basis in uniform(r, n).bases:
            if basis in bases:
                continue
            for other in bases:
                if len(basis ^ other) == 2:
                    boundary += 1
        assert coefficient == missing == boundary


def test_matroid_json_round_trip():
    m = mat.rank2_from_partition((2, 2, 1))
    assert Matroid.from_json(m.to_json()) == m
    cls = RankTwoClass.from_blocks([{3, 4}, {1, 2}, {5}])
    assert cls.lam == (2, 2, 1)
    assert cls.to_json()["blocks"] == [[1, 2], [3, 4], [5]]


def test_invariant_independent_of_block_assignment():
    # the invariant and recovery see only the isomorphism class, not which
    # concrete elements form each parallelism class
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(2, 7)
        lam = rng.choice([l for l in comp.partitions(n, min_parts=2)])
        elements = list(range(1, n + 1))
        rng.shuffle(elements)
        blocks, pos = [], 0
        for part in lam:
            blocks.append(frozenset(elements[pos : pos + part]))
            pos += part
        m = mat.rank2_matroid_from_blocks(blocks)
        f = mat.qsym_of_matroid(m)
        assert f == mat.rank2_qsym(lam)
        assert mat.recover_rank2(f).lam == lam


def test_sampler_reproducible_and_valid():
    a = mat.sample_loopless_matroid(random.Random(99), 6)
    b = mat.sample_loopless_matroid(random.Random(99), 6)
    assert a == b
    for seed in range(25):
        m = mat.sample_loopless_matroid(random.Random(seed), 7)
        assert not m.loops()
        assert mat.exchange_valid(m._masks)
