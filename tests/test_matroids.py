import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from nqsym import compositions as comp
from nqsym import matroids as mat
from nqsym import qsym
from nqsym.elements import QSymElement
from nqsym.errors import ValidationError
from nqsym.matroids import Matroid, RankTwoClass, uniform


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
    assert all(len(c) == 3 for c in u.circuits())
    assert len(u.circuits()) == comb(4, 3)


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
        assert mat.exchange_valid(m.n, m._masks)
        assert Matroid(m.n, m.bases) == m
    # one nonempty block has no cross pairs, so no bases
    with pytest.raises(ValidationError):
        mat.rank2_matroid_from_blocks([{1, 2}, set()])


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


def test_fast_path_matches_linear_extension_oracle():
    rng = random.Random(7)
    for _ in range(30):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 6))
        assert mat.qsym_of_matroid(m, method="fast") == mat.qsym_of_matroid(
            m, method="extensions"
        )
    # also with loops present
    for _ in range(10):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 4)).direct_sum(uniform(0, 1))
        assert mat.qsym_of_matroid(m, method="fast") == mat.qsym_of_matroid(
            m, method="extensions"
        )


def test_invariant_multiplicative_over_direct_sum():
    rng = random.Random(11)
    for _ in range(20):
        a = mat.sample_loopless_matroid(rng, rng.randint(1, 4))
        b = mat.sample_loopless_matroid(rng, rng.randint(1, 4))
        assert mat.qsym_of_matroid(a.direct_sum(b)) == qsym.nbasis_product(
            mat.qsym_of_matroid(a), mat.qsym_of_matroid(b)
        )


def test_loop_coloop_equivalence():
    rng = random.Random(13)
    for _ in range(20):
        m = mat.sample_loopless_matroid(rng, rng.randint(1, 5))
        with_loop = m.direct_sum(uniform(0, 1))
        with_coloop = m.direct_sum(uniform(1, 1))
        f = mat.qsym_of_matroid(with_loop)
        assert f == mat.qsym_of_matroid(with_coloop)
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


def test_U_vectors_span_rank_two_space():
    from nqsym import linalg

    for n in range(2, 10):
        comps = qsym.compositions_of_rank(n, 2)
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
    for n in range(2, 9):
        for lam in comp.partitions(n, min_parts=2):
            rec = mat.recover_rank2(mat.rank2_qsym(lam))
            assert rec.lam == lam and rec.loops == 0


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
        missing = 0
        for basis in m.bases:
            for b in basis:
                for c in range(1, n + 1):
                    if c in basis:
                        continue
                    if frozenset(basis - {b} | {c}) not in m.bases:
                        missing += 1
        boundary = 0
        for basis in uniform(r, n).bases:
            if basis in m.bases:
                continue
            for other in m.bases:
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
        assert mat.exchange_valid(m.n, m._masks)
