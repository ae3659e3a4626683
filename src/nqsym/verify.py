"""Reproducible verification harness.

Each check function runs one family of identities at a configurable size
bound and returns a CheckResult; run_all caps every bound at the requested
maximum so the command line can trade coverage for time.  All randomness is
seeded and all arithmetic exact, so reports are byte-stable.
"""

import json
import random
import time
from dataclasses import dataclass, field
from math import comb

from . import matroids as mat
from . import qsym
from .compositions import (
    compositions,
    drop_zero_parts,
    fibre,
    format_composition,
    induced_partition_by_set_partition,
    partitions,
    rank,
    rho,
    runs,
    weight,
)
from .elements import QSymElement
from .matroids import (
    duality_check,
    full_split_to_length3,
    geom_decompose,
    hilbert_basis_check,
    loops_coloops_from_qsym,
    mod_m2,
    qsym_of_matroid,
    rank2_from_partition,
    rank2_qsym,
    recover_rank2,
    recover_rank2_modm2,
    sample_loopless_matroid,
    split,
    uniform,
)


@dataclass
class CheckResult:
    check_id: str
    description: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "id": self.check_id,
            "description": self.description,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "details": self.details,
        }


def _result(check_id, description, start, passed, **details):
    return CheckResult(check_id, description, passed, time.perf_counter() - start, dict(details))


def check_worked_examples():
    """Fixed small values that must come out byte-exactly."""
    start = time.perf_counter()
    failures = []
    expansion = qsym.n_basis_element((1, 2, 2))
    if expansion.terms != {(1, 4): 1, (1, 3, 1): 1, (1, 1, 3): 1, (1, 1, 2, 1): 1}:
        failures.append("N[122] expansion")
    frozen = (
        '{"basis": "L", "terms": [{"comp": [1, 1, 3], "den": 1, "num": 1},'
        ' {"comp": [1, 1, 2, 1], "den": 1, "num": 1},'
        ' {"comp": [1, 3, 1], "den": 1, "num": 1},'
        ' {"comp": [1, 4], "den": 1, "num": 1}]}'
    )
    if json.dumps(expansion.to_json(), sort_keys=True) != frozen:
        failures.append("N[122] canonical JSON")
    if runs((9, 3, 4, 7, 5, 6, 2, 1, 8)) != (1, 3, 2, 1, 2):
        failures.append("runs of 934756218")
    if format_composition(runs((9, 3, 4, 7, 5, 6, 2, 1, 8))) != "13212":
        failures.append("digit string of the run composition")
    if rho((1, 8, 4, 3, 5, 6, 7, 2, 9)) != (2, 2, 3, 1, 1):
        failures.append("ascent runs of 184356729")
    if format_composition(rho((1, 8, 4, 3, 5, 6, 7, 2, 9))) != "22311":
        failures.append("digit string of the ascent run composition")
    fib = set(fibre((frozenset({2, 7}), frozenset({5}), frozenset({1, 8}))))
    if fib != {
        (2, 7, 5, 1, 8),
        (2, 7, 5, 8, 1),
        (7, 2, 5, 1, 8),
        (7, 2, 5, 8, 1),
    }:
        failures.append("fibre of ({2,7},{5},{1,8})")
    induced = induced_partition_by_set_partition(
        (9, 6, 5, 4, 1, 2, 3, 7, 8),
        frozenset(
            {frozenset({1, 4}), frozenset({2, 6, 8, 9}), frozenset({3, 5, 7})}
        ),
    )
    expected = tuple(
        frozenset(b) for b in [{6, 9}, {5}, {1, 4}, {2}, {3, 7}, {8}]
    )
    if induced != expected:
        failures.append("induced ordered partition example")
    return _result(
        "worked-examples",
        "fixed worked values are reproduced byte-exactly",
        start,
        not failures,
        failures=failures,
    )


def check_zbasis(max_n=8):
    """Integer unitriangular change of basis between the N and L bases."""
    start = time.perf_counter()
    failures = []
    for n in range(1, max_n + 1):
        order, rows = qsym.nl_unitriangular_matrix(n, triangular=True)
        size = len(order)
        if size != 2 ** (n - 1):
            failures.append(f"n={n}: dimension is not 2^(n-1)")
        for i in range(size):
            if rows[i][i] != 1:
                failures.append(f"n={n}: diagonal entry not 1 at {order[i]}")
            if any(rows[i][j] != 0 for j in range(i)):
                failures.append(f"n={n}: entry below the diagonal in row {order[i]}")
            if any(not isinstance(v, int) for v in rows[i]):
                failures.append(f"n={n}: non-integer entry in row {order[i]}")
        forward = qsym.transition_matrix(n, "N", "L")
        backward = qsym.transition_matrix(n, "L", "N")
        if any(not isinstance(v, int) for row in forward.rows for v in row):
            failures.append(f"n={n}: N->L matrix not integer")
        if any(not isinstance(v, int) for row in backward.rows for v in row):
            failures.append(f"n={n}: L->N matrix not integer")
        dim = len(forward.order)
        for i in range(dim):
            row = forward.rows[i]
            for j in range(dim):
                entry = sum(row[k] * backward.rows[k][j] for k in range(dim))
                if entry != (1 if i == j else 0):
                    failures.append(f"n={n}: product is not the identity")
                    break
            else:
                continue
            break
    return _result(
        "zbasis-unitriangular",
        "N to L transition is integer unitriangular with integer inverse",
        start,
        not failures,
        max_n=max_n,
        ordering=(
            "stored matrices use binary word order; triangularity is"
            " exhibited under the length-major order, which binary word"
            " order does not refine"
        ),
        failures=failures[:5],
    )


def check_structure_constants(max_weight=8):
    """N-basis products match the monomial quasi-shuffle oracle with
    nonnegative integer constants and additive weight and rank."""
    start = time.perf_counter()
    failures = []
    pairs = 0
    for total in range(2, max_weight + 1):
        for wa in range(1, total):
            for alpha in compositions(wa):
                if not alpha:
                    continue
                for beta in compositions(total - wa):
                    if not beta:
                        continue
                    pairs += 1
                    product = qsym.mul_nbasis(alpha, beta)
                    for nu, c in product.terms.items():
                        if not isinstance(c, int) or c <= 0:
                            failures.append(f"bad constant at {alpha} * {beta}")
                        if weight(nu) != total or rank(nu) != rank(alpha) + rank(beta):
                            failures.append(f"grading fails at {alpha} * {beta}")
                    oracle = qsym.mul(
                        qsym.convert(QSymElement.single("N", alpha), "M"),
                        qsym.convert(QSymElement.single("N", beta), "M"),
                    )
                    if qsym.convert(product, "M") != oracle:
                        failures.append(f"oracle mismatch at {alpha} * {beta}")
    return _result(
        "structure-constants",
        "N-basis products agree with the quasi-shuffle oracle and grade by rank",
        start,
        not failures,
        pairs=pairs,
        max_weight=max_weight,
        failures=failures[:5],
    )


def _membership_failures(matroid, label):
    out = []
    f = qsym_of_matroid(matroid)
    r = matroid.rank
    n = matroid.n
    if not qsym.in_Vnr(f, n, r):
        out.append(f"{label}: invariant leaves the rank space")
    if not all(isinstance(v, int) and v > 0 for v in f.terms.values()):
        out.append(f"{label}: coefficients not positive integers")
    corner = drop_zero_parts((r, n - r))
    if f.terms.get(corner, 0) != len(matroid.bases):
        out.append(f"{label}: corner coefficient is not the number of bases")
    return out


def check_matroid_membership(rank2_max_n=9, sample_max_n=8, num_samples=200, seed=0):
    """Loopless invariants live in the rank space with positive integer
    coordinates and count bases in the corner coordinate."""
    start = time.perf_counter()
    failures = []
    classes = 0
    for n in range(2, rank2_max_n + 1):
        for lam in partitions(n, min_parts=2):
            classes += 1
            failures.extend(_membership_failures(rank2_from_partition(lam), f"lam={lam}"))
    rng = random.Random(seed)
    sampled = 0
    while sampled < num_samples:
        n = rng.randint(2, sample_max_n)
        matroid = sample_loopless_matroid(rng, n)
        sampled += 1
        failures.extend(_membership_failures(matroid, f"sample#{sampled}"))
    return _result(
        "matroid-membership",
        "loopless invariants: rank space, positivity, corner counts bases",
        start,
        not failures,
        rank2_classes=classes,
        samples=sampled,
        failures=failures[:5],
    )


def check_uniform_formula(max_n=9):
    """Uniform matroids: binomial(n, r) times the two-part corner element."""
    start = time.perf_counter()
    failures = []
    for n in range(1, max_n + 1):
        for r in range(1, n + 1):
            f = qsym_of_matroid(uniform(r, n))
            expected = {drop_zero_parts((r, n - r)): comb(n, r)}
            if f.terms != expected:
                failures.append(f"uniform({r},{n})")
    return _result(
        "uniform-formula",
        "uniform matroid invariants equal binomial(n,r) N[(r,n-r)]",
        start,
        not failures,
        max_n=max_n,
        failures=failures[:5],
    )


def check_rank2_formula(max_n=9):
    """Closed rank-two formula against direct computation, and the product
    identity for two-block classes."""
    start = time.perf_counter()
    failures = []
    for n in range(2, max_n + 1):
        for lam in partitions(n, min_parts=2):
            if rank2_qsym(lam) != qsym_of_matroid(rank2_from_partition(lam)):
                failures.append(f"formula at {lam}")
        for a in range(1, n):
            b = n - a
            left = qsym.nbasis_product(
                QSymElement.single("N", drop_zero_parts((1, a - 1)), a),
                QSymElement.single("N", drop_zero_parts((1, b - 1)), b),
            )
            if left != mat.U_vec(n, a) + mat.U_vec(n, b):
                failures.append(f"product identity at a={a}, n={n}")
    return _result(
        "rank2-formula",
        "rank-two invariants equal their U-vector sums",
        start,
        not failures,
        max_n=max_n,
        failures=failures[:5],
    )


def check_recovery(max_n=9):
    """Round-trip class recovery from invariants, with loop and coloop
    variants, and the quotient recovery for three-part classes."""
    start = time.perf_counter()
    failures = []
    count = 0
    for n in range(2, max_n + 1):
        for lam in partitions(n, min_parts=2):
            count += 1
            rec = recover_rank2(rank2_qsym(lam))
            if rec.lam != lam or rec.loops != 0:
                failures.append(f"pure recovery at {lam}")
            with_loop = qsym_of_matroid(
                rank2_from_partition(lam).direct_sum(uniform(0, 1)),
                limit=max_n + 1,
            )
            rec = recover_rank2(with_loop)
            if rec.lam != lam or rec.loops != 1:
                failures.append(f"loop recovery at {lam}")
    for extra_loops in range(0, 3):
        matroid = uniform(1, 1).direct_sum(uniform(1, 1))
        for _ in range(extra_loops):
            matroid = matroid.direct_sum(uniform(0, 1))
        rec = recover_rank2(qsym_of_matroid(matroid))
        if rec.case != "two-coloops-plus-loops" or rec.loops != extra_loops:
            failures.append(f"two-coloop case with {extra_loops} loops")
    seen = {}
    for n in range(3, max_n + 1):
        for lam in partitions(n, min_parts=3):
            coords = mod_m2(rank2_qsym(lam))
            if recover_rank2_modm2(coords, n) != lam:
                failures.append(f"quotient recovery at {lam}")
            key = (n, tuple(sorted(coords.items())))
            if key in seen:
                failures.append(f"classes collide: {lam} vs {seen[key]}")
            seen[key] = lam
    return _result(
        "rank2-recovery",
        "invariants determine the rank-two class, also modulo products",
        start,
        not failures,
        classes=count,
        max_n=max_n,
        failures=failures[:5],
    )


def check_splits(max_n=8, seed=0, random_rounds=25):
    """Split identities at every position, and geometric decompositions
    reassembled from repeated splitting."""
    start = time.perf_counter()
    failures = []
    desc = lambda c: tuple(sorted(c, reverse=True))
    for n in range(2, max_n + 1):
        for lam in partitions(n, min_parts=2):
            for s in range(1, len(lam)):
                res = split(lam, s)
                lhs = rank2_qsym(lam)
                rhs = (
                    rank2_qsym(desc(res.alpha))
                    + rank2_qsym(desc(res.beta))
                    - rank2_qsym(desc(res.mu))
                )
                if lhs != rhs:
                    failures.append(f"invariant identity at {lam}, s={s}")
                parent = res.certificate.parent.matroid()
                le = res.certificate.child_le.matroid()
                ge = res.certificate.child_ge.matroid()
                if le.bases | ge.bases != parent.bases:
                    failures.append(f"vertex union at {lam}, s={s}")
                equality = {
                    b for b in parent.bases if len(b & res.certificate.subset) == 1
                }
                if le.bases & ge.bases != equality:
                    failures.append(f"vertex intersection at {lam}, s={s}")
    for n in range(4, max_n + 1):
        for lam in partitions(n, min_parts=4):
            members = full_split_to_length3(lam)
            decomp = geom_decompose(lam, list(members))
            if not decomp.verified:
                failures.append(f"full split decomposition at {lam}")
    rng = random.Random(seed)
    lams = [
        lam
        for n in range(5, min(max_n + 1, 9) + 1)
        for lam in partitions(n, min_parts=3)
    ]
    for _ in range(random_rounds if lams else 0):
        lam = rng.choice(lams)
        members = [lam]
        for _ in range(rng.randint(0, 3)):
            idx = [i for i, m in enumerate(members) if len(m) > 3]
            if not idx:
                break
            i = rng.choice(idx)
            arrangement = list(members.pop(i))
            rng.shuffle(arrangement)
            s = rng.randint(2, len(arrangement) - 2)
            res = split(tuple(arrangement), s)
            members.append(desc(res.alpha))
            members.append(desc(res.beta))
        decomp = geom_decompose(lam, members)
        if not decomp.verified:
            failures.append(f"random decomposition at {lam}: {members}")
    return _result(
        "splits-and-decompositions",
        "split identities hold and class equations lift to polytope splits",
        start,
        not failures,
        max_n=max_n,
        random_rounds=random_rounds,
        failures=failures[:5],
    )


def check_hilbert_basis(max_n=8):
    """Three-part classes are distinct, indecomposable, and generate."""
    start = time.perf_counter()
    failures = []
    for n in range(3, max_n + 1):
        report = hilbert_basis_check(n)
        if not report["passed"]:
            failures.append(f"n={n}")
    return _result(
        "hilbert-basis",
        "three-part classes form the minimal generating set",
        start,
        not failures,
        max_n=max_n,
        failures=failures,
    )


def check_invariance_duality_coproduct(num_matroids=100, seed=0, max_n=7):
    """Loop and coloop equivalence, the total count formula, part-reversal
    duality in both bases, and the coproduct counterexample."""
    start = time.perf_counter()
    failures = []
    rng = random.Random(seed)
    checked = 0
    while checked < num_matroids:
        n = rng.randint(1, max_n - 1)
        base = sample_loopless_matroid(rng, n)
        with_loop = base.direct_sum(uniform(0, 1))
        with_coloop = base.direct_sum(uniform(1, 1))
        f_loop = qsym_of_matroid(with_loop)
        if f_loop != qsym_of_matroid(with_coloop):
            failures.append(f"loop/coloop invariance #{checked}")
        if f_loop != qsym.nbasis_product(
            qsym_of_matroid(base), QSymElement.single("N", (1,))
        ):
            failures.append(f"degree-one factor #{checked}")
        extra_loops = rng.randint(0, 2)
        extra_coloops = rng.randint(0, 2)
        augmented = base
        for _ in range(extra_loops):
            augmented = augmented.direct_sum(uniform(0, 1))
        for _ in range(extra_coloops):
            augmented = augmented.direct_sum(uniform(1, 1))
        expected = len(augmented.loops()) + len(augmented.coloops())
        if loops_coloops_from_qsym(qsym_of_matroid(augmented)) != expected:
            failures.append(f"loop+coloop count #{checked}")
        checked += 1
    duals = 0
    attempts = 0
    rng2 = random.Random(seed + 1)
    while duals < 40 and attempts < 4000:
        attempts += 1
        matroid = sample_loopless_matroid(rng2, rng2.randint(2, max_n))
        report = duality_check(matroid)
        if not report["monomial_holds"]:
            failures.append("monomial duality")
        if report["vshift_holds"] is False:
            failures.append("rank space shift under duality")
        if report["nbasis_precondition_ok"]:
            duals += 1
            if not report["nbasis_holds"]:
                failures.append("N-basis duality on loopless coloop-free input")
    counterexample = duality_check(rank2_from_partition((2, 1)))
    if counterexample["nbasis_holds"] or not counterexample["monomial_holds"]:
        failures.append("coloop duality counterexample")
    delta = qsym.coproduct_monomial(QSymElement.single("N", (1, 1)))
    expected_terms = {
        ((1, 1), ()): 1,
        ((1,), (1,)): 1,
        ((), (1, 1)): 1,
    }
    if delta.terms != expected_terms:
        failures.append("coproduct of the degree-two element")
    in_n = qsym.tensor_convert(delta, "N")
    if in_n.coefficient((1,), (1,)) != 1:
        failures.append("coproduct cross term in the N basis")
    cross_rank = rank((1,)) + rank((1,))
    if cross_rank == rank((1, 1)):
        failures.append("cross term unexpectedly respects the rank grading")
    return _result(
        "invariance-duality-coproduct",
        "loop equivalence, count formula, duality transforms, coproduct term",
        start,
        not failures,
        matroids=checked,
        dual_checks=duals,
        failures=failures[:5],
    )


FULL_BOUNDS = {
    "worked-examples": {},
    "zbasis-unitriangular": {"max_n": 8},
    "structure-constants": {"max_weight": 8},
    "matroid-membership": {"rank2_max_n": 9, "sample_max_n": 8, "num_samples": 200, "seed": 0},
    "uniform-formula": {"max_n": 9},
    "rank2-formula": {"max_n": 9},
    "rank2-recovery": {"max_n": 9},
    "splits-and-decompositions": {"max_n": 8, "seed": 0},
    "hilbert-basis": {"max_n": 8},
    "invariance-duality-coproduct": {"num_matroids": 100, "seed": 0, "max_n": 7},
}

CHECKS = (
    ("worked-examples", check_worked_examples),
    ("zbasis-unitriangular", check_zbasis),
    ("structure-constants", check_structure_constants),
    ("matroid-membership", check_matroid_membership),
    ("uniform-formula", check_uniform_formula),
    ("rank2-formula", check_rank2_formula),
    ("rank2-recovery", check_recovery),
    ("splits-and-decompositions", check_splits),
    ("hilbert-basis", check_hilbert_basis),
    ("invariance-duality-coproduct", check_invariance_duality_coproduct),
)


def run_all(max_n=8, seed=0):
    """Run every check with its bounds capped at max_n and, if it takes a
    seed, with seed; returns the report."""
    results = []
    for check_id, func in CHECKS:
        kwargs = {}
        for name, bound in FULL_BOUNDS[check_id].items():
            if name == "seed":
                kwargs[name] = seed
            elif name in ("num_samples", "num_matroids"):
                kwargs[name] = bound
            else:
                kwargs[name] = min(bound, max_n)
        results.append(func(**kwargs))
    return {
        "max_n": max_n,
        "seed": seed,
        "checks": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }
