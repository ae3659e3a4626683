"""End-to-end acceptance suite.

Each test runs one verification family at its full stated bound, timing
the call itself, and prints a single PASS or FAIL line; run with -s to see
the lines.  All arithmetic is exact, so there are no tolerances to tune.
"""

import time

from nqsym import verify


def timed(check, **kwargs):
    """The check's result and the wall-clock seconds its call took."""
    start = time.perf_counter()
    result = check(**kwargs)
    return result, time.perf_counter() - start


def report(result, elapsed):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}: {result.check_id} ({elapsed:.2f}s) {result.details}")
    assert result.passed, result.details


def test_criterion_01_worked_examples_exact():
    # byte-exact fixed values, well under a second
    result, elapsed = timed(verify.check_worked_examples)
    report(result, elapsed)
    assert elapsed < 1.0


def test_criterion_02_zbasis_unitriangular_n8():
    # integer unitriangular with integer inverse for every degree up to 8
    result, elapsed = timed(verify.check_zbasis, max_n=8)
    report(result, elapsed)
    assert elapsed < 30.0


def test_criterion_03_structure_constants_weight8():
    # all products of total weight up to 8 against the quasi-shuffle oracle
    result, elapsed = timed(verify.check_structure_constants, max_weight=8)
    report(result, elapsed)
    # every ordered pair is still graded and checked for positivity
    assert result.details["pairs"] == 769
    assert elapsed < 120.0


def test_criterion_04_matroid_membership():
    # every rank-two class up to weight 9 and 200 sampled loopless matroids
    result, elapsed = timed(
        verify.check_matroid_membership, rank2_max_n=9, sample_max_n=8, num_samples=200, seed=0
    )
    report(result, elapsed)
    assert result.details["samples"] >= 200
    assert elapsed < 120.0


def test_criterion_05_uniform_formula_n9():
    result, elapsed = timed(verify.check_uniform_formula, max_n=9)
    report(result, elapsed)
    assert elapsed < 10.0


def test_criterion_06_rank2_formula_n9():
    result, elapsed = timed(verify.check_rank2_formula, max_n=9)
    report(result, elapsed)
    assert elapsed < 60.0


def test_criterion_07_recovery_n9():
    result, elapsed = timed(verify.check_recovery, max_n=9)
    report(result, elapsed)
    assert elapsed < 60.0


def test_criterion_08_splits_and_decompositions_n8():
    result, elapsed = timed(verify.check_splits, max_n=8, seed=0)
    report(result, elapsed)
    assert elapsed < 120.0


def test_criterion_09_hilbert_basis_n8():
    result, elapsed = timed(verify.check_hilbert_basis, max_n=8)
    report(result, elapsed)
    assert elapsed < 120.0


def test_criterion_10_invariance_duality_coproduct():
    result, elapsed = timed(
        verify.check_invariance_duality_coproduct, num_matroids=100, seed=0, max_n=7
    )
    report(result, elapsed)
    assert result.details["matroids"] >= 100
    assert elapsed < 60.0
