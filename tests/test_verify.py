import inspect
from fractions import Fraction

import pytest

from nqsym import qsym, verify
from nqsym.elements import QSymElement
from nqsym.errors import ValidationError


def test_full_bounds_match_check_signatures():
    assert [check_id for check_id, _ in verify.CHECKS] == list(verify.FULL_BOUNDS)
    for check_id, func in verify.CHECKS:
        parameters = inspect.signature(func).parameters
        bounds = verify.FULL_BOUNDS[check_id]
        assert set(bounds) <= set(parameters), check_id
        assert ("seed" in parameters) == ("seed" in bounds), check_id


def test_run_all_passes_the_seed_through(monkeypatch):
    calls = {}

    def recording(check_id, func):
        def wrapper(**kwargs):
            calls[check_id] = kwargs
            return func(**kwargs)

        return wrapper

    monkeypatch.setattr(
        verify,
        "CHECKS",
        tuple((check_id, recording(check_id, func)) for check_id, func in verify.CHECKS),
    )
    report = verify.run_all(max_n=3, seed=5)
    assert report["seed"] == 5 and report["max_n"] == 3
    assert report["all_passed"]
    for check_id, kwargs in calls.items():
        if "seed" in verify.FULL_BOUNDS[check_id]:
            assert kwargs["seed"] == 5, check_id
    assert sum("seed" in kwargs for kwargs in calls.values()) == 3


def test_run_all_rejects_max_n_below_two():
    for max_n in (1, 0, -1):
        with pytest.raises(ValidationError, match="max_n >= 2"):
            verify.run_all(max_n=max_n)


@pytest.mark.parametrize(
    "extra, failures",
    [
        (1, ["n=3: product is not the identity"]),
        (Fraction(1, 2), ["n=3: L->N matrix not integer", "n=3: product is not the identity"]),
    ],
)
def test_zbasis_check_catches_a_wrong_inverse_row(monkeypatch, extra, failures):
    # the check converts the L expansion of each N_alpha back to N, so skew
    # the L to N route on the expansion of N_(1,2)
    convert = qsym.convert
    row = qsym.n_basis_element((1, 2)).terms
    assert row == {(1, 2): 1, (1, 1, 1): 1}

    def skewed(element, target):
        out = convert(element, target)
        if element.basis == "L" and target == "N" and element.terms == row:
            return out + QSymElement.single("N", (3,), extra)
        return out

    monkeypatch.setattr(qsym, "convert", skewed)
    result = verify.check_zbasis(max_n=3)
    assert not result.passed
    assert result.details["failures"] == failures


@pytest.mark.parametrize(
    "skewed_row, failures",
    [
        # the stored row of N_(1,2) is L_(1,2) + L_(1,1,1); L_(3) is N_(3),
        # so this row comes back from L to N as N_(1,2) + N_(3)
        ({(1, 2): 1, (1, 1, 1): 1, (3,): 1}, ["n=3: product is not the identity"]),
        # a row that is not integral comes back not integral, which is the
        # row's fault, not the L to N route's
        (
            {(1, 2): 1, (1, 1, 1): 1, (3,): Fraction(1, 2)},
            ["n=3: N->L matrix not integer", "n=3: product is not the identity"],
        ),
        # twice the row comes back as 2 N_(1,2)
        ({(1, 2): 2, (1, 1, 1): 2}, ["n=3: product is not the identity"]),
        # one more L_(1,2), the row of N_(1,1,1), comes back as
        # N_(1,2) + N_(1,1,1)
        ({(1, 2): 2, (1, 1, 1): 1}, ["n=3: product is not the identity"]),
    ],
)
def test_zbasis_check_catches_a_wrong_stored_row(monkeypatch, skewed_row, failures):
    stored = qsym.nbasis_in_fundamental
    assert dict(stored((1, 2))) == {(1, 2): 1, (1, 1, 1): 1}

    def skewed(comp):
        return tuple(skewed_row.items()) if tuple(comp) == (1, 2) else stored(comp)

    monkeypatch.setattr(qsym, "nbasis_in_fundamental", skewed)
    result = verify.check_zbasis(max_n=3)
    assert not result.passed
    assert result.details["failures"] == failures


def test_zbasis_check_catches_an_entry_just_below_the_diagonal(monkeypatch):
    stored = qsym.nl_unitriangular_matrix

    def skewed(n):
        order, rows = stored(n)
        if n == 3:
            rows = rows[:3] + ((0, 0, 1, 1),)
        return order, rows

    monkeypatch.setattr(qsym, "nl_unitriangular_matrix", skewed)
    result = verify.check_zbasis(max_n=3)
    assert not result.passed
    assert result.details["failures"] == ["n=3: entry below the diagonal in row (1, 1, 1)"]


@pytest.mark.parametrize("wrong", [((1,), (2,)), ((2,), (1,))])
def test_structure_constants_check_catches_a_wrong_product_in_either_order(monkeypatch, wrong):
    # the swapped order may inherit the first order's verdict only when the
    # two products are equal, so a term gained by one order alone is caught
    mul_nbasis = qsym.mul_nbasis

    def skewed(left, right):
        out = mul_nbasis(left, right)
        if (left, right) == wrong:
            return out + QSymElement.single("N", (3,))
        return out

    monkeypatch.setattr(qsym, "mul_nbasis", skewed)
    result = verify.check_structure_constants(max_weight=3)
    assert not result.passed
    assert result.details["pairs"] == 5
    assert result.details["failures"] == [f"oracle mismatch at {wrong[0]} * {wrong[1]}"]
