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
    convert = qsym.convert

    def skewed(element, target):
        out = convert(element, target)
        if element.basis == "L" and target == "N" and element.terms == {(1, 2): 1}:
            return out + QSymElement.single("N", (3,), extra)
        return out

    monkeypatch.setattr(qsym, "convert", skewed)
    result = verify.check_zbasis(max_n=3)
    assert not result.passed
    assert result.details["failures"] == failures
