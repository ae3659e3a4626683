import inspect

from nqsym import verify


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
