import io
import itertools
import json
import os
import subprocess
import sys

from nqsym import cli, verify
from nqsym.cli import main
from nqsym.matroids import rank2_qsym


def run_cli(args, stdin_text="", capsys=None):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(args)
    finally:
        sys.stdin = old
    out = capsys.readouterr().out
    return code, out


def test_expand(capsys):
    code, out = run_cli(["expand", "--comp", "1,2,2"], capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["composition"] == [1, 2, 2]
    comps = [tuple(t["comp"]) for t in data["L"]["terms"]]
    assert set(comps) == {(1, 4), (1, 3, 1), (1, 1, 3), (1, 1, 2, 1)}
    # digit-string input form
    code2, out2 = run_cli(["expand", "--comp", "122"], capsys=capsys)
    assert out2 == out


def test_expand_deterministic_bytes(capsys):
    _, first = run_cli(["expand", "--comp", "2,1,3"], capsys=capsys)
    _, second = run_cli(["expand", "--comp", "2,1,3"], capsys=capsys)
    assert first == second


# stdout of two commands, frozen byte for byte: the tables behind them
# return terms in no particular order, so these pin the canonical term order
# (weight, then binary word) that the JSON output applies
EXPAND_213 = (
    '{"L": {"basis": "L", "terms": [{"comp": [2, 2, 2], "den": 1, "num": 2}, '
    '{"comp": [2, 2, 1, 1], "den": 1, "num": 1}, '
    '{"comp": [2, 3, 1], "den": 1, "num": 2}, '
    '{"comp": [2, 4], "den": 1, "num": 1}, '
    '{"comp": [1, 1, 4], "den": 1, "num": 1}, '
    '{"comp": [1, 1, 3, 1], "den": 1, "num": 2}, '
    '{"comp": [1, 1, 2, 1, 1], "den": 1, "num": 1}, '
    '{"comp": [1, 1, 2, 2], "den": 1, "num": 2}]}, "M": {"basis": "M", '
    '"terms": [{"comp": [2, 1, 3], "den": 1, "num": 1}, '
    '{"comp": [2, 1, 2, 1], "den": 1, "num": 3}, '
    '{"comp": [2, 1, 1, 1, 1], "den": 1, "num": 6}, '
    '{"comp": [2, 1, 1, 2], "den": 1, "num": 3}, '
    '{"comp": [2, 2, 2], "den": 1, "num": 3}, '
    '{"comp": [2, 2, 1, 1], "den": 1, "num": 6}, '
    '{"comp": [2, 3, 1], "den": 1, "num": 3}, '
    '{"comp": [2, 4], "den": 1, "num": 1}, '
    '{"comp": [1, 1, 4], "den": 1, "num": 2}, '
    '{"comp": [1, 1, 3, 1], "den": 1, "num": 6}, '
    '{"comp": [1, 1, 2, 1, 1], "den": 1, "num": 12}, '
    '{"comp": [1, 1, 2, 2], "den": 1, "num": 6}, '
    '{"comp": [1, 1, 1, 1, 2], "den": 1, "num": 6}, '
    '{"comp": [1, 1, 1, 1, 1, 1], "den": 1, "num": 12}, '
    '{"comp": [1, 1, 1, 2, 1], "den": 1, "num": 6}, '
    '{"comp": [1, 1, 1, 3], "den": 1, "num": 2}]}, "composition": [2, 1, 3]}\n'
)
M3_TO_N = (
    '{"basis": "N", "terms": [{"comp": [3], "den": 2, "num": 1}, '
    '{"comp": [2, 1], "den": 2, "num": -3}, '
    '{"comp": [1, 1, 1], "den": 3, "num": -13}, '
    '{"comp": [1, 2], "den": 6, "num": 13}, '
    '{"comp": [2, 1, 1], "den": 7, "num": -5}, '
    '{"comp": [2, 2], "den": 7, "num": 5}, '
    '{"comp": [1, 1, 2], "den": 7, "num": -10}, '
    '{"comp": [1, 1, 1, 1], "den": 7, "num": 30}, '
    '{"comp": [1, 2, 1], "den": 7, "num": 20}, '
    '{"comp": [1, 3], "den": 7, "num": -10}]}\n'
)
M3 = (
    '{"basis": "M", "terms": [{"comp": [3], "num": 1, "den": 2}, '
    '{"comp": [1, 2], "num": -2, "den": 3}, {"comp": [2, 1, 1], "num": 5, "den": 7}]}'
)


def test_golden_stdout_bytes(capsys):
    assert run_cli(["expand", "--comp", "2,1,3"], capsys=capsys) == (0, EXPAND_213)
    assert run_cli(["convert", "--to", "N"], M3, capsys) == (0, M3_TO_N)


# stdout of the rank-two and matroid commands, frozen byte for byte: the
# invariant of the class (3, 2, 1, 1) plus a loop, one split, one
# decomposition into length-three classes, F of the graphic matroid of K4
# (the 3-subsets of its six edges that are not triangles) and F of a matroid
# with a loop, a coloop and one basis listed twice
RECOVER_3211_LOOP = (
    '{"basis": "N", "terms": ['
    '{"comp": [3, 5], "num": 17, "den": 1}, '
    '{"comp": [2, 1, 1, 4], "num": 119, "den": 1}, '
    '{"comp": [2, 2, 1, 3], "num": 182, "den": 1}, '
    '{"comp": [2, 3, 1, 2], "num": 170, "den": 1}, '
    '{"comp": [2, 4, 1, 1], "num": 85, "den": 1}, '
    '{"comp": [2, 5, 1], "num": 17, "den": 1}, '
    '{"comp": [1, 1, 2, 4], "num": 34, "den": 1}, '
    '{"comp": [1, 1, 1, 1, 1, 3], "num": 160, "den": 1}, '
    '{"comp": [1, 1, 1, 2, 1, 2], "num": 204, "den": 1}, '
    '{"comp": [1, 1, 1, 3, 1, 1], "num": 136, "den": 1}, '
    '{"comp": [1, 1, 1, 4, 1], "num": 34, "den": 1}, '
    '{"comp": [1, 2, 2, 3], "num": 12, "den": 1}, '
    '{"comp": [1, 2, 1, 1, 1, 2], "num": 36, "den": 1}, '
    '{"comp": [1, 2, 1, 2, 1, 1], "num": 36, "den": 1}, '
    '{"comp": [1, 2, 1, 3, 1], "num": 12, "den": 1}]}'
)
K4_TRIANGLES = ({1, 2, 4}, {1, 3, 5}, {2, 3, 6}, {4, 5, 6})
K4 = json.dumps(
    {
        "n": 6,
        "bases": [
            list(b) for b in itertools.combinations(range(1, 7), 3) if set(b) not in K4_TRIANGLES
        ],
    }
)
MATROID_GOLDENS = [
    (
        ["recover"],
        RECOVER_3211_LOOP,
        '{"case": "no-coloops", "coloops": 0, "lambda": [3, 2, 1, 1], "loops": 1, "n": 8}\n',
    ),
    (
        ["rank2-split", "--lambda", "3,1,2,2", "--s", "2"],
        "",
        '{"alpha": [4, 2, 2], "beta": [3, 1, 4], "certificate": {"S": [1, 2, 3, 4], "children": '
        '[{"blocks": [[1, 2, 3, 4], [5, 6], [7, 8]], "lambda": [4, 2, 2]}, '
        '{"blocks": [[5, 6, 7, 8], [1, 2, 3], [4]], "lambda": [4, 3, 1]}], '
        '"parent": {"blocks": [[1, 2, 3], [5, 6], [7, 8], [4]], "lambda": [3, 2, 2, 1]}}, '
        '"mu": [4, 4]}\n',
    ),
    (
        ["geom-decompose"],
        '{"lambda": [3, 2, 2, 1, 1], "J": [[4, 3, 2], [5, 2, 2], [7, 1, 1]]}',
        '{"representatives": '
        '[{"blocks": [[6, 7, 8, 9], [1, 2, 3], [4, 5]], "lambda": [4, 3, 2]}, '
        '{"blocks": [[1, 2, 3, 4, 5], [6, 7], [8, 9]], "lambda": [5, 2, 2]}, '
        '{"blocks": [[1, 2, 3, 4, 5, 6, 7], [8], [9]], "lambda": [7, 1, 1]}], '
        '"root": {"blocks": [[1, 2, 3], [4, 5], [6, 7], [8], [9]], "lambda": [3, 2, 2, 1, 1]}, '
        '"splits": [{"S": [8, 9], "children": '
        '[{"blocks": [[1, 2, 3], [4, 5], [6, 7], [8, 9]], "lambda": [3, 2, 2, 2]}, '
        '{"blocks": [[1, 2, 3, 4, 5, 6, 7], [8], [9]], "lambda": [7, 1, 1]}], '
        '"parent": '
        '{"blocks": [[1, 2, 3], [4, 5], [6, 7], [8], [9]], "lambda": [3, 2, 2, 1, 1]}}, '
        '{"S": [1, 2, 3, 4, 5], "children": '
        '[{"blocks": [[1, 2, 3, 4, 5], [6, 7], [8, 9]], "lambda": [5, 2, 2]}, '
        '{"blocks": [[6, 7, 8, 9], [1, 2, 3], [4, 5]], "lambda": [4, 3, 2]}], '
        '"parent": {"blocks": [[1, 2, 3], [4, 5], [6, 7], [8, 9]], "lambda": [3, 2, 2, 2]}}], '
        '"verified": true}\n',
    ),
    (
        ["matroid-f"],
        K4,
        '{"element": {"basis": "N", "terms": [{"comp": [3, 3], "den": 1, "num": 16}, '
        '{"comp": [2, 1, 1, 2], "den": 1, "num": 36}]}, "stats": {"coloops": 0, '
        '"corner_coefficient": 16, "in_rank_space": true, "loops": 0, "loops_plus_coloops": 0, '
        '"n": 6, "num_bases": 16, "rank": 3}}\n',
    ),
    (
        ["matroid-f"],
        '{"n": 4, "bases": [[1, 2], [2, 1], [1, 3]]}',
        '{"element": {"basis": "N", "terms": [{"comp": [3, 1], "den": 1, "num": 2}, '
        '{"comp": [2, 1, 1], "den": 1, "num": 4}, {"comp": [1, 1, 2], "den": 1, "num": 2}]}, '
        '"stats": {"coloops": 1, "corner_coefficient": null, "in_rank_space": true, "loops": 1, '
        '"loops_plus_coloops": 2, "n": 4, "num_bases": 2, "rank": 2}}\n',
    ),
]


def test_golden_stdout_bytes_of_the_matroid_commands(capsys):
    for argv, stdin_text, expected in MATROID_GOLDENS:
        assert run_cli(argv, stdin_text, capsys) == (0, expected), argv


def test_expand_pretty(capsys):
    code, out = run_cli(["expand", "--comp", "1,2,2", "--pretty"], capsys=capsys)
    assert code == 0
    assert "N[122]" in out and "L[14]" in out


def test_expand_monomial_payload_matches_route_through_fundamental(capsys):
    from nqsym.elements import QSymElement
    from nqsym.qsym import convert

    for comp in [(6,), (1, 2, 3), (3, 1, 1, 2), (2, 2, 2, 2), (1, 3, 1, 2, 2), (9,)]:
        code, out = run_cli(["expand", "--comp", ",".join(map(str, comp))], capsys=capsys)
        assert code == 0
        in_l = convert(QSymElement.single("N", comp), "L")
        assert json.loads(out)["M"] == convert(in_l, "M").to_json(), comp


def test_convert_and_mul(capsys):
    element = {"basis": "N", "terms": [{"comp": [2], "num": 1, "den": 1}]}
    code, out = run_cli(["convert", "--to", "M"], json.dumps(element), capsys)
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "M"
    assert {tuple(t["comp"]): t["num"] for t in data["terms"]} == {(2,): 1, (1, 1): 2}

    factors = [
        {"basis": "M", "terms": [{"comp": [1], "num": 1, "den": 1}]},
        {"basis": "M", "terms": [{"comp": [1, 1], "num": 1, "den": 1}]},
    ]
    code, out = run_cli(["mul"], json.dumps(factors), capsys)
    assert code == 0
    data = json.loads(out)
    assert {tuple(t["comp"]): t["num"] for t in data["terms"]} == {
        (1, 1, 1): 3,
        (2, 1): 1,
        (1, 2): 1,
    }
    # N-basis product of N-basis factors stays exact
    nfactors = [
        {"basis": "N", "terms": [{"comp": [1], "num": 1, "den": 1}]},
        {"basis": "N", "terms": [{"comp": [1, 1], "num": 1, "den": 1}]},
    ]
    code, out = run_cli(["mul", "--basis", "N"], json.dumps(nfactors), capsys)
    data = json.loads(out)
    assert {tuple(t["comp"]): t["num"] for t in data["terms"]} == {
        (2, 1): 1,
        (1, 1, 1): 1,
    }


def test_matroid_f(capsys):
    matroid = {"n": 4, "bases": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}
    code, out = run_cli(["matroid-f"], json.dumps(matroid), capsys)
    assert code == 0
    data = json.loads(out)
    assert data["element"]["terms"] == [{"comp": [2, 2], "den": 1, "num": 6}]
    assert data["stats"]["num_bases"] == 6
    assert data["stats"]["in_rank_space"] is True
    assert data["stats"]["corner_coefficient"] == 6


def test_recover_round_trip(capsys):
    from nqsym.matroids import rank2_qsym
    from nqsym.qsym import convert

    element = rank2_qsym((3, 2, 1)).to_json()
    code, out = run_cli(["recover"], json.dumps(element), capsys)
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == [3, 2, 1]
    assert data["loops"] == 0
    # the invariant may arrive in any basis
    in_l = convert(rank2_qsym((3, 2, 1)), "L").to_json()
    code, out = run_cli(["recover"], json.dumps(in_l), capsys)
    assert code == 0
    assert json.loads(out)["lambda"] == [3, 2, 1]


def test_rank2_split(capsys):
    code, out = run_cli(["rank2-split", "--lambda", "2,2,1", "--s", "1"], capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == [2, 2, 1]
    assert data["beta"] == [2, 3]
    assert data["mu"] == [2, 3]
    assert data["certificate"]["S"] == [1, 2]


def test_geom_decompose(capsys):
    payload = {"lambda": [2, 1, 1, 1], "J": [[2, 2, 1], [3, 1, 1]]}
    code, out = run_cli(["geom-decompose"], json.dumps(payload), capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert len(data["representatives"]) == 2
    assert all("blocks" in rep for rep in data["representatives"])


def test_error_exit_codes(capsys):
    code, out = run_cli(["convert", "--to", "M"], "not json", capsys)
    assert code == 1
    data = json.loads(out)
    assert data["error"]["kind"] == "ValidationError"

    big = {"n": 14, "bases": [list(range(1, 15))]}
    code, out = run_cli(["matroid-f"], json.dumps(big), capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "resource-limit"

    bad_matroid = {"n": 4, "bases": [[1, 2], [3, 4]]}
    code, out = run_cli(["matroid-f"], json.dumps(bad_matroid), capsys)
    assert code == 1


def test_matroid_f_rejects_a_negative_max_n(capsys):
    # a negative bound would refuse every matroid, so it is an input error
    big = json.dumps({"n": 14, "bases": [list(range(1, 15))]})
    code, out = run_cli(["matroid-f", "--max-n", "-1"], big, capsys)
    assert code == 1
    assert out == (
        '{"error": {"kind": "ValidationError", '
        '"message": "matroid-f needs --max-n >= 0, got -1"}}\n'
    )
    code, out = run_cli(["matroid-f", "--max-n", "0"], '{"n": 0, "bases": [[]]}', capsys)
    assert code == 0
    assert json.loads(out)["element"] == {"basis": "N", "terms": [{"comp": [], "num": 1, "den": 1}]}


def test_matroid_f_bounds_the_ground_set_after_validating(capsys):
    # the one matroid size check: --max-n, applied once the input is valid
    big = json.dumps({"n": 14, "bases": [list(range(1, 15))]})
    code, out = run_cli(["matroid-f"], big, capsys)
    assert code == 2
    assert out == (
        '{"error": {"kind": "resource-limit", '
        '"message": "matroid on 14 elements exceeds enumeration limit 12"}}\n'
    )
    code, out = run_cli(["matroid-f", "--max-n", "14"], big, capsys)
    assert code == 0
    element = json.loads(out)["element"]
    assert element == {"basis": "N", "terms": [{"comp": [14], "num": 1, "den": 1}]}
    no_exchange = json.dumps({"n": 14, "bases": [[1, 2], [3, 4]]})
    code, out = run_cli(["matroid-f"], no_exchange, capsys)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "ValidationError",
        "message": "base family violates the exchange axiom",
    }


def test_verify_small(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out = run_cli(
        ["verify", "--max-n", "4", "--seed", "1", "--report", str(report_path)],
        capsys=capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert len(data["checks"]) == 10
    saved = json.loads(report_path.read_text())
    assert saved["all_passed"] is True


def test_verify_pretty_lines(capsys):
    code, out = run_cli(["verify", "--max-n", "3", "--pretty"], capsys=capsys)
    assert code == 0
    # no wall clock: one golden line per check, in CHECKS order
    assert out.splitlines() == [
        "PASS worked-examples: fixed worked values are reproduced byte-exactly",
        "PASS zbasis-unitriangular: N to L transition is integer unitriangular with integer inverse",
        "PASS structure-constants: N-basis products agree with the quasi-shuffle oracle and grade"
        " by rank",
        "PASS matroid-membership: loopless invariants: rank space, positivity, corner counts bases",
        "PASS uniform-formula: uniform matroid invariants equal binomial(n,r) N[(r,n-r)]",
        "PASS rank2-formula: rank-two invariants equal their U-vector sums",
        "PASS rank2-recovery: invariants determine the rank-two class, also modulo products",
        "PASS splits-and-decompositions: split identities hold and class equations lift to polytope"
        " splits",
        "PASS hilbert-basis: three-part classes form the minimal generating set",
        "PASS invariance-duality-coproduct: loop equivalence, count formula, duality transforms,"
        " coproduct term",
        "all passed",
    ]


def test_verify_stdout_is_byte_stable_and_report_keeps_timings(capsys, tmp_path):
    argv = ["verify", "--max-n", "4", "--seed", "1"]
    first = run_cli(argv, capsys=capsys)
    second = run_cli(argv, capsys=capsys)
    assert first == second
    assert first[0] == 0
    assert all("elapsed_seconds" not in check for check in json.loads(first[1])["checks"])
    report_path = tmp_path / "report.json"
    code, out = run_cli(argv + ["--report", str(report_path)], capsys=capsys)
    assert (code, out) == first
    checks = json.loads(report_path.read_text())["checks"]
    assert [check["id"] for check in checks] == [check_id for check_id, _ in verify.CHECKS]
    assert all(type(check["elapsed_seconds"]) is float for check in checks)
    assert [{k: v for k, v in check.items() if k != "elapsed_seconds"} for check in checks] == (
        json.loads(out)["checks"]
    )


def assert_validation_error(code, out):
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == ["error"]
    assert payload["error"]["kind"] == "ValidationError"
    assert isinstance(payload["error"]["message"], str)


def one_term(term):
    return json.dumps({"basis": "M", "terms": [term]})


def test_convert_rejects_term_without_comp(capsys):
    assert_validation_error(*run_cli(["convert", "--to", "N"], one_term({"num": 1, "den": 1}), capsys))


def test_convert_rejects_terms_not_a_list(capsys):
    payload = json.dumps({"basis": "M", "terms": "abc"})
    assert_validation_error(*run_cli(["convert", "--to", "L"], payload, capsys))


def test_convert_rejects_float_numerator(capsys):
    term = {"comp": [2, 1], "num": 1.5, "den": 1}
    assert_validation_error(*run_cli(["convert", "--to", "N"], one_term(term), capsys))


def test_convert_rejects_float_composition_part(capsys):
    term = {"comp": [2.7], "num": 1, "den": 1}
    assert_validation_error(*run_cli(["convert", "--to", "N"], one_term(term), capsys))


def test_mul_rejects_bool_numerator(capsys):
    factor = {"basis": "M", "terms": [{"comp": [1], "num": True, "den": 1}]}
    assert_validation_error(*run_cli(["mul"], json.dumps([factor, factor]), capsys))


def matroid_f(payload, capsys):
    return run_cli(["matroid-f"], json.dumps(payload), capsys)


def geom_decompose(payload, capsys):
    return run_cli(["geom-decompose"], json.dumps(payload), capsys)


def test_matroid_f_rejects_float_ground_set_size(capsys):
    assert_validation_error(*matroid_f({"n": 4.5, "bases": [[1, 2]]}, capsys))


def test_matroid_f_rejects_float_basis_element(capsys):
    assert_validation_error(*matroid_f({"n": 2, "bases": [[1.9, 2]]}, capsys))


def test_matroid_f_rejects_bool_basis_element(capsys):
    assert_validation_error(*matroid_f({"n": 2, "bases": [[True, 2]]}, capsys))


def test_matroid_f_rejects_string_ground_set_size(capsys):
    assert_validation_error(*matroid_f({"n": "3", "bases": [[1, 2]]}, capsys))


def test_matroid_f_rejects_repeated_basis_element(capsys):
    # the repeat used to collapse, so [1, 2, 2] was read as the basis {1, 2}
    code, out = matroid_f({"n": 3, "bases": [[1, 2, 2], [1, 3]]}, capsys)
    assert_validation_error(code, out)
    assert "repeats an element" in json.loads(out)["error"]["message"]


def test_matroid_f_rejects_bases_not_a_list(capsys):
    assert_validation_error(*matroid_f({"n": 3, "bases": 5}, capsys))


def test_matroid_f_rejects_basis_not_a_list(capsys):
    assert_validation_error(*matroid_f({"n": 3, "bases": [5]}, capsys))


def test_geom_decompose_rejects_float_lambda_part(capsys):
    payload = {"lambda": [2.5, 1, 1, 1], "J": [[2, 2, 1], [3, 1, 1]]}
    assert_validation_error(*geom_decompose(payload, capsys))


def test_geom_decompose_rejects_lambda_not_a_list(capsys):
    payload = {"lambda": 5, "J": [[2, 2, 1], [3, 1, 1]]}
    assert_validation_error(*geom_decompose(payload, capsys))


def test_geom_decompose_rejects_J_not_a_list(capsys):
    assert_validation_error(*geom_decompose({"lambda": [2, 1, 1, 1], "J": 5}, capsys))


def test_geom_decompose_rejects_J_member_not_a_list(capsys):
    payload = {"lambda": [2, 1, 1, 1], "J": [5, [3, 1, 1]]}
    assert_validation_error(*geom_decompose(payload, capsys))


def test_geom_decompose_rejects_bool_J_part(capsys):
    payload = {"lambda": [2, 1, 1, 1], "J": [[2, 2, True], [3, 1, 1]]}
    assert_validation_error(*geom_decompose(payload, capsys))


def test_expand_rejects_empty_comma_field(capsys):
    assert_validation_error(*run_cli(["expand", "--comp", "1,,2"], capsys=capsys))


def test_expand_rejects_leading_comma(capsys):
    assert_validation_error(*run_cli(["expand", "--comp", ",3"], capsys=capsys))


def test_expand_rejects_underscore_in_part(capsys):
    assert_validation_error(*run_cli(["expand", "--comp", "1_0,2"], capsys=capsys))


def test_expand_rejects_non_ascii_digit(capsys):
    assert_validation_error(*run_cli(["expand", "--comp", "²"], capsys=capsys))


def test_rank2_split_rejects_empty_lambda_field(capsys):
    argv = ["rank2-split", "--lambda", "2,,2,1", "--s", "2"]
    assert_validation_error(*run_cli(argv, capsys=capsys))


def test_verify_rejects_max_n_below_two(capsys):
    for max_n in ("1", "0", "-1"):
        code, out = run_cli(["verify", "--max-n", max_n], capsys=capsys)
        assert_validation_error(code, out)
        assert "max_n >= 2" in json.loads(out)["error"]["message"]


def _loaded_after(*modules):
    """The nqsym submodules and dataclasses loaded, in a fresh interpreter,
    after importing the given modules in order."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = "".join(f"import {m}\n" for m in modules) + (
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'dataclasses' or m.startswith('nqsym.'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_graph():
    assert _loaded_after("nqsym") == []
    loaded = _loaded_after("nqsym.cli")
    assert "nqsym.cli" in loaded
    for module in ("nqsym.matroids", "nqsym.posets", "nqsym.verify", "dataclasses"):
        assert module not in loaded
    loaded = _loaded_after("nqsym.matroids", "nqsym.verify")
    assert "nqsym.verify" in loaded and "dataclasses" not in loaded


def test_plain_output_builds_no_pretty_text(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("pretty text built without --pretty")

    monkeypatch.setattr(cli, "format_element", refuse)
    monkeypatch.setattr(cli, "format_composition", refuse)
    element = {"basis": "N", "terms": [{"comp": [2, 1], "num": 1, "den": 1}]}
    matroid = {"n": 4, "bases": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}
    requests = [
        (["expand", "--comp", "1,2,2"], ""),
        (["convert", "--to", "M"], json.dumps(element)),
        (["mul", "--basis", "L"], json.dumps([element, element])),
        (["matroid-f"], json.dumps(matroid)),
        (["recover"], json.dumps(rank2_qsym((3, 2, 1)).to_json())),
        (["rank2-split", "--lambda", "2,2,1", "--s", "1"], ""),
        (["geom-decompose"], json.dumps({"lambda": [2, 1, 1, 1], "J": [[2, 2, 1], [3, 1, 1]]})),
    ]
    for argv, stdin_text in requests:
        code, out = run_cli(argv, stdin_text, capsys)
        assert code == 0, argv
        json.loads(out)
