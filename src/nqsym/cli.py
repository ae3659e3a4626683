"""Batch command line interface.

All commands read JSON payloads from stdin where noted and write compact
JSON to stdout; identical input and flags give byte-identical output.
The --pretty flag switches to human-readable term lists with digit-string
composition notation when all parts are single digits.
"""

import argparse
import json
import sys

from .compositions import format_composition, parse_composition_text
from .elements import QSymElement, format_element
from .errors import NQSymError, ResourceLimitError, ValidationError
from .matroids import (
    Matroid,
    geom_decompose,
    loops_coloops_from_qsym,
    qsym_of_matroid,
    recover_rank2,
    split,
)
from .qsym import convert, in_Vnr, n_basis_element
from . import verify as verify_mod
from .compositions import drop_zero_parts


def _emit(payload, pretty_text=None, pretty=False):
    if pretty and pretty_text is not None:
        print(pretty_text)
    else:
        print(json.dumps(payload, sort_keys=True))


def _read_json_stdin():
    raw = sys.stdin.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"stdin is not valid JSON: {exc}") from exc


def cmd_expand(args):
    comp = parse_composition_text(args.comp)
    in_l = n_basis_element(comp)
    in_m = convert(in_l, "M")
    payload = {
        "composition": list(comp),
        "L": in_l.to_json(),
        "M": in_m.to_json(),
    }
    pretty = (
        f"N[{format_composition(comp)}] = {format_element(in_l)}\n"
        f"{' ' * (len(format_composition(comp)) + 3)}= {format_element(in_m)}"
    )
    _emit(payload, pretty, args.pretty)
    return 0


def cmd_convert(args):
    element = QSymElement.from_json(_read_json_stdin())
    result = convert(element, args.basis)
    _emit(result.to_json(), format_element(result), args.pretty)
    return 0


def cmd_mul(args):
    data = _read_json_stdin()
    if isinstance(data, dict) and "factors" in data:
        data = data["factors"]
    if not isinstance(data, list) or len(data) < 2:
        raise ValidationError("mul expects a JSON array of at least two elements")
    factors = [QSymElement.from_json(item) for item in data]
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    result = convert(product, args.basis)
    _emit(result.to_json(), format_element(result), args.pretty)
    return 0


def cmd_matroid_f(args):
    matroid = Matroid.from_json(_read_json_stdin())
    f = qsym_of_matroid(matroid, limit=args.max_n)
    result = convert(f, args.basis)
    r, n = matroid.rank, matroid.n
    loops = len(matroid.loops())
    stats = {
        "n": n,
        "rank": r,
        "loops": loops,
        "coloops": len(matroid.coloops()),
        "num_bases": len(matroid.bases),
        "in_rank_space": in_Vnr(f, n, r + loops),
        "corner_coefficient": int(f.terms.get(drop_zero_parts((r, n - r)), 0))
        if loops == 0
        else None,
        "loops_plus_coloops": loops_coloops_from_qsym(f),
    }
    payload = {"element": result.to_json(), "stats": stats}
    pretty = f"F = {format_element(result)}\nstats: {json.dumps(stats, sort_keys=True)}"
    _emit(payload, pretty, args.pretty)
    return 0


def cmd_recover(args):
    element = QSymElement.from_json(_read_json_stdin())
    recovery = recover_rank2(element)
    payload = recovery.to_json()
    pretty = (
        f"n={recovery.n} loops={recovery.loops} coloops={recovery.coloops} "
        f"lambda={format_composition(recovery.lam)} case={recovery.case}"
    )
    _emit(payload, pretty, args.pretty)
    return 0


def cmd_rank2_split(args):
    lam = parse_composition_text(args.lam)
    result = split(lam, args.s)
    pretty = (
        f"alpha={format_composition(result.alpha)} "
        f"beta={format_composition(result.beta)} "
        f"mu={format_composition(result.mu)} S={sorted(result.certificate.subset)}"
    )
    _emit(result.to_json(), pretty, args.pretty)
    return 0


def cmd_geom_decompose(args):
    data = _read_json_stdin()
    if not isinstance(data, dict) or "lambda" not in data or "J" not in data:
        raise ValidationError("geom-decompose expects {'lambda': [...], 'J': [[...], ...]}")
    lam = tuple(int(x) for x in data["lambda"])
    members = [tuple(int(x) for x in m) for m in data["J"]]
    decomposition = geom_decompose(lam, members)
    payload = decomposition.to_json()
    lines = [f"root lambda={format_composition(lam)} verified={decomposition.verified}"]
    for rep in decomposition.representatives:
        blocks = " ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in rep.blocks)
        lines.append(f"  part lambda={format_composition(rep.lam)} blocks {blocks}")
    _emit(payload, "\n".join(lines), args.pretty)
    return 0


def cmd_verify(args):
    report = verify_mod.run_all(max_n=args.max_n, seed=args.seed)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
    if args.pretty:
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status} {check['id']} ({check['elapsed_seconds']}s): {check['description']}")
        print("all passed" if report["all_passed"] else "FAILURES PRESENT")
    else:
        print(json.dumps(report, sort_keys=True))
    return 0 if report["all_passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nqsym",
        description="quasisymmetric N-basis and rank-two matroid invariant toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an N basis element in the L and M bases")
    p.add_argument("--comp", required=True, help="composition, e.g. 1,2,2 or 122")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("convert", help="convert an element (JSON on stdin) to a basis")
    p.add_argument("--to", dest="basis", required=True, choices=["M", "L", "N"])
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("mul", help="multiply elements (JSON array on stdin)")
    p.add_argument("--basis", default="M", choices=["M", "L", "N"])
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("matroid-f", help="invariant of a matroid (JSON on stdin)")
    p.add_argument("--basis", default="N", choices=["M", "L", "N"])
    p.add_argument("--max-n", dest="max_n", type=int, default=12)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_matroid_f)

    p = sub.add_parser("recover", help="recover a rank-two class from its invariant")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("rank2-split", help="split a rank-two class at a position")
    p.add_argument("--lambda", dest="lam", required=True, help="composition of block sizes")
    p.add_argument("--s", type=int, required=True, help="split position, 1 <= s < parts")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_rank2_split)

    p = sub.add_parser(
        "geom-decompose", help="realize a class equation as a polytope decomposition"
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_geom_decompose)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--max-n", dest="max_n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="also write the JSON report to this path")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(json.dumps({"error": {"kind": "resource-limit", "message": str(exc)}}))
        return 2
    except (NQSymError, ValueError) as exc:
        kind = type(exc).__name__
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
