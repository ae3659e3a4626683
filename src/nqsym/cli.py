"""Batch command line interface.

All commands read JSON payloads from stdin where noted and write compact
JSON to stdout; identical input and flags give byte-identical output.
The --pretty flag switches to human-readable term lists with digit-string
composition notation when all parts are single digits.

Only the modules every subcommand needs are imported here; `matroids` and
`verify` are imported by the subcommands that use them.
"""

import argparse
import json
import sys

from .compositions import (
    composition_from_json,
    drop_zero_parts,
    format_composition,
    parse_composition_text,
)
from .elements import QSymElement, format_element
from .errors import NQSymError, ResourceLimitError, ValidationError
from .qsym import convert, in_Vnr, n_basis_element


def _emit(args, payload, pretty_text):
    """Print payload as compact JSON, or under --pretty the text built by
    the zero-argument callable pretty_text."""
    if args.pretty:
        print(pretty_text())
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
    in_m = convert(QSymElement.single("N", comp), "M")
    payload = {
        "composition": list(comp),
        "L": in_l.to_json(),
        "M": in_m.to_json(),
    }

    def pretty():
        label = format_composition(comp)
        return (
            f"N[{label}] = {format_element(in_l)}\n"
            f"{' ' * (len(label) + 3)}= {format_element(in_m)}"
        )

    _emit(args, payload, pretty)
    return 0


def cmd_convert(args):
    element = QSymElement.from_json(_read_json_stdin())
    result = convert(element, args.basis)
    _emit(args, result.to_json(), lambda: format_element(result))
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
    _emit(args, result.to_json(), lambda: format_element(result))
    return 0


def cmd_matroid_f(args):
    from .matroids import Matroid, loops_coloops_from_qsym, qsym_of_matroid

    if args.max_n < 0:
        raise ValidationError(f"matroid-f needs --max-n >= 0, got {args.max_n}")
    matroid = Matroid.from_json(_read_json_stdin())
    if matroid.n > args.max_n:
        raise ResourceLimitError(
            f"matroid on {matroid.n} elements exceeds enumeration limit {args.max_n}"
        )
    f = qsym_of_matroid(matroid)
    result = convert(f, args.basis)
    r, n = matroid.rank, matroid.n
    loops = len(matroid.loops())
    stats = {
        "n": n,
        "rank": r,
        "loops": loops,
        "coloops": len(matroid.coloops()),
        "num_bases": matroid.num_bases,
        "in_rank_space": in_Vnr(f, n, r + loops),
        "corner_coefficient": int(f.terms.get(drop_zero_parts((r, n - r)), 0))
        if loops == 0
        else None,
        "loops_plus_coloops": loops_coloops_from_qsym(f),
    }
    payload = {"element": result.to_json(), "stats": stats}
    _emit(
        args,
        payload,
        lambda: f"F = {format_element(result)}\nstats: {json.dumps(stats, sort_keys=True)}",
    )
    return 0


def cmd_recover(args):
    from .matroids import recover_rank2

    element = QSymElement.from_json(_read_json_stdin())
    recovery = recover_rank2(element)
    _emit(
        args,
        recovery.to_json(),
        lambda: (
            f"n={recovery.n} loops={recovery.loops} coloops={recovery.coloops} "
            f"lambda={format_composition(recovery.lam)} case={recovery.case}"
        ),
    )
    return 0


def cmd_rank2_split(args):
    from .matroids import split

    lam = parse_composition_text(args.lam)
    result = split(lam, args.s)
    _emit(
        args,
        result.to_json(),
        lambda: (
            f"alpha={format_composition(result.alpha)} "
            f"beta={format_composition(result.beta)} "
            f"mu={format_composition(result.mu)} S={sorted(result.certificate.subset)}"
        ),
    )
    return 0


def cmd_geom_decompose(args):
    from .matroids import geom_decompose

    data = _read_json_stdin()
    if not isinstance(data, dict) or "lambda" not in data or "J" not in data:
        raise ValidationError("geom-decompose expects {'lambda': [...], 'J': [[...], ...]}")
    lam = composition_from_json(data["lambda"])
    if not isinstance(data["J"], list):
        raise ValidationError("geom-decompose 'J' must be an array of compositions")
    members = [composition_from_json(m) for m in data["J"]]
    decomposition = geom_decompose(lam, members)

    def pretty():
        lines = [f"root lambda={format_composition(lam)} verified={decomposition.verified}"]
        for rep in decomposition.representatives:
            blocks = " ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in rep.blocks)
            lines.append(f"  part lambda={format_composition(rep.lam)} blocks {blocks}")
        return "\n".join(lines)

    _emit(args, decomposition.to_json(), pretty)
    return 0


def cmd_verify(args):
    from .verify import run_all

    report = run_all(max_n=args.max_n, seed=args.seed)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
    # wall clock goes only to the report file, so stdout stays byte-stable
    for check in report["checks"]:
        del check["elapsed_seconds"]
    lines = [
        f"{'PASS' if check['passed'] else 'FAIL'} {check['id']}: {check['description']}"
        for check in report["checks"]
    ]
    lines.append("all passed" if report["all_passed"] else "FAILURES PRESENT")
    _emit(args, report, lambda: "\n".join(lines))
    return 0 if report["all_passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nqsym",
        description="quasisymmetric N-basis and rank-two matroid invariant toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pretty", action="store_true")

    def command(name, func, summary):
        """Add a subcommand that runs func and, like every one, takes --pretty."""
        p = sub.add_parser(name, help=summary, parents=[shared])
        p.set_defaults(func=func)
        return p

    p = command("expand", cmd_expand, "expand an N basis element in the L and M bases")
    p.add_argument("--comp", required=True, help="composition, e.g. 1,2,2 or 122")

    p = command("convert", cmd_convert, "convert an element (JSON on stdin) to a basis")
    p.add_argument("--to", dest="basis", required=True, choices=["M", "L", "N"])

    p = command("mul", cmd_mul, "multiply elements (JSON array on stdin)")
    p.add_argument("--basis", default="M", choices=["M", "L", "N"])

    p = command("matroid-f", cmd_matroid_f, "invariant of a matroid (JSON on stdin)")
    p.add_argument("--basis", default="N", choices=["M", "L", "N"])
    p.add_argument("--max-n", dest="max_n", type=int, default=12)

    command("recover", cmd_recover, "recover a rank-two class from its invariant")

    p = command("rank2-split", cmd_rank2_split, "split a rank-two class at a position")
    p.add_argument("--lambda", dest="lam", required=True, help="composition of block sizes")
    p.add_argument("--s", type=int, required=True, help="split position, 1 <= s < parts")

    command(
        "geom-decompose",
        cmd_geom_decompose,
        "realize a class equation as a polytope decomposition",
    )

    p = command("verify", cmd_verify, "run the verification suite")
    p.add_argument("--max-n", dest="max_n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="also write the JSON report to this path")

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
