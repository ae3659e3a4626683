"""Self-test of the benchmark itself.

Usage: python3 perfbench/selftest.py

Checks that the input generators are deterministic for a seed, that every
output check accepts a true output and rejects a deliberately corrupted
one, and that one traced session emits every per-layer metric listed in
BENCHMARK.json, with each op's spans linked by op id.  Exits 0 when all
hold; takes about half a minute.
"""

import copy
import json
import os
import random
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# The per-layer names the benchmark promises, beyond .calls and .errors.
LAYER_NAMES = [
    "qsym.n_basis_element.self_s",
    "qsym.nbasis_in_fundamental.misses",
    "qsym.nbasis_in_fundamental.currsize",
    "qsym.convert_to_N.self_s",
    "qsym.nl_ascent_run_rows.misses",
    "qsym.convert_from_N.self_s",
    "qsym.mul.self_s",
    "qsym.quasi_shuffle.misses",
    "qsym.refinements_of.misses",
    "qsym.mul_nbasis.self_s",
    "qsym.structure_constants.misses",
    "qsym.divide_by_pure_power.self_s",
    "qsym.degree6.self_s",
    "qsym.degree7.self_s",
    "qsym.degree8.self_s",
    "qsym.degree9.self_s",
    "elements.from_json.self_s",
    "elements.to_json.self_s",
    "matroids.Matroid.self_s",
    "matroids.qsym_of_matroid.self_s",
    "matroids.rank2_qsym.self_s",
    "matroids.recover_rank2.self_s",
    "matroids.split.self_s",
    "matroids.geom_decompose.self_s",
    "matroids.hilbert_basis_check.self_s",
    "cli.import_ms",
    "trace.overhead_s",
]

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)


def test_generators_deterministic():
    for workload, plan in workloads.PLANS.items():
        first = json.dumps(plan(gen.session_rng(workload, 7, 0)), sort_keys=True)
        again = json.dumps(plan(gen.session_rng(workload, 7, 0)), sort_keys=True)
        other = json.dumps(plan(gen.session_rng(workload, 8, 0)), sort_keys=True)
        expect(first == again, f"{workload}: same seed gave different inputs")
        expect(first != other, f"{workload}: different seeds gave the same inputs")


def _bump(element_json):
    """The same element with its first coefficient changed."""
    bad = copy.deepcopy(element_json)
    bad["terms"][0]["num"] += 1
    return bad


def _library_cases():
    """(op, corruption) pairs; a corruption maps a true output to a false one."""
    bump = _bump
    return [
        ({"kind": "expand", "degree": 5, "comp": [2, 1, 2]}, lambda o: {**o, "M": bump(o["M"])}),
        ({"kind": "expand", "degree": 5, "comp": [3, 2]}, lambda o: {**o, "L": bump(o["L"])}),
        ({"kind": "to-N", "degree": 5, "element": gen.sparse_element(random.Random(1), "M", 5, 3)}, bump),
        ({"kind": "from-N", "degree": 5, "element": gen.sparse_element(random.Random(2), "N", 5, 2)}, bump),
        ({"kind": "nprod", "degree": 5, "pair": [[2, 1], [1, 1]]}, bump),
        (
            {
                "kind": "nprod",
                "degree": 5,
                "left": gen.sparse_element(random.Random(3), "N", 2, 2),
                "right": gen.sparse_element(random.Random(4), "N", 3, 2),
            },
            bump,
        ),
        (
            {
                "kind": "mprod",
                "degree": 5,
                "left": gen.sparse_element(random.Random(5), "L", 2, 2),
                "right": gen.sparse_element(random.Random(6), "M", 3, 2),
            },
            bump,
        ),
        ({"kind": "F", "family": "graphic", **gen.graphic_matroid(random.Random(7), 5, 7)}, bump),
        ({"kind": "F", "family": "uniform", **gen.uniform_matroid(3, 6)}, bump),
        ({"kind": "F", "family": "rank2", **gen.rank2_family([3, 2, 1])}, bump),
        ({"kind": "recover", "lambda": [3, 2, 1], "loops": 1}, lambda o: {**o, "loops": 0}),
        ({"kind": "recover", "lambda": [4, 1], "loops": 0}, lambda o: {**o, "coloops": 0}),
        ({"kind": "split", "comp": [2, 3, 1], "s": 1}, lambda o: {**o, "alpha": [o["alpha"][0] + 1] + o["alpha"][1:]}),
        (
            {"kind": "geom", "lambda": [3, 2, 1, 1]},
            lambda o: {**o, "decomposition": {**o["decomposition"], "verified": False}},
        ),
        ({"kind": "hilbert", "n": 7}, lambda o: {**o, "passed": False}),
        (
            {"kind": "worked-examples", "kwargs": {}},
            lambda o: {**o, "passed": False},
        ),
    ]


def test_library_checks():
    for op, corrupt in _library_cases():
        out = ops.library_runner(op["kind"])(op)
        check = ops.library_check(op["kind"])
        expect(check(op, out), f"{op['kind']}: check rejected a true output")
        expect(not check(op, corrupt(out)), f"{op['kind']}: check accepted a corrupted output")


def _bump_first(element_json):
    element_json["terms"][0]["num"] += 1


CLI_CORRUPTIONS = {
    "expand": lambda p: _bump_first(p["M"]),
    "convert": _bump_first,
    "mul": _bump_first,
    "matroid-f": lambda p: _bump_first(p["element"]),
    "recover": lambda p: p.update(loops=p["loops"] + 1),
    "rank2-split": lambda p: p["alpha"].__setitem__(0, p["alpha"][0] + 1),
    "geom-decompose": lambda p: p.update(verified=False),
    "verify": lambda p: p.update(all_passed=False),
}


def test_cli_checks():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    command = [sys.executable, "-m", "nqsym.cli"]
    rng = random.Random(11)
    requests = [workloads._cli_request(rng, kind, 0) for kind in workloads.CLI_MIX]
    for request in requests:
        ops.prepare_cli(request)
        out = ops.run_cli(request, command, env)
        expect(ops.check_cli(request, out), f"cli {request['kind']}: check rejected a true output")
        payload = json.loads(out["stdout"])
        CLI_CORRUPTIONS[request["kind"]](payload)
        bad = {**out, "stdout": json.dumps(payload)}
        expect(not ops.check_cli(request, bad), f"cli {request['kind']}: check accepted a corrupted output")
        expect(not ops.check_cli(request, {**out, "rc": 1}), f"cli {request['kind']}: check accepted exit 1")
    for name in workloads.HANDLED_MALFORMED:
        request = workloads._malformed_request(name, known=False)
        out = ops.run_cli(request, command, env)
        expect(ops.check_cli(request, out), f"cli {name}: documented error not accepted")
        expect(not ops.check_cli(request, {**out, "rc": 0}), f"cli {name}: exit 0 accepted for malformed input")
    for name in workloads.KNOWN_DEFECTS:
        request = workloads._malformed_request(name, known=True)
        out = ops.run_cli(request, command, env)
        # Fails while the defect stands; fixing it makes this request pass.
        print(f"known defect {name}: {'passes' if ops.check_cli(request, out) else 'fails'}")


def test_traced_session():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        promised = [m["name"] for m in json.load(handle)["per_layer"]]
    for name in LAYER_NAMES + [f"{s}.calls" for s in spans.span_names()]:
        expect(name in promised, f"BENCHMARK.json lacks per-layer metric {name}")
    extra = {f"cli.{c}.p50_ms" for c in spans.CLI_COMMANDS} | {"cli.import_ms", "trace.overhead_s"}
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as out_dir:
        cmd = [sys.executable, os.path.join(BENCH, "session.py"), "matroid-rank2", "3", "0", "1", out_dir]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=150,
                              env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        expect(proc.returncode == 0, f"traced session failed: {proc.stderr[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        emitted = set(result["layers"]) | extra
        expect(emitted == set(promised), f"traced names differ from BENCHMARK.json: {emitted ^ set(promised)}")
        with open(result["trace_file"]) as handle:
            records = [json.loads(line) for line in handle]
    op_ids = {r["op"] for r in records if r["type"] == "op"}
    span_list = [r for r in records if r["type"] == "span"]
    by_id = {r["id"]: r for r in span_list}
    expect(span_list, "traced session recorded no spans")
    for span in span_list:
        expect(span["op"] in op_ids, f"span {span['id']} has no op")
        parent = by_id.get(span["parent"]) if span["parent"] is not None else None
        if span["parent"] is not None:
            expect(parent is not None and parent["op"] == span["op"], f"span {span['id']} parent not in its op")
            expect(parent["start"] <= span["start"] <= span["end"] <= parent["end"], f"span {span['id']} not nested")


def main():
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    for test in (test_generators_deterministic, test_library_checks, test_cli_checks, test_traced_session):
        before = len(failures)
        test()
        print(f"{test.__name__}: {'ok' if len(failures) == before else 'FAILED'}")
    for message in failures:
        print(f"  {message}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
