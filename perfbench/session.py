"""One cold session: a fresh interpreter imports nqsym, runs one seeded op
list closed-loop with a single caller, then checks every output.

Usage: python3 perfbench/session.py WORKLOAD SEED SESSION TRACE OUT_DIR
       python3 perfbench/session.py WORKLOAD probe

Prints one JSON object on stdout for run.py, which starts the sessions and
aggregates them.  The program's import comes first, so the time until it
returns is the program's own set-up; input generation and the checks are
outside every timed section.  A probe only imports and reports that time.
"""

import sys
import time

_import_start = time.perf_counter()
if sys.argv[1] == "cli-oneshot":
    import nqsym.cli  # noqa: F401
else:
    import nqsym  # noqa: F401
_import_s = time.perf_counter() - _import_start
# CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time.
_imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

import gen  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))


def run_library(op_list, tracer, op_ids):
    outputs, errors, spans_at = [], [], []
    for op, op_id in zip(op_list, op_ids):
        runner = ops.library_runner(op["kind"])
        if tracer:
            tracer.begin_op(op_id)
        start = perf_counter()
        try:
            out, error = runner(op), None
        except Exception as exc:  # a raising op is a failed op; the session goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        if tracer:
            tracer.end_op({"kind": op["kind"], "degree": op.get("degree"), "start": start, "end": end})
        outputs.append(out)
        errors.append(error)
        spans_at.append((start, end))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outputs, errors, spans_at, rss


def run_cli(op_list, tracer, op_ids, out_dir):
    for op in op_list:
        ops.prepare_cli(op)
    outputs, spans_at = [], []
    child_file = os.path.join(out_dir, f"child-{os.getpid()}.json")
    if tracer:
        command = [sys.executable, os.path.join(BENCH, "traced_cli.py"), child_file]
    else:
        command = [sys.executable, "-m", "nqsym.cli"]
    for op, op_id in zip(op_list, op_ids):
        if tracer:
            tracer.begin_op(op_id)
        start = perf_counter()
        out = ops.run_cli(op, command, os.environ)
        end = perf_counter()
        if tracer:
            with open(child_file) as handle:
                child = json.load(handle)
            os.remove(child_file)
            span_id = tracer.record(f"cli.{op['kind']}", start, end, out["rc"] != 0)
            tracer.adopt(child["spans"], span_id)
            tracer.end_op({"kind": op["kind"], "start": start, "end": end}, child["counters"])
        outputs.append(out)
        spans_at.append((start, end))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return outputs, [None] * len(outputs), spans_at, rss


def main():
    if sys.argv[2] == "probe":
        print(json.dumps({"import_s": _import_s, "imported_at": _imported_at}))
        return
    workload, seed, session = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    traced, out_dir = sys.argv[4] == "1", sys.argv[5]
    op_list = workloads.PLANS[workload](gen.session_rng(workload, seed, session))
    op_ids = [f"s{session}-{index}" for index in range(len(op_list))]
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        if workload != "cli-oneshot":
            tracer.install()
    cli = workload == "cli-oneshot"
    if cli:
        outputs, errors, spans_at, rss_kb = run_cli(op_list, tracer, op_ids, out_dir)
    else:
        outputs, errors, spans_at, rss_kb = run_library(op_list, tracer, op_ids)
    # Checks run after the timed section, so they warm no table an op uses.
    failures = []
    for op, out, error in zip(op_list, outputs, errors):
        if error is None:
            check = ops.check_cli if cli else ops.library_check(op["kind"])
            try:
                if check(op, out):
                    continue
                error = "output check failed"
            except Exception as exc:  # a check that cannot parse the output fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        failures.append({"kind": op["kind"], "error": error, "known_defect": op.get("known_defect", False)})
    result = {
        "import_s": _import_s,
        "imported_at": _imported_at,
        "wall_s": spans_at[-1][1] - spans_at[0][0],
        "latencies_ms": [(end - start) * 1e3 for start, end in spans_at],
        "kinds": [op["kind"] for op in op_list],
        "failures": failures,
        "known_defects": sum(1 for op in op_list if op.get("known_defect")),
        "rss_mb": rss_kb / 1024,
    }
    if tracer:
        import spans

        degrees = {op_id: op.get("degree") for op_id, op in zip(op_ids, op_list)}
        result["layers"] = spans.layer_metrics(tracer, degrees)
        result["trace_file"] = os.path.join(out_dir, f"trace-{workload}-s{session}.jsonl")
        tracer.dump(result["trace_file"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
