"""nqsym benchmark: cold-process sessions of one workload, end to end or traced.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every session is a fresh interpreter (session.py) that imports nqsym, runs
one seeded op list closed-loop with a single caller, and checks every
output afterwards.  The memo tables are process-global, so each session
pays to fill them from cold, as a CLI call or a new library session does.
Sessions start one after another until S seconds have passed, at least
three of them.  wall_s is the mean over sessions, setup_s a median over
fresh interpreters, and the latency figures are pooled over all ops.  With
--trace 1 every session runs twice on the same inputs, untraced and then
traced, and the per-layer metrics come from the traced runs; their
difference is the tracing overhead.

Every metric is printed by name with its unit; the last stdout line is one
JSON object with keys correct, attempted, failed and metrics.  --workload
all runs every workload in turn, each for S seconds, and prefixes each
metric in that object with its workload's name.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("qsym-degree", "matroid-rank2", "cli-oneshot", "verify-full")
MIN_SESSIONS = 3
MIN_TRACED_PAIRS = 2
# Set-up probes (import only) started before each session, so that setup_s
# is a median over many fresh interpreters.
PROBES_PER_SESSION = 2
SESSION_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def build(env):
    """Compile the program and the benchmark to bytecode once, so no
    session's set-up time includes compilation."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nqsym", "__init__.py")):
        raise BenchError("src/nqsym not found: run from a checkout of the repository")
    cmd = [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "nqsym"), BENCH]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=SESSION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"bytecode compilation failed:\n{proc.stdout}{proc.stderr}")


def run_session(workload, args, env):
    """Start session.py with `args` after the workload; returns its result
    with setup_s, the time from spawn until the program's import returned."""
    cmd = [sys.executable, os.path.join(BENCH, "session.py"), workload] + [str(a) for a in args]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=SESSION_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"session {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - spawned_at
    return result


def end_to_end(sessions, probes):
    latencies = [ms for s in sessions for ms in s["latencies_ms"]]
    walls = [s["wall_s"] for s in sessions]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions + probes),
        "wall_s": statistics.fmean(walls),
        "ops_per_s": len(latencies) / sum(walls),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
    }


def per_layer(untraced, traced, cli):
    """Medians over traced sessions, plus CLI latencies by subcommand and the
    CLI import time from the untraced sessions, and the tracing overhead."""
    metrics = {}
    for key in traced[0]["layers"]:
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (statistics.median(s["layers"][key] for s in traced), unit)
    by_kind = {}
    for s in untraced:
        for kind, ms in zip(s["kinds"], s["latencies_ms"]):
            by_kind.setdefault(kind, []).append(ms)
    for command in spans.CLI_COMMANDS:
        samples = by_kind.get(command) if cli else None
        metrics[f"cli.{command}.p50_ms"] = (statistics.median(samples) if samples else 0.0, "ms")
    cli_import = statistics.median(s["import_s"] for s in untraced) * 1e3 if cli else 0.0
    metrics["cli.import_ms"] = (cli_import, "ms")
    overhead = statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_sessions(workload, seed, seconds, trace, env):
    """Start sessions, with set-up probes before each, until `seconds` have
    passed; returns the untraced sessions, the traced ones and the probes."""
    if trace:
        for name in os.listdir(OUT):
            if name.startswith(f"trace-{workload}-"):
                os.remove(os.path.join(OUT, name))
    untraced, traced, probes = [], [], []
    started = time.perf_counter()
    session = 0
    while True:
        for _ in range(PROBES_PER_SESSION):
            probes.append(run_session(workload, ["probe"], env))
        untraced.append(run_session(workload, [seed, session, 0, OUT], env))
        if trace:
            traced.append(run_session(workload, [seed, session, 1, OUT], env))
        session += 1
        enough = session >= (MIN_TRACED_PAIRS if trace else MIN_SESSIONS)
        if enough and time.perf_counter() - started >= seconds:
            return untraced, traced, probes


def report(workload, seed, untraced, traced, probes):
    """Print the workload's metrics by name and unit; returns its result."""
    sessions = untraced + traced
    attempted = sum(len(s["latencies_ms"]) for s in sessions)
    failures = [f for s in sessions for f in s["failures"]]
    unexpected = [f for f in failures if not f["known_defect"]]
    known = sum(s["known_defects"] for s in sessions)

    print(f"workload {workload} seed {seed} sessions {len(untraced)}"
          + (f" (+{len(traced)} traced)" if traced else ""))
    for f in unexpected[:10]:
        print(f"FAILED op {f['kind']}: {f['error']}")
    print("session wall_s: " + " ".join(f"{s['wall_s']:.3f}" for s in untraced))
    e2e = end_to_end(untraced, probes)
    p90_samples = sum(len(s["latencies_ms"]) for s in untraced)
    for name, value in e2e.items():
        note = f"  (n={p90_samples})" if name.startswith("op_p") else ""
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"failed_ratio {len(failures) / attempted:.6g} 1  "
          f"({len(failures)} of {attempted}; known-defect requests {known})")

    if traced:
        layers = per_layer(untraced, traced, workload == "cli-oneshot")
        print(f"trace files: {' '.join(sorted(s['trace_file'] for s in traced))}")
        print(f"trace overhead {layers['trace.overhead_s'][0]:.6g} s "
              f"(traced wall_s minus untraced wall_s, median over {len(traced)} pairs)")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        build(env)
        os.makedirs(OUT, exist_ok=True)
        results = {}
        for workload in workloads:
            runs = run_sessions(workload, args.seed, args.seconds, args.trace, env)
            results[workload] = report(workload, args.seed, *runs)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        # Every workload in one object, metrics prefixed by workload name.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
