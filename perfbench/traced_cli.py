"""Run one nqsym CLI command with the benchmark's spans installed.

Usage: python3 perfbench/traced_cli.py SPANS_FILE COMMAND [ARGS...]

Writes the command's spans and memo-table counter deltas to SPANS_FILE and
exits with the command's exit code, as `python -m nqsym.cli` would.  The
traced cli-oneshot sessions run this in place of the plain CLI.
"""

import json
import sys

import nqsym.cli

import spans


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return nqsym.cli.main(argv)
    finally:
        tracer.end_op({})
        with open(path, "w") as handle:
            json.dump({"spans": tracer.spans, "counters": tracer.ops[0]["counters"]}, handle)


if __name__ == "__main__":
    sys.exit(main())
