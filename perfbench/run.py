"""Benchmark entry point.

    python3 perfbench/run.py --workload plr-file --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a checkout and prints, as the last line
of stdout, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``).  Progress,
input hashes and failures go to stderr.  Exits non-zero, printing no
result, when the checkout holds no program to benchmark.

``--scale toy`` shrinks every input for the benchmark's own tests, and
``--fault drop|add`` corrupts one answer before it is checked (the
self-test that failures are caught).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import ROOT, MissingProgram, note, require_program

FILE_WORKLOADS = ("plr-file", "gnm-file")
SERVE_WORKLOADS = ("serve-mixed",)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=FILE_WORKLOADS + SERVE_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--fault", choices=("drop", "add"), default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from catalog import units

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    toy = args.scale == "toy"
    try:
        if args.workload in FILE_WORKLOADS:
            from filebench import run_file_workload

            result = run_file_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), toy, args.fault, workdir
            )
        else:
            from servebench import run_serve_workload

            result = run_serve_workload(
                args.seed, args.seconds, bool(args.trace), toy, args.fault, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    inputs = result.pop("inputs")
    declared = units("per_layer" if args.trace else "end_to_end")
    for entry in result["metrics"].values():
        entry["value"] = float(entry["value"])
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if emitted != declared:
        print(f"error: emitted metrics {emitted} differ from BENCHMARK.json {declared}",
              file=sys.stderr)
        return 3
    if not result["correct"]:
        note(f"{result['failed']} of {result['attempted']} answers failed their checks")
    print(f"# inputs sha256: {json.dumps(inputs, sort_keys=True)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
