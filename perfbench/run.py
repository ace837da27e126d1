#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Each run configures and builds perfbench/
(which compiles ../src) into .bench_build/; after the first build only
what changed is rebuilt. The program's output is relayed; the last stdout
line is one JSON object with `correct`, `attempted`, `failed` and the
metrics BENCHMARK.json declares (end_to_end with --trace 0, per_layer
with --trace 1), each with its unit. A traced run also writes a Chrome
trace to .bench_build/traces/.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configure and build incrementally; raise on failure."""
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", "4", "--target", "perfbench"],
        check=True, stdout=sys.stderr)


def declared_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([str(BINARY), "--selftest"],
                              timeout=RUN_TIMEOUT_S).returncode

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--chrome-trace",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload timed out", file=sys.stderr)
        return 1

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        print(f"run.py: no result (exit {proc.returncode})", file=sys.stderr)
        return 1

    declared = declared_metrics(args.trace == 1)
    names = {m["name"] for m in declared}
    if names != set(result["metrics"]):
        print("run.py: measured metrics differ from BENCHMARK.json: "
              f"{sorted(names ^ set(result['metrics']))}", file=sys.stderr)
        return 1
    metrics = {}
    for m in declared:
        value = result["metrics"][m["name"]]
        if not math.isfinite(value):
            print(f"run.py: {m['name']} is not finite", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
