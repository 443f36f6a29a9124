#!/usr/bin/env python3
"""Build the end-to-end benchmark and run it on one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
bench/e2e (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR/e2e, default
.bench_build/e2e; later calls only rebuild what changed. It then runs
lazyctrl_bench on workloads/NAME.scn, writes the BENCH JSON (and, with
--trace 1, the Chrome trace) to .bench_build/e2e-out, and relays the
driver's output. The last stdout line is the JSON result; its metric
names are checked against BENCHMARK.json first. A failed build or run
exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# A run must finish within 180 s; leave room for the no-op rebuild check.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "lazyctrl_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "e2e")
    out_dir = os.path.join(build_root, "e2e-out")
    try:
        build(build_dir)
        proc = subprocess.run(
            [os.path.join(build_dir, "lazyctrl_bench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        got = set(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, TypeError):
        got = None
    want = expected_metrics(args.trace)
    if got != want:
        sys.stderr.write(proc.stdout)
        print(f"run.py: result metrics do not match BENCHMARK.json "
              f"(missing {sorted(want - (got or set()))}, "
              f"unexpected {sorted((got or set()) - want)})", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
