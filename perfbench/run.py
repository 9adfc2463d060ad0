#!/usr/bin/env python3
"""Builds and runs the gapsched repository benchmark.

    python3 perfbench/run.py --workload serve_cold --seed 1 --trace 0

Builds perfbench/ (and with it the library sources of this checkout) in
Release into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
one workload. The benchmark binary prints every metric by name with its
unit and, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Without --seconds a run measures for BENCHMARK.json's run_seconds, the
length its bounds were measured at. Build output goes to standard error.
The exit status is the binary's: 0 when every answer matched its reference,
1 when one did not, 2 on a usage or build error and 3 when the load
generator fell behind its schedule (no result line in either case).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hits", "serve_cold", "restart_warm")
BINARY = "gapsched_perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_seconds():
    """run_seconds of BENCHMARK.json next to perfbench/."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "include", "gapsched")
    ):
        log(f"no gapsched sources under {ROOT}; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return False
    jobs = str(min(3, os.cpu_count() or 1))
    command = ["cmake", "--build", out, "--target", BINARY, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="falsify one reference answer; the run must then fail",
    )
    args = parser.parse_args()

    if args.seconds is None:
        args.seconds = run_seconds()
    out = build_dir()
    if not build(out):
        return 2
    work_dir = os.path.join(out, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(out, BINARY),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2


if __name__ == "__main__":
    sys.exit(main())
