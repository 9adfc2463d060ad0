#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload serve_cold --seeds 1-10

For every end-to-end metric prints the median of its values and the spread:
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the bound BENCHMARK.json gives it.
The benchmark is steady on a workload when every spread but setup_s's stays
well inside its bound. Runs last BENCHMARK.json's run_seconds unless
--seconds says otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            for metric in json.load(f)["end_to_end"]:
                bounds[metric["name"]] = metric["bound"]

    values = {}
    for seed in seeds(args.seeds):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--trace", "0"]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(row.items())),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    print(f"\n{'metric':36} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in sorted(values.items()):
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:36} {median:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
