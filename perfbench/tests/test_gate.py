#!/usr/bin/env python3
"""The benchmark's own tests: its correctness gate trips.

    python3 perfbench/tests/test_gate.py

For every workload, a short run with an honest reference must pass (exit 0,
"correct": true) and a short run with one deliberately wrong reference
(--corrupt-reference) must fail (exit 1, "correct": false, failed > 0).
Also checks that a directory holding only the benchmark, without the
library sources, exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("serve_hits", "serve_cold", "restart_warm")


def run(workload, *extra):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "2", *extra],
        capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


class GateTest(unittest.TestCase):
    def test_honest_reference_passes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_corrupted_reference_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, "--corrupt-reference")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_without_sources_exits_nonzero_silently(self):
        with tempfile.TemporaryDirectory(dir=os.path.dirname(BENCH)) as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "build"))
            done = subprocess.run(
                [sys.executable, os.path.join(tmp, "perfbench", "run.py"),
                 "--workload", "serve_hits", "--seed", "1", "--seconds", "1"],
                capture_output=True, text=True, timeout=180, env=env, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
