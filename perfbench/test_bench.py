#!/usr/bin/env python3
"""The benchmark's own tests.

Every workload runs at reduced size (`--scale small`) with all output
checks on, in both modes, and must print exactly the metrics BENCHMARK.json
declares for that mode. Run from the repository root:

    python3 perfbench/test_bench.py
    cargo test --release --manifest-path perfbench/Cargo.toml   # unit tests
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

WORKLOADS = ["ingest", "serve", "analytics"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def small_run(workload, trace):
    p = run(["--workload", workload, "--seed", "7", "--seconds", "0",
             "--trace", str(trace), "--scale", "small"])
    if p.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class Declaration(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], WORKLOADS)


class Workloads(unittest.TestCase):
    """Every run prints every metric BENCHMARK.json declares for its mode."""

    def check(self, workload, trace, declared):
        r = small_run(workload, trace)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"])
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(r["failed"], 0)
        self.assertEqual(sorted(r["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            got = r["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_runs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, BENCH["end_to_end"])

    def test_traced_runs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, BENCH["per_layer"])


class Packaging(unittest.TestCase):
    def test_fails_without_the_program(self):
        # Only BENCHMARK.json and the benchmark's files: the build must
        # fail and no result may be printed.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        try:
            p = run(["--workload", "analytics", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
