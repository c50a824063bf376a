#!/usr/bin/env python3
"""Tests of the benchmark itself (not of lsdb).

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py for a second or two per workload, so the
suite takes about a minute once lsdb_perfbench is built.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, seconds=1, extra=(), cwd=ROOT):
    """Returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def deterministic_counts(report):
    """The count metrics of the count pass, which must repeat exactly."""
    return {k: v["value"] for k, v in report["metrics"].items()
            if k.endswith("_per_q") or k.endswith("hit_ratio")}


class PerfbenchTest(unittest.TestCase):
    def test_every_named_metric_printed_with_unit(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, lines = run(w, trace=trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_counts_repeat_for_same_seed_and_under_tracing(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                reports = []
                for trace in (0, 0, 1):
                    code, lines = run(w, seed=7, trace=trace)
                    self.assertEqual(code, 0)
                    reports.append(json.loads(lines[-2]))
                counts = [deterministic_counts(r) for r in reports]
                self.assertGreater(len(counts[0]), 10)
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(counts[0], counts[2])

    def test_corrupted_response_is_caught(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, extra=["--corrupt-response"])
                self.assertEqual(code, 1)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run(WORKLOADS[0], cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
