#!/usr/bin/env python3
"""Tests of the benchmark itself: the compare rules, and a tiny smoke run of
each workload through run.py (both the end-to-end and the traced output).

    python3 perfbench/test_perfbench.py            # everything
    python3 perfbench/test_perfbench.py CompareTest  # no build, no runs
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "updates_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
    {"name": "query_p99_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]}


def records(workload, metric, values):
    return [{"workload": workload, "trace": 0,
             "e2e": {metric: {"value": v, "unit": "x"}}} for v in values]


class CompareTest(unittest.TestCase):
    def verdict(self, base, new, higher=True, bound=0.1):
        return compare.verdict(base, new, higher, bound)

    def test_clear_gain_is_improved(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [v + 10 for v in base]
        self.assertEqual(self.verdict(base, new), ("improved", 10, 10))

    def test_direction_follows_the_metric(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        faster = [v - 1.0 for v in base]
        self.assertEqual(self.verdict(base, faster, higher=False)[0],
                         "improved")
        self.assertEqual(self.verdict(base, faster, higher=True)[0], "worse")

    def test_eight_of_ten_pairs_is_not_a_gain(self):
        base = [100] * 10
        new = [110] * 8 + [90, 90]
        verdict, won, pairs = self.verdict(base, new)
        self.assertEqual((won, pairs), (8, 10))
        self.assertNotEqual(verdict, "improved")

    def test_ties_count_for_neither_side(self):
        base = [100] * 10
        new = [100] * 9 + [101]
        self.assertEqual(self.verdict(base, new), ("unchanged", 1, 10))

    def test_gain_within_base_spread_is_not_improved(self):
        base = [80, 120, 90, 110, 85, 115, 95, 105, 100, 100]
        new = [v + 1 for v in base]
        verdict, won, _ = self.verdict(base, new, bound=0.5)
        self.assertEqual(won, 10)
        self.assertEqual(verdict, "unchanged")

    def test_median_worse_than_bound_is_worse(self):
        base = [100, 80, 120, 100, 90, 110, 100, 95, 105, 100]
        new = [85, 95, 70, 110, 80, 75, 90, 60, 100, 65]
        self.assertEqual(self.verdict(base, new, bound=0.1)[0], "worse")

    def test_noisy_base_is_unresolved(self):
        base = [50, 150, 60, 140, 70, 130, 80, 120, 100, 100]
        new = [55, 140, 65, 145, 75, 125, 85, 115, 95, 105]
        self.assertEqual(self.verdict(base, new, bound=0.1)[0], "unresolved")

    def test_compare_pairs_runs_per_workload_and_metric(self):
        base = (records("w", "updates_per_s", [100] * 10) +
                records("w", "query_p99_ms", [5.0] * 10))
        new = (records("w", "updates_per_s", [120] * 10) +
               records("w", "query_p99_ms", [5.0] * 10))
        rows = {r["metric"]: r for r in compare.compare(base, new, SPEC)}
        self.assertEqual(rows["updates_per_s"]["verdict"], "improved")
        self.assertEqual(rows["updates_per_s"]["won"], 10)
        self.assertEqual(rows["query_p99_ms"]["verdict"], "unchanged")
        self.assertEqual(rows["query_p99_ms"]["base"], (5.0, 5.0, 5.0))

    def test_traced_records_are_ignored(self):
        base = records("w", "updates_per_s", [100] * 3)
        traced = [dict(r, trace=1) for r in records("w", "updates_per_s",
                                                    [1] * 3)]
        self.assertEqual(compare.series(base + traced),
                         {("w", "updates_per_s"): [100, 100, 100]})


class SmokeTest(unittest.TestCase):
    """Runs every workload at smoke-test sizes through the real command."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_workload(self, workload, trace):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "r.jsonl")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "2", "--trace",
                 str(trace), "--tiny", "--out", out],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=600)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(out) as f:
                record = json.loads(f.readline())
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        for key in ("git_sha", "source_hash", "compiler", "simd_f64",
                    "precision", "nproc", "seed", "options_hash"):
            self.assertIn(key, record["manifest"])
        return result

    def test_each_workload_end_to_end(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.run_workload(w["name"], 0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_each_workload_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.run_workload(w["name"], 1)


if __name__ == "__main__":
    unittest.main()
