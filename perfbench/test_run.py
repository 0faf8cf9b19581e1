"""Tests of run.py's spread maths and of BENCHMARK.json's shape and
bounds. Metric and workload names are checked in tests/test_helpers.cc.
Run: python3 perfbench/run.py --self-test
"""

import statistics
import unittest

import run


class SpreadMaths(unittest.TestCase):
    def test_spread_of_one_to_ten(self):
        values = list(range(1, 11))
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)

    def test_spread_is_zero_for_constant_or_zero_median(self):
        self.assertEqual(run.spread([3.0] * 6), 0.0)
        self.assertEqual(run.spread([0.0, 0.0, 0.0]), 0.0)

    def test_summary_matches_statistics(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary = run.summarize(values)
        self.assertEqual(summary["median"], 5.0)
        self.assertEqual((summary["q1"], summary["q3"]), (q1, q3))
        self.assertAlmostEqual(summary["spread"], (q3 - q1) / 5.0)


class BenchmarkJson(unittest.TestCase):
    def test_shape_and_bounds(self):
        bench = run.load_benchmark()
        self.assertEqual(set(bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        for metric in bench["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
