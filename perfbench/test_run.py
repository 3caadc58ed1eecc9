#!/usr/bin/env python3
"""The benchmark's own test: every workload runs in smoke mode (tiny sizes,
one second) in both modes, passes its output checks, and emits exactly the
metrics BENCHMARK.json declares for the mode, each with a valid name and its
declared unit.

Run from the repository root:  python3 perfbench/test_run.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        _, cls.spec = run.declared_metrics(0)

    def test_workloads_are_the_declared_three(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["small_dirs", "big_dir", "batch_ingest"])

    def test_every_workload_emits_every_declared_metric(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    report = run.run_driver(self.binary, w["name"], 7, 1, trace,
                                            smoke=True)
                    self.assertTrue(report["correct"], report["errors"])
                    self.assertEqual(report["failed"], 0)
                    self.assertGreater(report["attempted"], 0)
                    self.assertEqual(run.check_metrics(report["metrics"], trace),
                                     [])
                    if trace:
                        for op, ratio in report["stage_sum_ratio"].items():
                            self.assertAlmostEqual(ratio, 1.0, delta=0.1, msg=op)

    def test_check_metrics_rejects_a_wrong_set(self):
        declared, _ = run.declared_metrics(0)
        metrics = {n: {"value": 1.0, "unit": u} for n, u in declared.items()}
        self.assertEqual(run.check_metrics(metrics, 0), [])
        first = sorted(metrics)[0]
        wrong_unit = dict(metrics, **{first: {"value": 1.0, "unit": "parsecs"}})
        self.assertTrue(run.check_metrics(wrong_unit, 0))
        missing = {n: m for n, m in metrics.items() if n != first}
        self.assertTrue(run.check_metrics(missing, 0))
        extra = dict(metrics, **{"bogus_metric": {"value": 1.0, "unit": "s"}})
        self.assertTrue(run.check_metrics(extra, 0))


if __name__ == "__main__":
    unittest.main()
