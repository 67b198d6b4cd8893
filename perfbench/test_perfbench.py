"""Tests of the benchmark's own arithmetic, naming and correctness scoring.

Run from the repository root: ``python3 -m pytest perfbench`` or
``python3 -m unittest discover -s perfbench``.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("a", 0.0, 10.0, -1),
            ("b", 1.0, 4.0, 0),
            ("c", 2.0, 3.0, 1),
            ("b", 5.0, 7.0, 0),
        ]
        self.assertEqual(tracer.self_times(spans), {"a": 5.0, "b": 4.0, "c": 1.0})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            ("p", 0.0, 10.0, -1),
            ("x", 1.0, 5.0, 0),
            ("y", 4.0, 8.0, 0),
            ("z", 9.0, 12.0, 0),
        ]
        self.assertEqual(tracer.self_times(spans)["p"], 10.0 - 7.0 - 1.0)


class NameTest(unittest.TestCase):
    def test_benchmark_names(self):
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9]")
            self.assertLessEqual(len(name), 64)
            self.assertIsNotNone(NAME.fullmatch(name), name)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOADS))

    def test_tracer_metric_names(self):
        for name in tracer.Tracer().metrics():
            self.assertIsNotNone(NAME.fullmatch(name), name)


class PercentileTest(unittest.TestCase):
    def test_interpolation(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile(range(101), 90), 90)
        self.assertEqual(run.percentile([7], 90), 7)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.highest_supported_percentile(100), 90.0)
        self.assertEqual(run.highest_supported_percentile(1000), 99.0)
        self.assertAlmostEqual(run.highest_supported_percentile(40), 75.0)
        self.assertIsNone(run.highest_supported_percentile(10))
        # At the highest supported percentile exactly ten samples lie above it.
        for n in (11, 57, 100, 318):
            q = run.highest_supported_percentile(n)
            cut = run.percentile(range(n), q)
            self.assertEqual(sum(1 for x in range(n) if x > cut), 10)


class GoldenTest(unittest.TestCase):
    ARGV = ["verify", "q8", "--json"]

    def score(self, golden):
        record, _ = worker.run_call(self.ARGV)
        result = {"calls": [record], "maxrss_kb": 1}
        bench_run = run.Run("pgroups", golden)
        bench_run.add_pass([self.ARGV], result, setup=0.1, traced=False)
        return bench_run.failed / bench_run.attempted

    def test_committed_digest_passes(self):
        self.assertEqual(self.score(run.load_golden()["pgroups"]), 0.0)

    def test_corrupted_digest_fails(self):
        golden = dict(run.load_golden()["pgroups"])
        rc, sha = golden[tuple(self.ARGV)]
        golden[tuple(self.ARGV)] = (rc, "0" * len(sha))
        self.assertGreater(self.score(golden), 0.0)


class TracerTest(unittest.TestCase):
    CALLS = [["verify", "sym:4", "--json"], ["verify", "q8", "--json"]]

    def test_traced_pass_reports_every_layer_and_leaves_output_alone(self):
        plain = worker.run_job({"calls": self.CALLS})
        traced = worker.run_job({"calls": self.CALLS, "trace": True})
        self.assertEqual([c["sha256"] for c in plain["calls"]],
                         [c["sha256"] for c in traced["calls"]])
        added_by_run = {"cli.reports_emitted", "cli.emit_ratio", "trace.overhead_frac"}
        layers = traced["layers"]
        for metric in BENCH["per_layer"]:
            if metric["name"] not in added_by_run:
                self.assertGreater(layers[metric["name"]], 0, metric["name"])
        self.assertEqual(layers["cli.reports_computed"],
                         sum(c["lines"] for c in traced["calls"]))

    def test_uninstall_restores_every_namespace(self):
        import sylowlab.counting
        import sylowlab.groups
        import sylowlab.subgroups

        original = sylowlab.subgroups.all_subgroups
        conj = sylowlab.groups.FiniteGroup.conj_table
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(sylowlab.counting.all_subgroups, original)
            self.assertIs(sylowlab.counting.all_subgroups, sylowlab.subgroups.all_subgroups)
        finally:
            t.uninstall()
        self.assertIs(sylowlab.counting.all_subgroups, original)
        self.assertIs(sylowlab.groups.FiniteGroup.conj_table, conj)


if __name__ == "__main__":
    unittest.main()
