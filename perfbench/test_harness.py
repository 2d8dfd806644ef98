"""Self-tests of the benchmark harness, at a tiny scale.

    python3 -m unittest discover -s perfbench -t perfbench

They check the percentile rule, that a traced run streams untraced
before it traces, span self-time arithmetic, that request
literals are re-drawn per full compared path, that every workload runs
and reports every metric of ``BENCHMARK.json``, and that a deliberately
wrong result fails the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import churn  # noqa: E402
import drift  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from harness import (Checker, SpanRecord, StreamClock, Tracer, covered,  # noqa: E402
                     percentile, result_key, samples_needed, self_times)
from statements import Template, comparison_slots  # noqa: E402

from repro.executor.executor import QueryExecutor  # noqa: E402
from repro.telemetry import Span  # noqa: E402

TINY_SCALE = {"xmark-serve": 0.02, "tpox-churn": 0.02, "xmark-drift": 0.05}
TINY_SIZES = {
    "xmark-serve": replace(serve.Sizes(), advise_repeats=2, build_repeats=2,
                           count_window=20, overhead_requests=10),
    "tpox-churn": replace(churn.Sizes(), setups=3, advise_repeats=2, build_repeats=2,
                          count_window=20, min_writes=30, min_reads_after_write=20,
                          overhead_requests=10, check_statements=30),
    "xmark-drift": replace(drift.Sizes(), setups=3, advise_repeats=2, build_repeats=2,
                           count_rounds=6, min_migrations=2, overhead_rounds=1),
}


def tiny_run(workload: str, traced: bool):
    spec = run.load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    inputs = gen.generate(workload, 3, TINY_SCALE[workload])
    return run.run_workload(workload, 3, 0.05, traced, units,
                            sizes=TINY_SIZES[workload], inputs=inputs), spec


class PercentileTest(unittest.TestCase):
    def test_reports_only_with_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 1001)]
        self.assertEqual(percentile(samples, 0.99), 990.0)
        self.assertEqual(percentile(samples, 0.5), 500.0)
        self.assertIsNone(percentile(samples[:999], 0.99))
        self.assertIsNone(percentile(samples[:19], 0.5))
        self.assertEqual(percentile(samples[:20], 0.5), 10.0)
        self.assertIsNone(percentile([], 0.5))

    def test_samples_needed(self):
        self.assertEqual(samples_needed(0.99), 1000)
        self.assertEqual(samples_needed(0.95), 200)
        self.assertEqual(samples_needed(0.5), 20)
        for q in (0.5, 0.95, 0.99):
            n = samples_needed(q)
            self.assertIsNotNone(percentile(list(range(n)), q))
            self.assertIsNone(percentile(list(range(n - 1)), q))


class StreamClockTest(unittest.TestCase):
    def test_traced_run_streams_untraced_first(self):
        tracer = Tracer(enabled=True)
        clock = StreamClock(tracer, 0.0)
        self.assertFalse(tracer.enabled)
        self.assertTrue(clock.keep_going(True))
        self.assertTrue(clock.measuring)
        self.assertTrue(clock.keep_going(False))
        self.assertTrue(tracer.enabled)
        self.assertFalse(clock.measuring)
        self.assertFalse(clock.keep_going(False))

    def test_untraced_run_ends_after_untraced_part(self):
        tracer = Tracer(enabled=False)
        clock = StreamClock(tracer, 0.0)
        self.assertFalse(clock.keep_going(False))
        self.assertFalse(tracer.enabled)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(covered((0, 10), [(1, 3), (2, 5), (8, 12)]), 6.0)
        self.assertAlmostEqual(covered((0, 10), []), 0.0)
        self.assertAlmostEqual(covered((0, 10), [(11, 12), (-3, -1)]), 0.0)

    def test_self_time_is_duration_minus_children(self):
        spans = [SpanRecord(0, "executor.execute", 0.0, 10.0, None, 1, "stream"),
                 SpanRecord(1, "optimizer.plan", 1.0, 3.0, 0, 1, "stream"),
                 SpanRecord(2, "executor.scan", 2.0, 5.0, 0, 1, "stream"),
                 SpanRecord(3, "index.probe", 1.5, 2.0, 1, 1, "stream")]
        self.assertEqual([round(t, 9) for t in self_times(spans)],
                         [6.0, 1.5, 3.0, 0.5])

    def test_execution_trace_nests_in_order(self):
        tracer = Tracer(enabled=True)
        root = Span("query")
        for name, seconds in (("compile", 0.0), ("plan", 0.002), ("scan", 0.005)):
            root.child(name).elapsed_seconds = seconds
        with tracer.span("executor.execute") as parent:
            pass
        parent.end = parent.start + 0.010
        tracer.nest_execution_trace(parent, root)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, ["executor.execute", "executor.compile",
                                 "optimizer.plan", "executor.scan"])
        plan, scan = tracer.spans[2], tracer.spans[3]
        self.assertAlmostEqual(scan.start, plan.end)
        totals = tracer.layer_self_times()
        self.assertAlmostEqual(totals["executor"], 0.008)
        self.assertAlmostEqual(totals["optimizer"], 0.002)


class StatementTest(unittest.TestCase):
    def test_slots_are_keyed_by_the_full_compared_path(self):
        text = ('for $i in doc("x.xml")/site/regions/asia/item '
                'where $i/price > 450 and $i/payment = "Cash" return $i/name')
        slots = comparison_slots(text)
        self.assertEqual([(s.pattern, s.quoted) for s in slots],
                         [("/site/regions/asia/item/price", False)])
        template = Template(text, {"/site/regions/asia/item/price": ["12.5"]})
        self.assertEqual(template.render(["12.5"]), text.replace("450", "12.5"))

    def test_id_literals_are_slots(self):
        text = ('for $p in doc("x.xml")/site/people/person '
                'where $p/@id = "person3_1" return $p/name')
        self.assertEqual([(s.pattern, s.quoted) for s in comparison_slots(text)],
                         [("/site/people/person/@id", True)])


class CheckerTest(unittest.TestCase):
    def test_compare_counts_mismatches(self):
        checker = Checker()
        result = mock.Mock(result_count=2, extracted_values=["a", "b"])
        wrong = mock.Mock(result_count=2, extracted_values=["a", "c"])
        self.assertTrue(checker.compare("same", result_key(result), result_key(result)))
        self.assertFalse(checker.compare("wrong", result_key(result), result_key(wrong)))
        self.assertEqual((checker.attempted, checker.failed), (2, 1))
        self.assertFalse(checker.correct)
        self.assertEqual(checker.error_rate, 0.5)


class TinyWorkloadTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for workload in run.WORKLOADS:
            for traced in (False, True):
                with self.subTest(workload=workload, traced=traced):
                    (report, checker, tracer), spec = tiny_run(workload, traced)
                    self.assertTrue(checker.correct, checker.messages)
                    names = [m["name"] for m in spec["per_layer" if traced
                                                     else "end_to_end"]]
                    line = run.result_line(report, checker, names,
                                           require_values=not traced)
                    self.assertEqual(sorted(line["metrics"]), sorted(names))
                    self.assertEqual(bool(tracer.spans), traced)

    def test_wrong_result_fails_the_run(self):
        original = QueryExecutor.execute

        def corrupted(self, query, **kwargs):
            result = original(self, query, **kwargs)
            if self.database.name == "xmark-serve-system":
                result.result_count += 1
            return result

        with mock.patch.object(QueryExecutor, "execute", corrupted):
            outcome, _ = tiny_run("xmark-serve", False)
        report, checker, _ = outcome
        self.assertGreater(checker.failed, 0)
        self.assertFalse(checker.correct)
        stdout = io.StringIO()
        with mock.patch.object(run, "run_workload", return_value=outcome), \
                contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "xmark-serve", "--seconds", "0.05"])
        self.assertNotEqual(code, 0)
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], checker.failed)


class MissingProgramTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as directory:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), directory)
            shutil.copytree(HERE, os.path.join(directory, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            child = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "xmark-serve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=directory, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(child.returncode, 0)
        self.assertEqual(child.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
