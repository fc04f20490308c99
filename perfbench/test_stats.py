"""Tests of the benchmark's own statistics: the tail percentile, failure
accounting, span self times and the metric list BENCHMARK.json declares.

    python3 -B -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def thread(spans, begin=0.0, end=10.0):
    return {"begin_ms": begin, "end_ms": end, "spans": spans}


class TailTest(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        value, pct, n = stats.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(n, 100)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(1 for v in range(1, 101) if v > value), 10)

    def test_eleven_samples_gives_the_minimum(self):
        value, pct, _ = stats.tail([5, 3, 9, 1, 7, 2, 8, 4, 6, 11, 10])
        self.assertEqual(value, 1)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_order_of_samples_does_not_matter(self):
        samples = [float(v) for v in range(40)]
        self.assertEqual(stats.tail(samples), stats.tail(samples[::-1]))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class FailureAccountingTest(unittest.TestCase):
    def test_error_rate_counts_failures_against_attempts(self):
        self.assertEqual(stats.error_rate(10, 0), 0.0)
        self.assertEqual(stats.error_rate(8, 2), 0.25)

    def test_impossible_counts_are_rejected(self):
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                stats.error_rate(attempted, failed)

    def test_end_to_end_metrics(self):
        raw = {"latencies_ms": [float(v) for v in range(1, 21)],
               "attempted": 20, "failed": 5, "predictions": 30,
               "wall_s": 10.0, "peak_rss_mb": 100.0,
               "prediction_error_pct": 3.3}
        metrics, detail = stats.end_to_end(raw, [2.0, 1.0, 3.0])
        self.assertEqual(metrics["latency_p50_ms"], 10.5)
        self.assertEqual(metrics["latency_tail_ms"], 10.0)
        self.assertEqual(detail, {"tail_percentile": 50.0, "samples": 20})
        self.assertEqual(metrics["ok_ratio"], 0.75)
        self.assertEqual(metrics["predictions_per_s"], 3.0)
        self.assertEqual(metrics["setup_s"], 2.0)
        self.assertEqual(set(metrics), {n for n, _ in stats.E2E_METRICS})


class SpanTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        ops = [{"wall_ms": 10.0, "threads": [thread([
            ["core.parse", 0.0, 6.0, -1, 100, 0],
            ["release", 1.0, 3.0, 0, 0, 0],
            ["trace.ingest", 6.0, 10.0, -1, 0, 8e6],
        ])]}]
        calls, total, items, nbytes, thread_ms = stats.span_totals(ops)
        self.assertEqual(calls["core.parse"], [4.0])
        self.assertEqual(total["release"], 2.0)
        self.assertEqual(items["core.parse"], 100)
        self.assertEqual(nbytes["trace.ingest"], 8e6)
        self.assertEqual(thread_ms, 10.0)

    def test_per_layer_shares_rates_and_coverage(self):
        ops = [{"wall_ms": 10.0, "threads": [
            thread([["trace.ingest", 0.0, 4.0, -1, 0, 4e6],
                    ["core.replay_interp", 4.0, 9.0, -1, 1000, 0]]),
            thread([["core.replay_interp", 2.0, 7.0, -1, 1000, 0]],
                   begin=2.0, end=7.0),
        ]}]
        raw = {"latencies_ms": [10.0], "traced_ms": [11.0], "extra": {}}
        metrics = stats.per_layer(raw, ops)
        self.assertEqual(set(metrics), set(stats.per_layer_units()))
        self.assertEqual(metrics["core.replay_interp_ms"], 5.0)
        self.assertAlmostEqual(metrics["core.replay_interp_ms.share"],
                               10.0 / 15.0)
        self.assertAlmostEqual(metrics["core.replay_interp_tasks_per_s"],
                               2000 / 0.010)
        self.assertAlmostEqual(metrics["trace.ingest_mb_per_s"], 1000.0)
        self.assertAlmostEqual(metrics["traced.coverage"], 14.0 / 15.0)
        self.assertAlmostEqual(metrics["traced.overhead_pct"], 10.0)
        self.assertEqual(metrics["snapshot.load_ms"], 0.0)


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric_reported(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]],
            stats.E2E_METRICS)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]],
            list(stats.per_layer_units().items()))


if __name__ == "__main__":
    unittest.main()
