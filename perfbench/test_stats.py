"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import stats

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(20, 50), 10)

    def test_checked_percentile_needs_ten_beyond(self):
        self.assertEqual(stats.checked_percentile(list(range(1000)), 99), 989)
        with self.assertRaises(ValueError):
            stats.checked_percentile(list(range(999)), 99)
        with self.assertRaises(ValueError):
            stats.checked_percentile(list(range(19)), 50)

    def test_highest_percentile_and_count(self):
        self.assertIsNone(stats.highest_percentile(list(range(19))))
        self.assertEqual(stats.highest_percentile(list(range(20)))[0], 50.0)
        self.assertEqual(stats.highest_percentile(list(range(100)))[0], 90.0)
        p, value, n = stats.highest_percentile(list(range(1000)))
        self.assertEqual((p, value, n), (99.0, 989, 1000))
        self.assertEqual(stats.highest_percentile(list(range(10000)))[0], 99.9)


class StealFilter(unittest.TestCase):
    def test_keeps_the_least_stolen_quarter(self):
        values = list(range(12))
        steal = [0.3, 0.0, 0.1, 0.2, 0.05, 0.4, 0.0, 0.5, 0.6, 0.7, 0.8, 0.9]
        # ceil(12 / 4) = 3 samples: steal 0.0, 0.0 and 0.05.
        self.assertEqual(stats.least_steal(values, steal), [1, 4, 6])

    def test_minimum_and_ties(self):
        self.assertEqual(stats.least_steal([5, 6], [0.1, 0.2]), [5, 6])
        # No steal reported: every sample is kept.
        self.assertEqual(stats.least_steal([1, 2, 3, 4, 5], [0.0] * 5), [1, 2, 3, 4, 5])
        with self.assertRaises(ValueError):
            stats.least_steal([1, 2], [0.0])

    def test_median_of_processes(self):
        quiet = {"value": [10, 11, 12], "steal": [0.0, 0.0, 0.0]}
        fast = {"value": [20, 21, 22], "steal": [0.0, 0.0, 0.0]}
        stolen = {"value": [1, 1, 1], "steal": [0.3, 0.3, 0.3]}
        # One process placed on faster cores does not move the figure.
        self.assertEqual(stats.median_of_processes([quiet, quiet, fast]), 11)
        # A process stolen from throughout gives no samples.
        self.assertEqual(stats.median_of_processes([quiet, stolen, stolen, stolen]), 11)
        # Only a process's least-stolen samples count.
        partly = {"value": [30, 30, 30, 5, 5, 5], "steal": [0.0, 0.0, 0.0, 0.5, 0.5, 0.5]}
        self.assertEqual(stats.median_of_processes([partly, stolen]), 30)

    def test_jobs_of_the_least_stolen_windows(self):
        latency = [1, 2, 3, 4, 5, 6]
        job_window = [0, 0, 1, 1, 2, 3]
        window_steal = [0.2, 0.0, 0.1, 0.9]
        # Windows in order of steal (1, 2, 0) until at least 4 jobs.
        self.assertEqual(stats.least_steal_jobs(latency, job_window, window_steal, minimum=4),
                         [3, 4, 5, 1, 2])
        self.assertEqual(stats.least_steal_jobs(latency, job_window, window_steal, minimum=2),
                         [3, 4])
        # Ties with the last window taken are kept.
        self.assertEqual(stats.least_steal_jobs(latency, job_window, [0.0] * 4, minimum=1),
                         latency)


class PoissonSchedule(unittest.TestCase):
    def test_deterministic_per_seed(self):
        self.assertEqual(stats.poisson_schedule(7, 500, 4), stats.poisson_schedule(7, 500, 4))
        self.assertNotEqual(stats.poisson_schedule(7, 500, 4), stats.poisson_schedule(8, 500, 4))

    def test_hits_its_mean_rate(self):
        gaps = [g for g, _ in stats.poisson_schedule(3, 20000, 4)]
        # Unit rate: mean gap 1 within a few standard errors (1/sqrt(n)).
        self.assertAlmostEqual(statistics.fmean(gaps), 1.0, delta=0.03)
        # Exponential gaps: the standard deviation equals the mean.
        self.assertAlmostEqual(statistics.pstdev(gaps), 1.0, delta=0.05)
        rate = 100.0
        self.assertAlmostEqual(len(gaps) / (sum(gaps) / rate), rate, delta=3.0)

    def test_tenants_in_range_and_all_used(self):
        tenants = {t for _, t in stats.poisson_schedule(5, 1000, 4)}
        self.assertEqual(tenants, {0, 1, 2, 3})


class MetricNames(unittest.TestCase):
    def test_regex(self):
        for good in ("iters_per_s.seq", "job_p99_ms", "setup.capture_ms.shard_wire", "a-b.c_d", "9x"):
            self.assertTrue(stats.valid_metric_name(good), good)
        for bad in ("", "has space", "slash/name", ".leading", "x" * 65, "colon:name"):
            self.assertFalse(stats.valid_metric_name(bad), bad)

    def test_benchmark_json_names(self):
        if not BENCHMARK_JSON.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(BENCHMARK_JSON.read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(stats.valid_metric_name(name), name)

    def test_result_must_hold_exactly_the_manifest_metrics(self):
        if not BENCHMARK_JSON.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        import run
        spec = json.loads(BENCHMARK_JSON.read_text())
        for section in ("end_to_end", "per_layer"):
            metrics = {m["name"]: run.metric(1.0, m["unit"]) for m in spec[section]}
            run.check_names(metrics, section)
            first = next(iter(metrics))
            for bad in ({k: v for k, v in metrics.items() if k != first},
                        dict(metrics, extra=run.metric(1.0, "s")),
                        dict(metrics, **{first: run.metric(1.0, "other")})):
                with self.assertRaises(ValueError):
                    run.check_names(bad, section)


class LayerArithmetic(unittest.TestCase):
    def test_idle_frac(self):
        # 10 ms of seq kernel work per iteration, 4 threads, 5 ms per
        # iteration: 20 thread-ms available, 10 used.
        self.assertAlmostEqual(stats.idle_frac(10.0, 4, 5.0), 0.5)
        # Perfect scaling leaves no idle time.
        self.assertAlmostEqual(stats.idle_frac(8.0, 4, 2.0), 0.0)
        # A slower-than-seq arm is mostly idle.
        self.assertAlmostEqual(stats.idle_frac(10.0, 2, 10.0), 0.5)

    def test_computed_bytes(self):
        # Direct read of 4 doubles and direct write of 4 doubles.
        self.assertEqual(stats.computed_bytes(100, [(4, 8, stats.READ, 0), (4, 8, stats.WRITE, 0)]),
                         100 * 64)
        # Read-write counts twice; an indirect argument adds one int of map.
        self.assertEqual(stats.computed_bytes(10, [(1, 8, stats.READ_WRITE, 0)]), 160)
        self.assertEqual(stats.computed_bytes(10, [(2, 8, stats.READ, 2)]), 160 + 40)

    def test_gb_per_s(self):
        self.assertAlmostEqual(stats.gb_per_s(2e9, 1000.0), 2.0)
        self.assertAlmostEqual(stats.gb_per_s(1e6, 1.0), 1.0)

    def test_decode_shape(self):
        set_size, args = stats.decode_shape([100, 4, 8, 0, 0, 1, 8, 1, 2])
        self.assertEqual(set_size, 100)
        self.assertEqual(args, [(4, 8, 0, 0), (1, 8, 1, 2)])
        with self.assertRaises(ValueError):
            stats.decode_shape([100, 4, 8, 0])


if __name__ == "__main__":
    unittest.main()
