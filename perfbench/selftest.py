"""Self-tests of the benchmark's own helpers.

Usage: ``python3 perfbench/selftest.py`` (stdlib ``unittest``; needs no
``repro`` import).  Covers the percentile with its sample count, the lag
join on fingerprint, the lease-expiry count, the summary digest, the
failure ratio, the span accounting of the tracer and the calibration.
"""

from __future__ import annotations

import os
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import SpeedSampler, slowdown  # noqa: E402
from stats import (  # noqa: E402
    completed_times,
    failed_scenarios,
    join_lags,
    lease_expiries,
    percentile,
    summary_digest,
)
from tracing import Tracer, merge  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_count(self):
        values = [float(v) for v in range(1, 11)]
        shuffled = values[5:] + values[:5]
        self.assertEqual(percentile(shuffled, 50), (5.0, 10))
        self.assertEqual(percentile(shuffled, 90), (9.0, 10))
        self.assertEqual(percentile(shuffled, 100), (10.0, 10))
        self.assertEqual(percentile([3.0], 99), (3.0, 1))

    def test_empty_and_bad_rank(self):
        self.assertEqual(percentile([], 50), (None, 0))
        with self.assertRaises(ValueError):
            percentile([1.0], 0)
        with self.assertRaises(ValueError):
            percentile([1.0], 101)


class LagJoinTest(unittest.TestCase):
    def test_first_completion_per_fingerprint(self):
        rows = [
            {"seq": 1, "ts": 10.0, "kind": "queued", "fingerprint": "a"},
            {"seq": 2, "ts": 11.0, "kind": "completed", "fingerprint": "a"},
            {"seq": 3, "ts": 12.0, "kind": "completed", "fingerprint": "b"},
            {"seq": 4, "ts": 13.0, "kind": "completed", "fingerprint": "a"},
        ]
        self.assertEqual(completed_times(rows), {"a": 11.0, "b": 12.0})

    def test_join_skips_unmatched(self):
        completed = {"a": 11.0, "b": 12.0, "other-sweep": 5.0}
        observed = {"a": 11.5, "b": 12.25, "cache-hit": 1.0}
        self.assertEqual(sorted(join_lags(completed, observed)), [0.25, 0.5])


class LeaseExpiryTest(unittest.TestCase):
    def test_counts_expired_leases_only(self):
        rows = [
            {"kind": "retried", "detail": "lease expired; task requeued"},
            {"kind": "failed", "detail": "lease expired after 3 attempts (worker crash?)"},
            {"kind": "retried", "detail": "worker w1 died; lease released"},
            {"kind": "failed", "detail": "worker w1 died after 3 attempts"},
            {"kind": "failed", "detail": None},
            {"kind": "completed", "detail": "lease expired"},
        ]
        self.assertEqual(lease_expiries(rows), 2)


class DigestTest(unittest.TestCase):
    rows = [
        {"fingerprint": "b", "pocd": 0.5, "wall_time_s": 0.1},
        {"fingerprint": "a", "pocd": 1.0, "wall_time_s": 0.2},
    ]

    def test_ignores_order_and_wall_time(self):
        reordered = [dict(self.rows[1], wall_time_s=9.0), dict(self.rows[0], wall_time_s=3.0)]
        self.assertEqual(summary_digest(self.rows), summary_digest(reordered))

    def test_sees_every_other_column(self):
        changed = [dict(self.rows[0], pocd=0.5000000001), self.rows[1]]
        self.assertNotEqual(summary_digest(self.rows), summary_digest(changed))
        self.assertNotEqual(summary_digest(self.rows), summary_digest(self.rows[:1]))


class FailedRatioTest(unittest.TestCase):
    def test_failed_retried_and_missing_count_once(self):
        attempted = ["a", "b", "c", "d", "e"]
        completed = ["a", "b", "c"]
        bad = failed_scenarios(attempted, completed, failed=["d"], retried=["b", "zz"])
        self.assertEqual(bad, {"b", "d", "e"})
        self.assertEqual(len(bad) / len(attempted), 3 / 5)  # failed_ratio

    def test_clean_sweep_and_duplicates(self):
        self.assertEqual(failed_scenarios(["a", "a", "b"], ["b", "a"]), set())


class TracerTest(unittest.TestCase):
    def test_same_layer_nesting_counts_once_and_self_time(self):
        tracer = Tracer()
        traced_inner = tracer.wrap("core", "core.optimize", lambda: time.sleep(0.02))
        traced_codec = tracer.wrap("api", "api.codec", lambda: None)

        def outer():
            traced_inner()
            time.sleep(0.01)

        traced_outer = tracer.wrap("simulator", "simulator.run", outer)
        reentrant = tracer.wrap("simulator", "simulator.run", traced_outer)
        reentrant()
        traced_codec()
        snap = tracer.snapshot()
        self.assertEqual(snap["calls"], {"core.optimize": 1, "simulator.run": 1, "api.codec": 1})
        self.assertGreaterEqual(snap["seconds"]["simulator.run"], 0.03)
        self.assertLess(snap["self_seconds"]["simulator.run"], snap["seconds"]["core.optimize"])

    def test_merge_sums_and_concatenates(self):
        one = {"calls": {"x": 1}, "seconds": {"x": 0.5}, "counts": {"n": 2}, "samples": {"r": [1.0]}}
        two = {"calls": {"x": 2}, "seconds": {"x": 0.25}, "counts": {}, "samples": {"r": [2.0]}}
        merged = merge([one, two])
        self.assertEqual(merged["calls"], {"x": 3})
        self.assertEqual(merged["seconds"], {"x": 0.75})
        self.assertEqual(merged["counts"], {"n": 2})
        self.assertEqual(merged["samples"], {"r": [1.0, 2.0]})


class CalibrationTest(unittest.TestCase):
    def test_slowdown_uses_the_window_or_else_every_sample(self):
        samples = [(1.0, 0.002), (2.0, 0.004), (3.0, 0.006)]
        self.assertAlmostEqual(slowdown(samples, 1.5, 3.0), 2.5)
        self.assertAlmostEqual(slowdown(samples, 0.0, 1.0), 1.0)
        self.assertAlmostEqual(slowdown(samples, 1.2, 1.8), 2.0)

    def test_sampler_samples_each_cpu_until_closed(self):
        cpus = sorted(os.sched_getaffinity(0))[:2]
        with SpeedSampler(cpus) as sampler:
            time.sleep(0.35)
        count = len(sampler.samples)
        self.assertGreaterEqual(count, 2 * len(cpus))
        self.assertTrue(all(seconds > 0 for _, seconds in sampler.samples))
        time.sleep(0.15)
        self.assertEqual(len(sampler.samples), count)


if __name__ == "__main__":
    unittest.main()
