"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import benchlib  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank_is_a_measured_value(self):
        values = list(range(100, 0, -1))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([3.5, 1.25], 50), 1.25)

    def test_samples_beyond_the_percentile(self):
        # p90 needs 100 samples before ten of them lie beyond it.
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90), 9)
        self.assertEqual(benchlib.samples_beyond(10, 90), 1)
        self.assertEqual(benchlib.samples_beyond(1, 90), 0)

    def test_rank_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.rank(10, 0)
        with self.assertRaises(ValueError):
            benchlib.rank(10, 101)

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 10.0, 10.0]
        self.assertEqual(benchlib.spread(values), 0.0)
        # quantiles([1..9], n=4) with the default exclusive method: 2.5, 7.5
        self.assertAlmostEqual(benchlib.spread(list(range(1, 10))), 5.0 / 5.0)


class OpenLoop(unittest.TestCase):
    MIX = [("a", 7), ("b", 2), ("c", 1)]

    def test_latency_counts_from_the_due_time(self):
        self.assertAlmostEqual(benchlib.due_latency_ms(1.0, 1.25), 250.0)
        # A sender stalled until t = 0.5 sends three requests due at
        # 0.0, 0.1 and 0.2; all are acked at 0.6. Each is charged its
        # whole wait, not the 100 ms after it was finally sent.
        lat = [benchlib.due_latency_ms(d, 0.6) for d in (0.0, 0.1, 0.2)]
        for got, want in zip(lat, (600.0, 500.0, 400.0)):
            self.assertAlmostEqual(got, want)

    def test_schedule_is_a_function_of_its_seeds(self):
        a = benchlib.poisson_schedule(7, 7, 20.0, 30.0, self.MIX)
        b = benchlib.poisson_schedule(7, 7, 20.0, 30.0, self.MIX)
        c = benchlib.poisson_schedule(8, 7, 20.0, 30.0, self.MIX)
        self.assertEqual(a, b)
        self.assertNotEqual([t for t, _ in a], [t for t, _ in c])
        self.assertEqual([k for _, k in a], [k for _, k in c])

    def test_kind_seed_draws_only_the_kinds(self):
        a = benchlib.poisson_schedule(1, 7, 20.0, 30.0, self.MIX)
        b = benchlib.poisson_schedule(1, 8, 20.0, 30.0, self.MIX)
        self.assertEqual([t for t, _ in a], [t for t, _ in b])
        self.assertNotEqual([k for _, k in a], [k for _, k in b])

    def test_schedule_keeps_its_rate_and_mix(self):
        sched = benchlib.poisson_schedule(1, 1, 20.0, 30.0, self.MIX)
        offsets = [t for t, _ in sched]
        self.assertEqual(len(sched), 600)
        self.assertEqual(offsets, sorted(offsets))
        self.assertTrue(0 < offsets[0])
        self.assertAlmostEqual(offsets[-1], 30.0)
        counts = {k: sum(1 for _, kk in sched if kk == k) for k, _ in self.MIX}
        self.assertEqual(counts, {"a": 420, "b": 120, "c": 60})

    def test_mix_shares_round_to_the_count(self):
        sched = benchlib.poisson_schedule(3, 3, 1.0, 10.0, [("a", 1), ("b", 1), ("c", 1)])
        counts = sorted(sum(1 for _, k in sched if k == kind) for kind in "abc")
        self.assertEqual(counts, [3, 3, 4])

    def test_gaps_are_exponential(self):
        # Gaps of a Poisson process at rate 20 average 50 ms, and a share
        # 1 - e^-1 of them is shorter than that.
        sched = benchlib.poisson_schedule(5, 5, 20.0, 100.0, self.MIX)
        offsets = [0.0] + [t for t, _ in sched]
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        self.assertAlmostEqual(sum(gaps) / len(gaps), 0.05)
        share_short = sum(1 for g in gaps if g < 0.05) / len(gaps)
        self.assertLess(abs(share_short - (1 - math.exp(-1))), 0.01)
        # Half of the gaps lie below the median ln 2 / rate.
        below = sum(1 for g in gaps if g < math.log(2) / 20.0)
        self.assertLess(abs(below - 1000), 10)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 30), 2: (0, 20, 50)}
        self.assertEqual(benchlib.self_times(spans)[0], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = {0: (-1, 0, 100), 1: (0, 90, 120)}
        self.assertEqual(benchlib.self_times(spans)[0], 90)

    def test_nested_spans(self):
        # root > a > b, and root > c: b is a's child only, so the root
        # loses a's and c's whole intervals, a loses b's.
        spans = {
            0: (-1, 0, 100),
            1: (0, 10, 50),
            2: (1, 20, 30),
            3: (0, 60, 70),
        }
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs, {0: 50, 1: 30, 2: 10, 3: 10})
        # Self times of a tree add up to its root's wall.
        self.assertEqual(sum(selfs.values()), 100)

    def test_root_of(self):
        spans = {0: (-1, 0, 9), 1: (0, 1, 8), 2: (1, 2, 7), 3: (-1, 10, 11)}
        self.assertEqual(benchlib.root_of(spans, 2), 0)
        self.assertEqual(benchlib.root_of(spans, 3), 3)


if __name__ == "__main__":
    unittest.main()
