"""Self-tests of perfbench's statistics helpers.

Run from the repository root:  python3 -m unittest discover perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import benchstats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q3 = benchstats.quartiles(values)
        ref = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (ref[0], ref[2]))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)

    def test_relative_spread(self):
        values = [10.0] * 9 + [11.0]
        self.assertEqual(benchstats.relative_spread(values), 0.0)
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        # quantiles(n=4) -> 1.5, 3, 4.5; median 3.
        self.assertAlmostEqual(benchstats.relative_spread(values), 1.0)


class Percentile(unittest.TestCase):
    def test_nearest_rank_with_count(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchstats.percentile(values, 50), (50, 100))
        self.assertEqual(benchstats.percentile(values, 90), (90, 100))
        self.assertEqual(benchstats.percentile(values, 1), (1, 100))

    def test_omitted_without_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertIsNone(benchstats.percentile(values, 99))  # 1 beyond
        self.assertIsNone(benchstats.percentile(values, 91))  # 9 beyond
        self.assertEqual(benchstats.percentile(values, 90)[0], 90)
        self.assertEqual(benchstats.percentile(list(range(1000)), 99),
                         (989, 1000))

    def test_unsorted_input_and_empty(self):
        self.assertEqual(
            benchstats.percentile([5, 3, 1, 4, 2] * 5, 50), (3, 25))
        self.assertIsNone(benchstats.percentile([], 50))


def span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(benchstats.self_times([span(1, 0, 5, 12)]), {1: 7})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30),
                 span(3, 1, 50, 60), span(4, 2, 12, 20)]
        self.assertEqual(benchstats.self_times(spans),
                         {1: 70, 2: 12, 3: 10, 4: 8})

    def test_overlapping_children_count_once(self):
        # Two children on other threads overlapping in [20, 30).
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30),
                 span(3, 1, 20, 40)]
        self.assertEqual(benchstats.self_times(spans)[1], 70)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(benchstats.self_times(spans)[1], 90)

    def test_covered_length(self):
        self.assertEqual(benchstats.covered_length([]), 0)
        self.assertEqual(
            benchstats.covered_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(
            benchstats.covered_length([(0, 50), (10, 20)]), 50)


if __name__ == "__main__":
    unittest.main()
