"""Tests for reduce.py and for run.py's metric tables.

Run: python3 perfbench/test_reduce.py
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reduce  # noqa: E402
import run  # noqa: E402


def ev(name, ts, dur, tid=1, cat="c"):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": tid}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(reduce.percentile(xs, 50), 50)
        self.assertEqual(reduce.percentile(xs, 99), 99)
        self.assertEqual(reduce.percentile(xs, 100), 100)
        self.assertEqual(reduce.percentile([7], 99), 7)

    def test_failed_samples_miss_every_limit(self):
        xs = [1.0] * 98 + [None, None]
        self.assertEqual(reduce.percentile(xs, 98), 1.0)
        self.assertTrue(math.isinf(reduce.percentile(xs, 99)))

    def test_unsorted_input(self):
        self.assertEqual(reduce.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_empty(self):
        with self.assertRaises(ValueError):
            reduce.percentile([], 50)


class WindowedPercentileTest(unittest.TestCase):
    def test_few_samples_form_one_window(self):
        xs = list(range(1, 101))
        self.assertEqual(reduce.windowed_percentile(xs, 50), 50)

    def test_hiccup_in_one_window_is_outvoted(self):
        xs = [1.0] * 5000
        xs[1000:1100] = [500.0] * 100  # 10% of the second window
        self.assertEqual(reduce.percentile(xs, 99), 500.0)
        self.assertEqual(reduce.windowed_percentile(xs, 99), 1.0)

    def test_slowdown_in_most_windows_shows(self):
        xs = ([1.0] * 970 + [9.0] * 30) * 5
        self.assertEqual(reduce.windowed_percentile(xs, 99), 9.0)

    def test_window_count_and_failures(self):
        xs = [2.0] * 3000
        for i in range(0, 3000, 50):  # 2% failed, spread evenly
            xs[i] = None
        self.assertTrue(math.isinf(reduce.windowed_percentile(xs, 99)))
        self.assertEqual(reduce.windowed_percentile(xs, 50), 2.0)


class HistogramTest(unittest.TestCase):
    def test_diff_drops_prior_observations(self):
        before = {"count": 2, "sum": 3, "buckets": [[1, 1], [2, 1]]}
        after = {"count": 5, "sum": 40, "buckets": [[1, 1], [2, 2], [8, 2]]}
        d = reduce.hist_diff(after, before)
        self.assertEqual(d["count"], 3)
        self.assertEqual(d["sum"], 37)
        self.assertEqual(d["buckets"], [[2, 1], [8, 2]])

    def test_diff_without_before(self):
        after = {"count": 1, "sum": 4, "buckets": [[4, 1]]}
        self.assertEqual(reduce.hist_diff(after, None), after)

    def test_quantile_interpolates_inside_bucket(self):
        h = {"buckets": [[4, 4]]}  # four values in [4, 8)
        self.assertEqual(reduce.hist_quantile(h, 0.5), 6.0)
        self.assertEqual(reduce.hist_quantile(h, 1.0), 8.0)

    def test_quantile_picks_bucket_by_rank(self):
        h = {"buckets": [[0, 50], [16, 49], [1024, 1]]}
        self.assertEqual(reduce.hist_quantile(h, 0.5), 0.0)
        self.assertTrue(16 <= reduce.hist_quantile(h, 0.9) < 32)
        self.assertTrue(1024 <= reduce.hist_quantile(h, 0.999) <= 2048)
        self.assertEqual(reduce.hist_quantile({"buckets": []}, 0.5), 0.0)


class SpanStatsTest(unittest.TestCase):
    def test_nested_self_time(self):
        s = reduce.span_stats([
            ev("outer", 0, 100),
            ev("inner", 10, 30),
            ev("leaf", 15, 5),
            ev("inner", 50, 20),
        ])
        self.assertEqual(s["c/outer"]["count"], 1)
        self.assertEqual(s["c/outer"]["self_us"], 50)
        self.assertEqual(s["c/inner"]["count"], 2)
        self.assertEqual(s["c/inner"]["total_us"], 50)
        self.assertEqual(s["c/inner"]["self_us"], 45)
        self.assertEqual(s["c/leaf"]["self_us"], 5)

    def test_threads_do_not_nest_across(self):
        s = reduce.span_stats([
            ev("outer", 0, 100, tid=1),
            ev("work", 10, 80, tid=2),
            ev("work", 20, 10, tid=3),
        ])
        self.assertEqual(s["c/outer"]["self_us"], 100)
        self.assertEqual(s["c/work"]["count"], 2)
        self.assertEqual(s["c/work"]["self_us"], 90)

    def test_child_past_parent_end_is_clipped(self):
        s = reduce.span_stats([
            ev("parent", 0, 50),
            ev("child", 40, 30),   # runs 10 past the parent's end
            ev("after", 60, 5),    # starts inside the child only
        ])
        self.assertEqual(s["c/parent"]["self_us"], 40)
        self.assertEqual(s["c/child"]["self_us"], 25)
        self.assertEqual(s["c/after"]["self_us"], 5)

    def test_same_start_and_zero_duration(self):
        s = reduce.span_stats([
            ev("child", 0, 10),
            ev("parent", 0, 20),
            ev("tick", 20, 0),
        ])
        self.assertEqual(s["c/parent"]["self_us"], 10)
        self.assertEqual(s["c/child"]["self_us"], 10)
        self.assertEqual(s["c/tick"]["count"], 1)
        self.assertEqual(s["c/tick"]["self_us"], 0)

    def test_category_is_part_of_the_key(self):
        s = reduce.span_stats([ev("load", 0, 10, cat="store"),
                               ev("load", 20, 10, cat="bench")])
        self.assertEqual(set(s), {"store/load", "bench/load"})

    def test_non_complete_events_ignored(self):
        s = reduce.span_stats([{"name": "m", "ph": "M", "tid": 1}])
        self.assertEqual(s, {})


class MetricTableTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END.items()))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, _ in run.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
