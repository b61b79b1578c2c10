"""Pure reductions behind the benchmark's metrics.

* percentile: nearest-rank percentile over samples where a failed
  operation (None) counts as +inf, so it misses every latency limit.
* windowed_percentile: the median, over consecutive windows of the
  samples, of each window's percentile.
* hist_diff / hist_quantile: the library's log2 histograms (metrics
  registry snapshots) between two snapshots, and a quantile inside them.
* span_stats: count, total and self time per span name of a Chrome
  trace.  Spans nest per thread; a span's self time is its duration
  minus the part of its interval covered by its direct children
  (clipped to the span, so a child running past its parent's end is
  not counted twice).

test_reduce.py covers each of them.
"""

import math
import statistics
from collections import defaultdict


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100); None counts as +inf."""
    xs = sorted(math.inf if v is None else v for v in values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def windowed_percentile(samples, p, windows=5, min_window=1000):
    """Median over up to `windows` consecutive windows of the p-th
    percentile of each.

    Samples come in arrival order.  Every window holds at least
    `min_window` samples (so a p99 has 10 beyond it); with fewer samples
    there is one window.  A host hiccup confined to one window then moves
    the result little, while a slowdown present in most windows shows.
    """
    k = max(1, min(windows, len(samples) // min_window))
    size = len(samples) / k
    return statistics.median(
        percentile(samples[round(i * size):round((i + 1) * size)], p)
        for i in range(k))


def hist_diff(after, before):
    """Histogram `after` minus `before` (same instrument, two snapshots).

    A histogram is the registry's {"count", "sum", "buckets": [[lo, n]...]}.
    """
    if before is None:
        before = {"count": 0, "sum": 0, "buckets": []}
    prior = {lo: n for lo, n in before["buckets"]}
    buckets = [[lo, n - prior.get(lo, 0)] for lo, n in after["buckets"]]
    return {
        "count": after["count"] - before["count"],
        "sum": after["sum"] - before["sum"],
        "buckets": [b for b in buckets if b[1] > 0],
    }


def hist_quantile(hist, q):
    """Quantile q (0..1) of a log2 histogram.

    Bucket lo=0 holds only 0; bucket lo>=1 holds [lo, 2*lo).  The value
    is interpolated linearly inside the bucket holding the target rank.
    """
    total = sum(n for _, n in hist["buckets"])
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for lo, n in sorted(hist["buckets"]):
        if seen + n >= target:
            if lo == 0:
                return 0.0
            return lo + lo * (target - seen) / n
        seen += n
    lo = max(lo for lo, _ in hist["buckets"])
    return float(2 * lo)


def _covered(intervals):
    """Length of the union of [start, end) intervals."""
    length = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                length += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        length += cur_end - cur_start
    return length


def span_stats(events):
    """{"cat/name": {"count", "total_us", "self_us"}} over complete events."""
    threads = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            threads[(e.get("pid"), e.get("tid"))].append(e)

    stats = {}

    def close(node):
        name, start, end, children = node
        s = stats.setdefault(name, {"count": 0, "total_us": 0.0, "self_us": 0.0})
        s["count"] += 1
        s["total_us"] += end - start
        s["self_us"] += max(0.0, end - start - _covered(children))

    for evs in threads.values():
        # Parents before children that start at the same instant.
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [name, start, end, child intervals]
        for e in evs:
            start = float(e["ts"])
            end = start + float(e["dur"])
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[3].append((start, min(end, parent[2])))
            stack.append([e.get("cat", "") + "/" + e["name"], start, end, []])
        while stack:
            close(stack.pop())
    return stats
