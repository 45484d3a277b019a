"""Statistics shared by every perfbench metric.

Medians and quartiles follow Python's ``statistics`` module (the same
``quantiles(values, n=4)`` a reader would use to judge spread), a
percentile is nearest-rank and is withheld when fewer than ten samples
lie beyond it, and a span's self time is its duration minus the part
of it that its child spans cover.
"""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(first quartile, third quartile), as statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


MIN_TAIL = 10


def percentile(values, p):
    """Nearest-rank p-th percentile and the sample count, or None when
    fewer than MIN_TAIL samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(p * n / 100.0))
    if n - rank < MIN_TAIL:
        return None
    return sorted(values)[rank - 1], n


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """{span id: self time} for spans given as dicts with id, parent,
    start and end. Children are clipped to their parent's interval, and
    overlapping children (other threads) are counted once."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        lo = max(s["start"], parent["start"])
        hi = min(s["end"], parent["end"])
        if hi > lo:
            children.setdefault(parent["id"], []).append((lo, hi))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered_length(children.get(s["id"], []))
        for s in spans
    }
