"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # a percentile is reported only with this many samples past it


def percentile(values, p: float):
    """Nearest-rank p-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it (the tail is then not resolved by the run)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return float(xs[rank - 1])


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
