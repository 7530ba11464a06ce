"""Order statistics behind the benchmark's end-to-end metrics."""

from __future__ import annotations

import math
import statistics

import numpy as np


def nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by nearest rank: a sample."""
    n = len(sorted_values)
    k = max(1, math.ceil(q * n / 100))
    return float(sorted_values[k - 1])


def tail_percentile(values, min_beyond: int = 10, max_q: int = 99):
    """``(q, value, n)`` for the highest integer percentile ``q <= max_q``
    that has at least ``min_beyond`` samples ranked beyond it.

    With ``n <= min_beyond`` samples no percentile qualifies; the result
    is then ``(None, max, n)`` and callers print it as the maximum.
    Unassigned requests enter as ``inf``, so they miss every limit.
    """
    s = np.sort(np.asarray(values, dtype=np.float64))
    n = s.size
    if n == 0:
        return None, math.nan, 0
    for q in range(max_q, 0, -1):
        k = math.ceil(q * n / 100)
        if n - k >= min_beyond:
            return q, float(s[k - 1]), n
    return None, float(s[-1]), n


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the steadiness rule reads them."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf

