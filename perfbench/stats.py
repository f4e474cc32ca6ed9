"""Summary statistics for timing samples.

Every timing is reported as its median, the highest percentile that has at
least ``TAIL_BEYOND`` samples beyond it, and the sample count.
"""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10
"""Samples that must lie beyond a percentile before it is reported."""

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def _rank(p: float, count: int) -> int:
    """Nearest rank ``ceil(p/100 * count)``, in integers (p in tenths)."""
    tenths = round(p * 10)
    return max(1, -(-tenths * count // 1000))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond it.

    With nearest-rank percentiles, ``count - ceil(p/100 * count)`` samples lie
    at or above the ``p``-th, not counting it.  ``None`` when even the median
    has fewer than ``TAIL_BEYOND`` samples beyond it (fewer than 20 samples).
    """
    best = None
    for p in PERCENTILE_LADDER:
        if count - _rank(p, count) >= TAIL_BEYOND:
            best = p
    return best


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> dict:
    """Median, tail percentile (or ``None``), quartiles and sample count."""
    p = tail_percentile(len(values))
    q1, _, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
        "q1": q1,
        "q3": q3,
        "count": len(values),
    }


def tail_or_median(values: Sequence[float]) -> float:
    """The tail percentile when the samples support one, else the median."""
    p = tail_percentile(len(values))
    return percentile(values, p) if p is not None else statistics.median(values)
