"""Small arithmetic shared by the runner, the tracer and the steadiness tool."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, ``q`` in (0, 1].

    The smallest value with at least ``ceil(q * n)`` observations at or
    below it.
    """
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"q must be a fraction in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(sorted_values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the nearest-rank ``q`` percentile."""
    cut = percentile(sorted_values, q)
    return sum(1 for v in sorted_values if v > cut)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: int, end: int, children: List[Tuple[int, int]]) -> int:
    """A span's duration minus the part of it its children cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - covered(clipped)
