"""Percentiles, run-to-run spreads and span self-time arithmetic."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the q-th percentile
    (the reporting rule wants ten)."""
    return n - max(1, math.ceil(q / 100.0 * n))


def range_spread(values) -> float:
    """(max - min) / median — the same-seed repeatability measure."""
    median = statistics.median(values)
    return (max(values) - min(values)) / median if median else 0.0


def iqr_spread(values) -> float:
    """(Q3 - Q1) / median with ``statistics.quantiles(n=4)`` — the
    measure the acceptance driver applies across ten seeds."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def self_times(spans) -> dict:
    """Self time per span id: duration minus what its children cover.

    ``spans`` yields ``(id, parent, start, end)``. Children may overlap
    one another (shard scans on two worker threads under one refresh)
    and may outlive the parent's interval (a task still draining when
    the submitter moved on), so the covered part is the *union* of the
    child intervals clipped to the parent — never their sum.
    """
    spans = list(spans)
    children: dict = {}
    for _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span_id] = (end - start) - covered
    return result
