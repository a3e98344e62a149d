"""Metrics registry: counters, gauges, histograms with percentiles.

The registry is the single sink the previously scattered counters
publish into when telemetry is on:

- :meth:`~repro.engine.interface.Engine.execute_timed` observes every
  query's ``duration_ms`` into the ``engine.query_ms`` histogram
  (labeled by engine name);
- the sharded executor observes each shard's materialization time into
  ``shard.scan_ms``;
- :class:`~repro.engine.cache.CachedEngine` increments ``cache.hits``
  / ``cache.misses`` (its public fields are unchanged);
- every batch execution folds its
  :class:`~repro.engine.batch.BatchStats` delta into ``batch.*``
  counters (:meth:`MetricsRegistry.record_batch`);
- :class:`~repro.concurrency.pool.WorkerPool` sets per-worker task
  counts as ``pool.worker_tasks`` gauges (cumulative over the pool's
  life, which for the shared pools is the process's).

Like tracing (:mod:`repro.telemetry.trace`), publication is guarded by
the module-global ``ACTIVE``: ``None`` (the default) means every site
pays one attribute load and allocates nothing.

Keys are ``name`` plus optional labels, rendered as
``name{label=value,...}`` with labels sorted — stable across runs, so
snapshots diff cleanly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

#: The process-wide active registry, or ``None`` (metrics off).
ACTIVE: "MetricsRegistry | None" = None

#: BatchStats fields folded into ``batch.*`` counters, in field order.
_BATCH_FIELDS = (
    "queries",
    "groups",
    "base_scans",
    "shared_scans",
    "fused_queries",
    "cache_hits",
    "fallbacks",
    "sharded_groups",
    "shard_scans",
    "multiplan_groups",
    "multiplan_plans",
    "proc_shard_scans",
)


def metric_key(name: str, labels: dict[str, object]) -> str:
    """The registry key for ``name`` under ``labels`` (sorted, stable)."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


@dataclass
class HistogramSummary:
    """One histogram's snapshot: count, extremes, mean, percentiles."""

    count: int
    min: float
    max: float
    mean: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "mean": round(self.mean, 6),
            "p50": round(self.p50, 6),
            "p95": round(self.p95, 6),
            "p99": round(self.p99, 6),
        }


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * len(ordered) * 100) // 100))  # ceil(q*n)
    return ordered[min(rank, len(ordered)) - 1]


class MetricsRegistry:
    """Thread-safe counters, gauges, and histograms.

    Histograms keep raw samples (bounded by ``max_samples`` per series,
    oldest dropped) and summarize to p50/p95/p99 at snapshot time —
    exact percentiles at this system's sample volumes, no binning
    error.
    """

    def __init__(self, max_samples: int = 65536) -> None:
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

    # -- writers ------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` to a monotonically increasing counter."""
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a point-in-time value (last write wins)."""
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one histogram sample."""
        key = metric_key(name, labels)
        with self._lock:
            series = self._histograms.get(key)
            if series is None:
                series = []
                self._histograms[key] = series
            series.append(value)
            if len(series) > self._max_samples:
                del series[0]

    def record_batch(self, stats) -> None:
        """Fold one :class:`~repro.engine.batch.BatchStats` delta in."""
        with self._lock:
            for field_name in _BATCH_FIELDS:
                value = getattr(stats, field_name)
                if value:
                    key = f"batch.{field_name}"
                    self._counters[key] = self._counters.get(key, 0) + value

    # -- readers ------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0)

    def gauge(self, name: str, **labels) -> float | None:
        with self._lock:
            return self._gauges.get(metric_key(name, labels))

    def histogram(self, name: str, **labels) -> HistogramSummary | None:
        """The series' summary, or ``None`` when nothing was observed."""
        with self._lock:
            series = self._histograms.get(metric_key(name, labels))
            if not series:
                return None
            ordered = sorted(series)
        return HistogramSummary(
            count=len(ordered),
            min=ordered[0],
            max=ordered[-1],
            mean=sum(ordered) / len(ordered),
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
        )

    def snapshot(self) -> dict:
        """Plain-JSON view of everything recorded (sorted keys).

        The ``metrics`` block of
        :func:`repro.telemetry.export.telemetry_snapshot`::

            {"counters": {...}, "gauges": {...},
             "histograms": {name: {count,min,max,mean,p50,p95,p99}}}
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histogram_keys = list(self._histograms)
        histograms = {}
        for key in sorted(histogram_keys):
            with self._lock:
                series = sorted(self._histograms.get(key, ()))
            if not series:
                continue
            histograms[key] = HistogramSummary(
                count=len(series),
                min=series[0],
                max=series[-1],
                mean=sum(series) / len(series),
                p50=_percentile(series, 0.50),
                p95=_percentile(series, 0.95),
                p99=_percentile(series, 0.99),
            ).as_dict()
        return {
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "histograms": histograms,
        }


__all__ = [
    "ACTIVE",
    "HistogramSummary",
    "MetricsRegistry",
    "metric_key",
]
