"""Unified telemetry: refresh traces, metrics, export, and EXPLAIN.

Zero-dependency observability for the whole execution stack. A
:class:`Telemetry` bundle pairs a :class:`~repro.telemetry.trace.Tracer`
(nested spans, propagated across worker threads) with a
:class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges,
p50/p95/p99 histograms); installing it flips the two module globals
every instrumentation site guards on::

    telemetry = Telemetry()
    with telemetry.install():
        session.refresh("customer_service")
    print(telemetry.registry.snapshot()["counters"])

Telemetry is **off by default**: uninstalled, every site costs one
module-attribute load and allocates nothing, so untraced execution is
byte- and timing-identical to the pre-telemetry stack (pinned by
``tests/test_telemetry.py``).

Consumers: ``repro.connect(..., telemetry=)`` scopes a bundle around
every session operation; ``Session.explain(dashboard)`` reports each
query's answering tier; ``--trace FILE`` on the harness and
logs-replay CLIs writes a Perfetto-loadable Chrome trace
(:mod:`repro.telemetry.export`);
:func:`~repro.telemetry.export.telemetry_snapshot` condenses a finished
bundle into one plain-JSON block.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.telemetry.explain import ExplainEntry, ExplainReport, build_explain
from repro.telemetry.export import (
    chrome_trace,
    telemetry_snapshot,
    validate_chrome_trace,
    validate_spans,
    validate_trace_file,
    write_chrome_trace,
)
from repro.telemetry.metrics import HistogramSummary, MetricsRegistry
from repro.telemetry.trace import Span, Tracer


class Telemetry:
    """One tracer + one metrics registry, installable as a unit.

    :meth:`install` is the scoped form (saves and restores whatever was
    active, so bundles nest — ``Session.explain`` relies on that to
    shadow a session-wide bundle for one refresh);
    :meth:`activate`/:meth:`deactivate` are the unscoped form for
    process-lifetime consumers like the ``--trace`` CLIs.

    The active bundle is process-global by design: spans must cross
    worker threads, so thread-local installation would sever exactly
    the propagation the tracer exists for. Two *concurrently installed*
    bundles would shadow each other; scope installs around one logical
    run.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.registry = MetricsRegistry()

    @contextmanager
    def install(self):
        """Make this bundle active for the ``with`` body (nestable)."""
        previous = (_trace.ACTIVE, _metrics.ACTIVE)
        _trace.ACTIVE = self.tracer
        _metrics.ACTIVE = self.registry
        try:
            yield self
        finally:
            _trace.ACTIVE, _metrics.ACTIVE = previous

    def activate(self) -> "Telemetry":
        """Make this bundle active until :meth:`deactivate` (chainable)."""
        _trace.ACTIVE = self.tracer
        _metrics.ACTIVE = self.registry
        return self

    def deactivate(self) -> None:
        """Deactivate whatever is active (idempotent)."""
        _trace.ACTIVE = None
        _metrics.ACTIVE = None

    @property
    def active(self) -> bool:
        """Whether this bundle is the currently installed one."""
        return _trace.ACTIVE is self.tracer

    def snapshot(self) -> dict:
        """Shorthand for :func:`~repro.telemetry.export.telemetry_snapshot`."""
        return telemetry_snapshot(self)


__all__ = [
    "ExplainEntry",
    "ExplainReport",
    "HistogramSummary",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "build_explain",
    "chrome_trace",
    "telemetry_snapshot",
    "validate_chrome_trace",
    "validate_spans",
    "validate_trace_file",
    "write_chrome_trace",
]
