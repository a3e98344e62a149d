"""Structured refresh traces: a thread-safe tracer with nested spans.

One refresh decomposes into a span tree::

    refresh
    └── scan_group            (one per (table, normalized filter))
        ├── cache_lookup      (scan-group cache probe)
        ├── shared_scan       (one materialization + fused queries)
        ├── multiplan_pass    (one combined finest-grouping pass)
        ├── shard[i]          (one per row-range shard task)
        ├── rollup_merge      (partial-aggregate re-aggregation)
        └── fallback          (one per unbatchable query)

Parentage propagates through :mod:`contextvars`, so spans opened on
:class:`~repro.concurrency.pool.WorkerPool` threads still nest under
the refresh that submitted them — pool tasks are wrapped with
:meth:`Tracer.bind`, which captures the submitting thread's context
and records queue-wait (submit → run start) as a span attribute.
Sharded group runs additionally carry an explicit parent span across
threads (the group span opens at plan time on the calling thread; each
shard task parents its span to it directly).

**The disabled path is the default and costs one attribute load.**
Instrumentation sites are all guarded by::

    tracer = _trace.ACTIVE
    if tracer is not None: ...

``ACTIVE`` is a module global that is ``None`` unless a
:class:`~repro.telemetry.Telemetry` bundle is installed, so untraced
execution allocates nothing and takes the exact pre-telemetry code
path — the byte-identity and overhead tests in
``tests/test_telemetry.py`` pin that contract.

Alongside spans, the tracer carries the **query-tier side channel**:
every execution path that answers a query tags its canonical SQL with
the tier that answered it (``cache`` / ``multiplan`` / ``sharded`` /
``shared_scan`` / ``fallback``), which is what
:meth:`repro.facade.Session.explain` reports per visualization.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: The process-wide active tracer, or ``None`` (the default: tracing
#: off). Instrumentation sites read this one module attribute and
#: branch; install via :class:`repro.telemetry.Telemetry`.
ACTIVE: "Tracer | None" = None

#: The current span, per logical context. Worker threads inherit it
#: through :meth:`Tracer.bind`'s ``copy_context`` capture.
_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_telemetry_span", default=None
)

#: Queue-wait (ms) measured by :meth:`Tracer.bind`, consumed as an
#: attribute by the next span the bound task opens.
_QUEUE_WAIT: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "repro_telemetry_queue_wait", default=None
)


@dataclass
class Span:
    """One timed region of a refresh, with parentage and attributes.

    ``start_ms``/``end_ms`` are relative to the owning tracer's epoch
    (``perf_counter`` based — monotonic, comparable across threads).
    ``end_ms`` is ``None`` while the span is open; a finished trace
    must have none (the export validator checks).
    """

    span_id: int
    parent_id: int | None
    name: str
    start_ms: float
    end_ms: float | None = None
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> float | None:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms


class Tracer:
    """Thread-safe span recorder plus the query-tier side channel.

    All mutation is lock-guarded; spans append in open order. The
    recorded list is unbounded by design — a tracer's lifetime is one
    traced run (a CLI invocation, one ``Session.explain``), not the
    process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._tiers: dict[str, str] = {}

    def _now_ms(self) -> float:
        return (time.perf_counter() - self._epoch) * 1000.0

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, parent: Span | None = None, **attrs) -> Span:
        """Open a span explicitly; pair with :meth:`finish`.

        ``parent=None`` parents to the context's current span. The
        explicit form exists for spans whose lifetime crosses threads
        (a sharded group's span opens at plan time on the caller and
        closes in the merge step); prefer :meth:`span` elsewhere.
        """
        if parent is None:
            parent = _CURRENT.get()
        wait = _QUEUE_WAIT.get()
        if wait is not None:
            _QUEUE_WAIT.set(None)  # first span after dequeue claims it
            attrs.setdefault("queue_wait_ms", round(wait, 3))
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_ms=self._now_ms(),
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        with self._lock:
            self._spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close an explicitly opened span."""
        span.end_ms = self._now_ms()

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs):
        """Open a span for the duration of the ``with`` body.

        The span becomes the context's current span inside the body,
        so nested instrumentation parents correctly — including on
        worker threads entered via :meth:`bind`.
        """
        opened = self.begin(name, parent=parent, **attrs)
        token = _CURRENT.set(opened)
        try:
            yield opened
        finally:
            _CURRENT.reset(token)
            self.finish(opened)

    def bind(self, fn):
        """Wrap a pool task so the submitter's span context travels.

        Captures ``contextvars.copy_context()`` at bind time (i.e. at
        submission) and stamps the elapsed submit→run delay into the
        first span the task opens as ``queue_wait_ms`` — the
        queue-wait vs run-time split per task. Each bound callable is
        run at most once (a copied context cannot be re-entered);
        the executors bind one wrapper per task.
        """
        ctx = contextvars.copy_context()
        submitted = time.perf_counter()

        def bound(*args, **kwargs):
            wait_ms = (time.perf_counter() - submitted) * 1000.0
            return ctx.run(self._run_bound, fn, wait_ms, args, kwargs)

        return bound

    def _run_bound(self, fn, wait_ms: float, args, kwargs):
        _QUEUE_WAIT.set(wait_ms)
        try:
            return fn(*args, **kwargs)
        finally:
            _QUEUE_WAIT.set(None)

    # -- query tiers --------------------------------------------------------

    def tag_query(self, sql: str, tier: str) -> None:
        """Record which execution tier answered ``sql`` (last wins).

        Sites tag in execution order, outermost first, so the innermost
        layer that actually answered lands last: a fallback loop tags
        ``fallback`` *before* delegating, and a cache hit inside the
        delegate overrides it with ``cache``.
        """
        with self._lock:
            self._tiers[sql] = tier

    @property
    def query_tiers(self) -> dict[str, str]:
        """Canonical SQL → answering tier, for every tagged query."""
        with self._lock:
            return dict(self._tiers)

    # -- inspection ---------------------------------------------------------

    def spans(self) -> list[Span]:
        """Every recorded span, in open order (snapshot copy)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


__all__ = ["ACTIVE", "Span", "Tracer"]
