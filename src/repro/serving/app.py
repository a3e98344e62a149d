"""The dashboard server's core: sessions, admission, cache, accounting.

:class:`ServingApp` is the transport-independent server — everything
:mod:`repro.serving.server` does over HTTP and the load generator does
in-process goes through these methods, so the protocol tests and the
soak exercise the same code path.

Request anatomy (the span parentage the telemetry tests pin)::

    request{kind,tenant}                 admission slot held
    └── session{session,dashboard}       per-session lock held
        └── refresh                      DashboardState.refresh (on miss)
            └── scan_group ...           the PR-7 execution span tree

Accounting lands in one :class:`~repro.telemetry.MetricsRegistry`
(either the provided bundle's or the app's own): ``serving.sessions``
(gauge, total and per tenant), ``serving.queue_depth`` /
``serving.in_flight`` (gauges), ``serving.latency_ms{tenant=}``
(histogram), ``serving.requests`` / ``serving.rejected`` /
``serving.errors`` counters, and the cross-session cache hit rate via
``serving.cache.{hits,misses}``.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack

from repro.dashboard.spec import DashboardSpec
from repro.engine.interface import QueryResult
from repro.engine.table import Table
from repro.errors import ConfigError
from repro.execution import ExecutionPolicy
from repro.serving.admission import AdmissionController
from repro.serving.config import ServingConfig
from repro.serving.protocol import decode_interaction
from repro.serving.registry import EngineHost, ServedSession, SessionRegistry
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry import trace as _trace


class ServingApp:
    """A long-lived multi-tenant dashboard server (transport-free core).

    Owns the engine hosts, the session registry, and the admission
    controller; every request method is thread-safe and callable from
    any transport. With a :class:`~repro.telemetry.Telemetry` bundle,
    :meth:`start` activates it process-wide (the unscoped form — a
    threaded server cannot use the scoped ``install()``), giving every
    request the full ``request → session → refresh`` span tree.
    """

    def __init__(
        self,
        config: ServingConfig | None = None,
        telemetry: Telemetry | None = None,
        default_engine: str = "sqlite",
        default_policy: ExecutionPolicy | str | None = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config or ServingConfig()
        self.telemetry = telemetry
        self.metrics: MetricsRegistry = (
            telemetry.registry if telemetry is not None else MetricsRegistry()
        )
        self.default_engine = default_engine
        self.default_policy = default_policy
        self.clock = clock
        self.registry = SessionRegistry(
            session_ttl=self.config.session_ttl,
            max_sessions_per_tenant=self.config.max_sessions_per_tenant,
            clock=clock,
        )
        self.admission = AdmissionController(self.config, clock=clock)
        self._lock = threading.Lock()
        self._hosts: dict[str, EngineHost] = {}
        self._tables: dict[str, Table] = {}
        self._specs: dict[str, DashboardSpec] = {}
        self._errors = 0  # unexpected failures (the soak's "5xx" count)
        self._stop = threading.Event()
        self._sweeper: threading.Thread | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServingApp":
        """Activate telemetry and the background TTL sweeper; chainable."""
        if self.telemetry is not None:
            self.telemetry.activate()
        if self._sweeper is None:
            self._sweeper = threading.Thread(
                target=self._sweep_loop, name="serving-sweeper", daemon=True
            )
            self._sweeper.start()
        return self

    def close(self) -> None:
        """Stop sweeping, close every session and host. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=5.0)
            self._sweeper = None
        self.registry.close_all()
        with self._lock:
            hosts, self._hosts = list(self._hosts.values()), {}
        for host in hosts:
            host.close()
        if self.telemetry is not None:
            self.telemetry.deactivate()

    def __enter__(self) -> "ServingApp":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self.config.sweep_interval):
            try:
                self.sweep()
            except Exception as exc:  # pragma: no cover - must not die
                self.count_fault(exc)

    def sweep(self) -> list[str]:
        """One TTL sweep (also runs opportunistically on create)."""
        expired = self.registry.sweep()
        if expired:
            self._publish_sessions()
        return expired

    # -- data & dashboards (owner-side, not tenant-facing) -------------------

    def load_table(self, table: Table) -> "ServingApp":
        """Load (or replace) a table in every engine host; chainable.

        A replace moves the table's generation on each host's engine, so
        no later refresh reads the old table's cached results, and
        resets dependent dashboard states on their next request,
        mirroring :meth:`repro.facade.Session.load`.
        """
        with self._lock:
            self._tables[table.name] = table
            hosts = list(self._hosts.values())
        for host in hosts:
            host.load_table(table)
        return self

    def register_dashboard(self, dashboard) -> DashboardSpec:
        """Make a dashboard spec servable (spec object or library name)."""
        if isinstance(dashboard, str):
            from repro.dashboard.library import load_dashboard

            dashboard = load_dashboard(dashboard)
        if not isinstance(dashboard, DashboardSpec):
            raise ConfigError(
                f"dashboard must be a DashboardSpec or library name, "
                f"got {dashboard!r}"
            )
        with self._lock:
            self._specs[dashboard.name] = dashboard
        return dashboard

    def host_for(self, engine: str) -> EngineHost:
        """The shared host for one engine kind, created on first use.
        A new host loads the app's tables under the app lock, so no
        caller gets it without them and a concurrent :meth:`load_table`
        lands after them."""
        with self._lock:
            host = self._hosts.get(engine)
            if host is None:
                host = EngineHost(engine, self.config.cache_capacity)
                for table in self._tables.values():
                    host.load_table(table)
                self._hosts[engine] = host
        return host

    # -- tenant-facing requests ----------------------------------------------

    def create_session(
        self,
        tenant: str,
        dashboard: str,
        engine: str | None = None,
        policy: ExecutionPolicy | str | None = None,
    ) -> dict:
        """Create a session; returns its descriptor (JSON-safe)."""
        with self._lock:
            spec = self._specs.get(dashboard)
        if spec is None:
            raise ConfigError(
                f"unknown dashboard {dashboard!r}; register it on the "
                f"app first"
            )
        host = self.host_for(engine or self.default_engine)
        session = self.registry.create(
            tenant,
            host,
            spec,
            policy if policy is not None else self.default_policy,
        )
        self.metrics.inc("serving.sessions_created", tenant=tenant)
        self._publish_sessions()
        return {
            "session_id": session.session_id,
            "tenant": tenant,
            "dashboard": spec.name,
            "engine": host.name,
            "policy": session.policy.describe(),
        }

    def close_session(self, session_id: str) -> dict:
        closed = self.registry.close(session_id)
        if closed:
            self._publish_sessions()
        return {"session_id": session_id, "closed": closed}

    def refresh(
        self, session_id: str, viz_ids=None
    ) -> dict[str, QueryResult]:
        """Serve one dashboard refresh through the cross-session cache."""
        session = self.registry.get(session_id)

        def run() -> dict[str, QueryResult]:
            state = session.state
            return session.host.cache.refresh(
                state, session.host.engine, viz_ids, session.policy
            )

        return self._request("refresh", session, run)

    def interact(self, session_id: str, interaction) -> tuple:
        """Apply one interaction; refresh and return its fan-out.

        ``interaction`` is an :class:`~repro.dashboard.state.Interaction`
        or its JSON encoding. Returns ``(affected_ids, results)``.
        """
        session = self.registry.get(session_id)
        decoded = decode_interaction(interaction)
        affected: list[str] = []

        def run() -> dict[str, QueryResult]:
            state = session.state
            affected.extend(state.apply_affected(decoded))
            if not affected:
                return {}
            return session.host.cache.refresh(
                state, session.host.engine, affected, session.policy
            )

        results = self._request("interact", session, run)
        return list(affected), results

    def describe_session(self, session_id: str) -> dict:
        """Attach: the session's descriptor plus its interaction state."""
        session = self.registry.get(session_id)
        return {
            "session_id": session.session_id,
            "tenant": session.tenant,
            "dashboard": session.spec.name,
            "engine": session.host.name,
            "policy": session.policy.describe(),
            "state_key": repr(session.state.state_key()),
        }

    # -- request plumbing ----------------------------------------------------

    def _request(self, kind: str, session: ServedSession, fn):
        """Admission + per-session serialization + spans + accounting."""
        start = time.perf_counter()
        try:
            with self.admission.slot(session.tenant):
                self._publish_pressure()
                with session.lock:
                    with ExitStack() as stack:
                        tracer = _trace.ACTIVE
                        if tracer is not None:
                            stack.enter_context(
                                tracer.span(
                                    "request", kind=kind,
                                    tenant=session.tenant,
                                )
                            )
                            stack.enter_context(
                                tracer.span(
                                    "session",
                                    session=session.session_id,
                                    dashboard=session.spec.name,
                                )
                            )
                        result = fn()
        except Exception as exc:
            from repro.errors import (
                AdmissionError,
                InteractionError,
                UnknownSessionError,
            )

            if isinstance(exc, AdmissionError):
                self.metrics.inc(
                    "serving.rejected", tenant=session.tenant
                )
            elif not isinstance(
                exc, (InteractionError, UnknownSessionError)
            ):
                self.count_fault(exc)  # a client error is not a server fault
            raise
        finally:
            self._publish_pressure()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.inc("serving.requests", tenant=session.tenant)
        self.metrics.observe("serving.latency_ms", elapsed_ms)
        self.metrics.observe(
            "serving.latency_ms", elapsed_ms, tenant=session.tenant
        )
        return result

    def _publish_sessions(self) -> None:
        self.metrics.set_gauge("serving.sessions", len(self.registry))
        for tenant, count in self.registry.by_tenant().items():
            self.metrics.set_gauge("serving.sessions", count, tenant=tenant)

    def _publish_pressure(self) -> None:
        self.metrics.set_gauge(
            "serving.queue_depth", self.admission.queue_depth
        )
        self.metrics.set_gauge(
            "serving.in_flight", self.admission.in_flight
        )

    def count_fault(self, exc: BaseException) -> None:
        """Count one unexpected failure (a 5xx) in ``errors``.

        Each exception counts once: the HTTP layer calls this for every
        500 it sends, and a fault raised inside :meth:`_request` has
        already been counted there.
        """
        if getattr(exc, "_serving_fault_counted", False):
            return
        exc._serving_fault_counted = True  # type: ignore[attr-defined]
        with self._lock:
            self._errors += 1
        self.metrics.inc("serving.errors")

    # -- introspection -------------------------------------------------------

    @property
    def error_count(self) -> int:
        """Unexpected failures so far (the soak's zero-5xx assertion)."""
        return self._errors

    def stats(self) -> dict:
        """One JSON-safe roll-up: sessions, admission, caches, metrics."""
        with self._lock:
            hosts = dict(self._hosts)
        caches = {}
        for name, host in hosts.items():
            cache_stats = host.cache.stats
            caches[name] = {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "refreshes": cache_stats.refreshes,
                "served_refreshes": cache_stats.served_refreshes,
                "hit_rate": round(cache_stats.hit_rate, 6),
                "refs": host.refs,
            }
        return {
            "sessions": self.registry.snapshot(),
            "by_tenant": self.registry.by_tenant(),
            "admission": self.admission.snapshot(),
            "caches": caches,
            "errors": self._errors,
            "metrics": self.metrics.snapshot(),
        }

    def healthz(self) -> dict:
        return {
            "status": "closed" if self._closed else "ok",
            "sessions": len(self.registry),
            "in_flight": self.admission.in_flight,
            "errors": self._errors,
        }


__all__ = ["ServingApp"]
