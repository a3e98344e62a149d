"""Engine instrumentation for tests and benchmarks.

Not part of the execution path: wrappers here observe engine traffic so
the test suite and the examples can verify optimizer claims (scan
counts) at the engine boundary instead of trusting an executor's
self-reported statistics. Both derive from
:class:`~repro.engine.interface.EngineWrapper` and override only the
calls they observe; everything else forwards to the wrapped engine.
"""

from __future__ import annotations

import threading
import time

from repro.engine.batch import TEMP_PREFIX
from repro.engine.interface import Engine, EngineWrapper, ResultSet
from repro.sql.ast import Query


class CountingEngine(EngineWrapper):
    """Transparent wrapper counting executions per FROM table.

    Counter updates are mutex-guarded so the wrapper can instrument a
    worker pool's traffic without dropping increments.
    """

    def __init__(self, inner: Engine) -> None:
        super().__init__(inner)
        # repro: allow(RA106) — counter guard for the test/bench scan
        # instrumentation; spawns no threads.
        self._lock = threading.Lock()
        self.name = f"counting({inner.name})"
        self.scans: dict[str, int] = {}
        #: Subset of ``scans``: materializations that carried a row
        #: range, i.e. per-shard base scans of sharded execution.
        self.shard_scans: dict[str, int] = {}

    def base_scans(self) -> int:
        """Executions that read a base (non-temporary) table."""
        with self._lock:
            return sum(
                count
                for table, count in self.scans.items()
                if not table.startswith(TEMP_PREFIX)
            )

    def reset(self) -> None:
        with self._lock:
            self.scans.clear()
            self.shard_scans.clear()

    def materialize_filtered(
        self, name, source: str, predicate, row_range=None
    ) -> bool:
        done = super().materialize_filtered(name, source, predicate, row_range)
        if done:
            # A native shared scan reads the base table once; a sharded
            # scan reads one row range, counted per shard so tests
            # can pin per-shard scan counts.
            with self._lock:
                self.scans[source] = self.scans.get(source, 0) + 1
                if row_range is not None:
                    self.shard_scans[source] = (
                        self.shard_scans.get(source, 0) + 1
                    )
        return done

    def execute(self, query: Query) -> ResultSet:
        with self._lock:
            for table in query.table_names():  # joins scan every table
                self.scans[table] = self.scans.get(table, 0) + 1
        return super().execute(query)


class DispatchLatencyEngine(EngineWrapper):
    """Adds a fixed per-call latency, modeling a remote DBMS round trip.

    The engines here are in-process, but the deployments the paper
    benchmarks stand in for are client/server: every query crosses a
    network. This wrapper charges that round trip (a GIL-releasing
    sleep) on each ``execute``/``materialize_filtered`` call, which is
    what makes concurrency benchmarks honest on machines where
    CPU-bound work cannot overlap — latency overlap is real on any core
    count, and it is the dominant win for interactive dashboards.

    The wrapper is thread-safe regardless of its inner engine: round
    trips overlap freely, while calls into a non-thread-safe engine
    serialize because the wrapper's ``inner`` is that engine's
    slot-gating wrapper (:func:`repro.concurrency.policy.slot_gated`) —
    the same leaf discipline :class:`~repro.engine.cache.CachedEngine`
    uses.
    """

    thread_safe = True
    #: Round trips overlap even when compute cannot, so scheduling
    #: extra workers at a latency-bound engine is always profitable.
    parallel_scans = True

    def __init__(self, inner: Engine, latency_ms: float) -> None:
        from repro.concurrency.policy import slot_gated

        super().__init__(slot_gated(inner))
        self.latency_ms = max(0.0, latency_ms)
        self._latency_s = self.latency_ms / 1000.0

    def _round_trip(self) -> None:
        if self._latency_s > 0.0:
            time.sleep(self._latency_s)

    def materialize_filtered(
        self, name, source: str, predicate, row_range=None
    ) -> bool:
        self._round_trip()  # every shard's scan pays its own round trip
        return super().materialize_filtered(name, source, predicate, row_range)

    def execute(self, query: Query) -> ResultSet:
        self._round_trip()
        return super().execute(query)
