"""Cross-session result cache: one tenant's refresh warms every co-tenant.

The serving tier multiplexes many user sessions over one shared engine
per storage backend. Most of those users look at the *same* dashboards
in the *same* states (the all-defaults initial render above all), so
the highest-leverage cache sits **above** the sessions: results keyed
exactly the way :class:`~repro.engine.cache.CachedEngine` keys scan
groups — ``(table, normalized predicate)`` → ``{canonical SQL:
result}`` — shared by every session on the host.

This module deliberately *reuses* the engine layer's
:class:`~repro.engine.cache.ScanGroupCache` rather than inventing a
second keying scheme: the keys come from the same
:func:`~repro.engine.planner.scan_signature` /
:func:`~repro.sql.formatter.format_query` pair the batch executor
groups by, so a result cached here is indistinguishable from one the
scan-group cache would have produced, and both are keyed by the same
table generation (:meth:`~repro.engine.interface.Engine.table_version`
of the host's engine).

Consistency contract (pinned by ``tests/test_serving.py`` and the
interleaving property test):

- **One generation per refresh.** A refresh reads each table's
  generation once, *before* any lookup or engine work, and uses it for
  its lookups, its single-flight key and its stores; a store whose
  generation moved mid-compute is dropped.
- **Single-flight across sessions.** Concurrent identical refreshes
  at the same generations — co-tenants hammering the same dashboard
  state — collapse to one engine execution; followers share the
  leader's (immutable) results, and a refresh that starts after a
  reload never rides a flight on the old table.
- **Join queries bypass.** Queries without a scan signature are never
  cached (mirroring the batch executor's fallback tier), so the cache
  can never serve a stale multi-table read.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.concurrency.singleflight import SingleFlight
from repro.engine.batch import _query_keys
from repro.engine.cache import ScanGroupCache
from repro.engine.interface import Engine, QueryResult, ResultSet
from repro.telemetry import metrics as _metrics


@dataclass(frozen=True)
class CacheStats:
    """Cumulative cross-session cache activity, cheap to print."""

    hits: int  # queries served without engine work
    misses: int  # queries that had to execute
    refreshes: int  # refresh requests observed
    served_refreshes: int  # refreshes answered entirely from cache

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class CrossSessionCache:
    """Refresh-level cache over one shared engine host.

    :meth:`refresh` is the serving tier's single read path: it serves
    whatever the group cache already holds, executes only the missing
    visualizations through the ordinary
    :meth:`~repro.dashboard.state.DashboardState.refresh` machinery
    (shared scans, shards, multiplan — whatever the tenant's policy
    says), and stores the fresh results for every co-tenant. Results
    are byte-identical to an uncached direct refresh: cached rows are
    the immutable tuples the engine produced. ``versions`` is the host
    engine's :meth:`~repro.engine.interface.Engine.table_version`.
    """

    def __init__(
        self, versions: Callable[[str], int | None], capacity: int = 128
    ) -> None:
        self._groups = ScanGroupCache(versions, capacity)
        self._flight = SingleFlight()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._refreshes = 0
        self._served_refreshes = 0

    # -- introspection -------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                refreshes=self._refreshes,
                served_refreshes=self._served_refreshes,
            )

    @property
    def groups(self) -> ScanGroupCache:
        """The underlying scan-group store (shared keying with the engine cache)."""
        return self._groups

    # -- the read path -------------------------------------------------------

    def refresh(
        self,
        state,
        engine: Engine,
        viz_ids=None,
        policy=None,
    ) -> dict[str, QueryResult]:
        """Serve one dashboard refresh through the cross-session cache.

        Returns timed results keyed by visualization id, exactly like
        :meth:`DashboardState.refresh`. Served entries carry the (tiny)
        lookup duration — the latency the *user* observed — while
        executed entries keep their engine timing.
        """
        ids = sorted(state.visualizations) if viz_ids is None else list(viz_ids)
        queries = {v: state.query_for(v) for v in ids}
        keys = {v: _query_keys(queries[v]) for v in ids}  # (sql, signature)
        # Read once, before any lookup or engine work: the lookups, the
        # flight key and the stores all use these generations.
        epochs = {
            signature.table: self._groups.epoch(signature.table)
            for _, signature in keys.values()
            if signature is not None
        }

        results: dict[str, QueryResult] = {}
        missing: list[str] = []
        for viz_id in ids:
            sql, signature = keys[viz_id]
            if signature is None:
                missing.append(viz_id)  # joins: never cross-session cached
                continue
            lookup_start = time.perf_counter()
            cached = self._groups.lookup(
                signature.table,
                signature.predicate_key,
                epochs[signature.table],
            ).get(sql)
            if cached is None:
                missing.append(viz_id)
                continue
            results[viz_id] = QueryResult(
                result=ResultSet(cached.columns, cached.rows),
                duration_ms=(time.perf_counter() - lookup_start) * 1000.0,
                engine=engine.name,
                sql=sql,
            )

        hits = len(ids) - len(missing)
        if not missing:
            self._account(hits, 0, served=True)
            return results

        # Only the missing visualizations execute. Keyed by generation
        # and the exact (viz, sql) set, co-tenants in one dashboard
        # state share one flight, and none rides a pre-reload one.
        flight_key = (
            tuple(sorted(epochs.items())),
            tuple(sorted((v, keys[v][0]) for v in missing)),
        )

        def compute() -> dict[str, QueryResult]:
            fresh = state.refresh(engine, viz_ids=missing, policy=policy)
            by_group: dict[tuple[str, str], dict[str, ResultSet]] = {}
            for viz_id, timed in fresh.items():
                sql, signature = keys[viz_id]
                if signature is None:
                    continue
                by_group.setdefault(
                    (signature.table, signature.predicate_key), {}
                )[sql] = timed.result
            for (table, predicate_key), members in by_group.items():
                self._groups.store(
                    table, predicate_key, members, epochs[table]
                )
            return fresh

        fresh, leader = self._flight.do(flight_key, compute)
        if leader:
            self._account(hits, len(missing), served=False)
        else:
            # A follower rode a co-tenant's computation: no engine work
            # happened on this session's behalf — every query was a
            # cross-session hit.
            self._account(hits + len(missing), 0, served=True)
            fresh = {
                viz_id: QueryResult(
                    result=ResultSet(
                        timed.result.columns, timed.result.rows
                    ),
                    duration_ms=timed.duration_ms,
                    engine=timed.engine,
                    sql=timed.sql,
                )
                for viz_id, timed in fresh.items()
            }
        results.update(fresh)
        return results

    def _account(self, hits: int, misses: int, served: bool) -> None:
        with self._lock:
            self._hits += hits
            self._misses += misses
            self._refreshes += 1
            if served:
                self._served_refreshes += 1
        registry = _metrics.ACTIVE
        if registry is not None:
            if hits:
                registry.inc("serving.cache.hits", hits)
            if misses:
                registry.inc("serving.cache.misses", misses)


__all__ = ["CacheStats", "CrossSessionCache"]
