"""LRU result caches, as an engine wrapper.

The paper's environment applies "no indexing or caching" (§6.2.2), yet
dashboard workloads are highly repetitive: toggling a checkbox off and
on re-emits a query the DBMS just answered. :class:`CachedEngine` wraps
any engine with an exact-match result cache keyed on the canonical SQL
text, making that design choice ablatable
(``benchmarks/bench_ablation_indexes_cache.py``).

Two cache layers cover the two execution modes:

- the **per-query cache** answers repeated single queries;
- the **scan-group cache** (:class:`ScanGroupCache`) answers whole
  batch groups — every result a shared scan produced, keyed by
  (table, generation, normalized predicate) — so a repeated dashboard refresh costs
  zero engine work until the data changes.

Both layers key every entry by the generation
(:meth:`~repro.engine.interface.Engine.table_version`) of each table it
read, read once before any engine work and used for the lookup, the
single-flight key and the store; a store whose generation is no longer
current is dropped. A result computed against replaced data can only
sit under a key no later caller asks for, so the purge that
``load_table`` and friends run after the inner call only reclaims
space. Queries against ``TEMP_PREFIX`` shared-scan relations (derived
data, alive inside one batch execution) are never cached.

Thread-safety: the wrapper is safe to hammer from a worker pool
(``thread_safe = True``). Its own structures are mutex-guarded; calls
into a non-thread-safe inner engine go through
:func:`~repro.concurrency.policy.slot_gated` and so serialize on that
engine's execution slot (version reads excepted); and concurrent misses
on the same SQL at the same generations collapse to one inner execution
(single-flight).

The caches are transparent: results are returned as fresh
:class:`~repro.engine.interface.ResultSet` instances (rows are immutable
tuples, so sharing them is safe).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable

from repro.engine.batch import TEMP_PREFIX
from repro.engine.interface import (
    Engine,
    EngineWrapper,
    QueryResult,
    ResultSet,
)
from repro.engine.table import Table
from repro.errors import ConfigError
from repro.sql.ast import Query
from repro.sql.formatter import format_query
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace


class ScanGroupCache:
    """LRU cache of whole batch scan groups.

    One entry per (table, generation, normalized predicate) holds every
    member result the group's shared scan produced, keyed by canonical
    SQL; a later batch may add members to an existing group.
    ``versions`` is the owning engine's
    :meth:`~repro.engine.interface.Engine.table_version`: a caller reads
    :meth:`epoch` once, before any engine work, and passes it to
    :meth:`lookup` and :meth:`store`, which drops a store whose
    generation is no longer current (or ``None``). All operations are
    mutex-guarded; ``versions`` runs under the mutex, which the engine
    contract makes safe (it never blocks).
    """

    #: Member results retained per group; a long-lived session batching
    #: ever-varying SELECT shapes under one filter stays bounded.
    MAX_MEMBERS_PER_GROUP = 64

    def __init__(
        self, versions: Callable[[str], int | None], capacity: int = 128
    ) -> None:
        if capacity <= 0:
            raise ConfigError("scan-group cache capacity must be positive")
        self._versions = versions
        self._capacity = capacity
        # repro: allow(RA106) — leaf lock guarding the LRU map only
        # (ARCHITECTURE §8); never held across engine work, no threads
        # are created here.
        self._lock = threading.RLock()
        self._groups: OrderedDict[
            tuple[str, int, str], dict[str, ResultSet]
        ] = OrderedDict()

    @property
    def size(self) -> int:
        """Number of cached scan groups."""
        with self._lock:
            return len(self._groups)

    def keys(self) -> list[tuple[str, int, str]]:
        """Every cached ``(table, generation, predicate key)``, LRU first."""
        with self._lock:
            return list(self._groups)

    def epoch(self, table: str) -> int | None:
        """The table's current generation; read it before computing."""
        return self._versions(table)

    def lookup(
        self, table: str, predicate_key: str, epoch: int | None
    ) -> dict[str, ResultSet]:
        """The group's results at generation ``epoch`` (empty when
        absent), as a shallow copy callers cannot corrupt it through."""
        key = (table, epoch, predicate_key)
        with self._lock:
            entry = self._groups.get(key)
            if entry is None:
                return {}
            self._groups.move_to_end(key)
            return dict(entry)

    def store(
        self,
        table: str,
        predicate_key: str,
        results: dict[str, ResultSet],
        epoch: int | None,
    ) -> None:
        """Add one group's results, merging into any existing entry.

        Dropped when ``epoch`` is no longer the table's generation: the
        results were computed against data that has since been replaced.
        """
        with self._lock:
            if epoch is None or epoch != self._versions(table):
                return
            key = (table, epoch, predicate_key)
            entry = self._groups.get(key)
            if entry is None:
                entry = {}
                self._groups[key] = entry
            for sql, result in results.items():
                entry.pop(sql, None)  # re-store refreshes recency
                entry[sql] = ResultSet(result.columns, result.rows)
            while len(entry) > self.MAX_MEMBERS_PER_GROUP:
                del entry[next(iter(entry))]  # drop least-recently stored
            self._groups.move_to_end(key)
            while len(self._groups) > self._capacity:
                self._groups.popitem(last=False)

    def purge_table(self, name: str) -> None:
        """Drop every group of ``name`` at a superseded generation."""
        with self._lock:
            current = self._versions(name)
            stale = [
                key
                for key in self._groups
                if key[0] == name and key[1] != current
            ]
            for key in stale:
                del self._groups[key]

    def clear(self) -> None:
        with self._lock:
            self._groups.clear()


class CachedEngine(EngineWrapper):
    """Exact-match LRU result cache in front of another engine.

    ``inner`` is :func:`~repro.concurrency.policy.slot_gated` of the
    wrapped engine, so every call into a non-thread-safe engine takes
    that engine's execution slot.
    """

    thread_safe = True

    def __init__(self, inner: Engine, capacity: int = 256) -> None:
        from repro.concurrency.policy import slot_gated
        from repro.concurrency.singleflight import SingleFlight

        if capacity <= 0:
            raise ConfigError("cache capacity must be positive")
        super().__init__(slot_gated(inner))
        self._capacity = capacity
        # repro: allow(RA106) — leaf lock over the per-query LRU;
        # queries execute outside it via single-flight (RA101 checks
        # that stays true).
        self._lock = threading.RLock()
        #: (sql text, ((table, generation) per table read)) -> result
        self._entries: OrderedDict[
            tuple[str, tuple[tuple[str, int], ...]], ResultSet
        ] = OrderedDict()
        # A scan group bundles several member results, so it gets a
        # proportionally smaller entry budget than the LRU.
        self._scan_groups = ScanGroupCache(
            self._inner.table_version, max(1, capacity // 2)
        )
        self._batch_executor = None
        self._flight = SingleFlight()
        self._group_flight = SingleFlight()
        self.hits = 0
        self.misses = 0
        self.name = f"cached({inner.name})"

    @property
    def size(self) -> int:
        """Number of cached result sets."""
        with self._lock:
            return len(self._entries)

    @property
    def scan_groups(self) -> ScanGroupCache:
        """The batch-mode scan-group cache."""
        return self._scan_groups

    @property
    def hit_rate(self) -> float:
        """Fraction of executed queries answered without inner work."""
        with self._lock:
            total = self.hits + self.misses
            if total == 0:
                return 0.0
            return self.hits / total

    def _generations(self, tables) -> tuple[tuple[str, int], ...] | None:
        """``(table, generation)`` per table read; ``None`` (never
        cached) for a shared-scan temp — one batch's transient relation
        — or a table without a generation."""
        if any(t.startswith(TEMP_PREFIX) for t in tables):
            return None
        pins = tuple((t, self._inner.table_version(t)) for t in sorted(tables))
        return None if any(v is None for _, v in pins) else pins

    def _purge_table(self, name: str) -> None:
        """Reclaim both caches' entries at a superseded ``name`` generation."""
        if name.startswith(TEMP_PREFIX):
            return
        current = self._inner.table_version(name)
        with self._lock:
            stale = [
                key
                for key in self._entries
                if any(t == name and v != current for t, v in key[1])
            ]
            for key in stale:
                del self._entries[key]
        self._scan_groups.purge_table(name)

    def load_table(self, table: Table) -> None:
        super().load_table(table)
        self._purge_table(table.name)

    def unload_table(self, name: str) -> None:
        super().unload_table(name)
        self._purge_table(name)

    def materialize_filtered(
        self, name, source: str, predicate, row_range=None
    ) -> bool:
        # Writing to ``name`` replaces it like a load would.
        done = super().materialize_filtered(name, source, predicate, row_range)
        self._purge_table(name)
        return done

    def execute(self, query: Query) -> ResultSet:
        tables = frozenset(query.table_names())
        pins = self._generations(tables)
        if pins is None:
            return self._inner.execute(query)
        # With the generations in the key, a caller arriving after a
        # reload neither hits nor rides a flight of pre-reload data.
        key = (format_query(query), pins)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._record_hit(key[0])
                return ResultSet(cached.columns, cached.rows)

        def compute() -> ResultSet:
            result = self._inner.execute(query)
            with self._lock:
                self.misses += 1
                registry = _metrics.ACTIVE
                if registry is not None:
                    registry.inc("cache.misses")
                if self._generations(tables) == pins:
                    self._entries[key] = ResultSet(result.columns, result.rows)
                    if len(self._entries) > self._capacity:
                        self._entries.popitem(last=False)  # evict LRU
            return result

        result, leader = self._flight.do(key, compute)
        if leader:
            return result
        # A follower rode the leader's computation: no inner work.
        with self._lock:
            self.hits += 1
            self._record_hit(key[0])
        return ResultSet(result.columns, result.rows)

    @staticmethod
    def _record_hit(key: str) -> None:
        """Publish one per-query cache hit (keeps the public counters).

        Tagging here — *after* an outer layer pre-tagged its own tier —
        is what lets EXPLAIN attribute the query to ``cache``: the
        last tag wins, and a hit is always the innermost answer.
        """
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.inc("cache.hits")
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.tag_query(key, "cache")

    def execute_batch(
        self, queries: list[Query], policy=None
    ) -> list[QueryResult]:
        """Batch execution with whole-scan-group caching.

        A repeated dashboard refresh (same table, same filters, same
        component queries) is answered entirely from the scan-group
        cache until a scanned table's generation moves. The
        executor runs against the *inner* engine so merged/fetch
        queries — whose SQL no caller ever issues directly — don't
        evict useful entries from the per-query LRU. ``policy`` picks
        the strategy per call: with ``workers``, independent scan
        groups overlap and concurrent identical refreshes single-flight
        into one computation; with ``shards``, shardable groups fan
        their base scans out per row-range shard (:mod:`repro.sharding`), the
        rolled-up results landing in the same scan-group cache; with
        ``multiplan``, an unfiltered group's fusion classes evaluate in
        one combined pass (:mod:`repro.engine.multiplan`), every
        per-plan result still cached under its own SQL. A
        ``batch=False`` policy takes :meth:`Engine.execute_batch`'s
        per-query dispatch through the wrapper itself, so the per-query
        LRU keeps answering repeats.
        """
        from repro.execution import coerce_policy

        policy = coerce_policy(policy)
        if not policy.batch:
            return super().execute_batch(queries, policy)
        with self._lock:
            if self._batch_executor is None:
                from repro.concurrency.executor import ScanGroupExecutor

                self._batch_executor = ScanGroupExecutor(
                    self._inner,
                    group_cache=self._scan_groups,
                    fallback_engine=self,  # unbatchable queries keep the LRU
                    group_flight=self._group_flight,
                )
            executor = self._batch_executor
        return executor.run(queries, policy).results

    @property
    def batch_stats(self):
        """Cumulative shared-scan statistics (None before first batch)."""
        if self._batch_executor is None:
            return None
        return self._batch_executor.stats

    def invalidate(self) -> None:
        """Drop every cached result (keeps hit/miss counters)."""
        with self._lock:
            self._entries.clear()
        self._scan_groups.clear()

    def close(self) -> None:
        self.invalidate()
        super().close()
