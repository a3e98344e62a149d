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
  (table, normalized predicate) — so a repeated dashboard refresh costs
  zero engine work until the data changes.

Invalidation is table-aware: ``load_table`` drops only the entries that
read the replaced table (join results name every table they touched).
Temporary shared-scan relations (``TEMP_PREFIX``) are exempt — they are
derived data, loaded and dropped inside a single batch execution — and
queries against them are never cached, so they can never go stale.

Thread-safety: the wrapper is safe to hammer from a worker pool
(``thread_safe = True``). Its own structures are mutex-guarded; calls
into a non-thread-safe inner engine serialize through that engine's
:func:`~repro.concurrency.policy.execution_slot`; concurrent misses on
the same SQL collapse to one inner execution (single-flight); and an
epoch counter closes the compute/invalidate race — a result computed
against pre-mutation data is never stored after the mutation
invalidated its table (the "lost invalidation" the stress tests guard).

The caches are transparent: results are returned as fresh
:class:`~repro.engine.interface.ResultSet` instances (rows are immutable
tuples, so sharing them is safe).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.engine.batch import TEMP_PREFIX
from repro.engine.interface import Engine, QueryResult, ResultSet
from repro.engine.table import Schema, Table
from repro.errors import ConfigError
from repro.sql.ast import Query
from repro.sql.formatter import format_query
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace


class ScanGroupCache:
    """LRU cache of whole batch scan groups.

    One entry per (table, normalized predicate) holds every member
    result the group's shared scan produced, keyed by canonical SQL.
    Entries fill incrementally: a later batch may add new member queries
    to an existing group. ``load_table`` on the owning engine must call
    :meth:`invalidate_table` — a mutated table silently serving stale
    group results is exactly the regression the cache tests guard.

    All operations are mutex-guarded; concurrent scan-group tasks may
    look up and store freely. Writers that computed against data that
    may have mutated mid-flight pass the :meth:`epoch` they observed
    before computing — a store whose table epoch has moved on is
    silently dropped rather than caching a stale group.
    """

    #: Member results retained per group; a long-lived session batching
    #: ever-varying SELECT shapes under one filter stays bounded.
    MAX_MEMBERS_PER_GROUP = 64

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ConfigError("scan-group cache capacity must be positive")
        self._capacity = capacity
        # repro: allow(RA106) — leaf lock guarding the LRU map only
        # (ARCHITECTURE §8); never held across engine work, no threads
        # are created here.
        self._lock = threading.RLock()
        self._groups: OrderedDict[
            tuple[str, str], dict[str, ResultSet]
        ] = OrderedDict()
        #: Per-table invalidation counters backing the epoch protocol.
        self._epochs: dict[str, int] = {}
        #: Cache-wide clears; part of every epoch so ``clear`` also
        #: fences tables that were never individually invalidated.
        self._clears = 0

    @property
    def size(self) -> int:
        """Number of cached scan groups."""
        with self._lock:
            return len(self._groups)

    def epoch(self, table: str) -> tuple[int, int]:
        """The table's invalidation epoch; capture before computing.

        Opaque to callers: compare for equality only. Moves when the
        table is invalidated *or* the whole cache is cleared.
        """
        with self._lock:
            return (self._clears, self._epochs.get(table, 0))

    def lookup(self, table: str, predicate_key: str) -> dict[str, ResultSet]:
        """The group's cached results by SQL text (empty when absent).

        Returns a shallow copy so callers cannot corrupt the entry.
        """
        with self._lock:
            entry = self._groups.get((table, predicate_key))
            if entry is None:
                return {}
            self._groups.move_to_end((table, predicate_key))
            return dict(entry)

    def store(
        self,
        table: str,
        predicate_key: str,
        results: dict[str, ResultSet],
        epoch: tuple[int, int] | None = None,
    ) -> None:
        """Add one group's results, merging into any existing entry.

        With ``epoch`` given, the store is dropped when the table was
        invalidated (or the cache cleared) since the caller captured it
        — the results were computed against data that no longer exists.
        """
        with self._lock:
            if epoch is not None and epoch != (
                self._clears,
                self._epochs.get(table, 0),
            ):
                return
            key = (table, predicate_key)
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

    def invalidate_table(self, name: str) -> None:
        """Drop every group that scanned ``name``."""
        with self._lock:
            self._epochs[name] = self._epochs.get(name, 0) + 1
            stale = [key for key in self._groups if key[0] == name]
            for key in stale:
                del self._groups[key]

    def clear(self) -> None:
        with self._lock:
            self._clears += 1
            self._groups.clear()


class CachedEngine(Engine):
    """Exact-match LRU result cache in front of another engine."""

    thread_safe = True

    def __init__(
        self,
        inner: Engine,
        capacity: int = 256,
        scan_group_capacity: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigError("cache capacity must be positive")
        self._inner = inner
        self._capacity = capacity
        # repro: allow(RA106) — leaf lock over the per-query LRU and
        # epoch counter; queries execute outside it via single-flight
        # (RA101 checks that stays true).
        self._lock = threading.RLock()
        #: Global invalidation counter; a per-query result computed
        #: before any table mutation is never stored after it.
        self._epoch = 0
        #: sql text -> (result, names of every table the query read)
        self._entries: OrderedDict[
            str, tuple[ResultSet, frozenset[str]]
        ] = OrderedDict()
        # A scan group bundles several member results, so by default it
        # gets a proportionally smaller entry budget than the LRU.
        if scan_group_capacity is None:
            scan_group_capacity = max(1, capacity // 2)
        self._scan_groups = ScanGroupCache(scan_group_capacity)
        self._batch_executor = None
        from repro.concurrency.singleflight import SingleFlight

        self._flight = SingleFlight()
        self._group_flight = SingleFlight()
        self.hits = 0
        self.misses = 0
        self.name = f"cached({inner.name})"

    @property
    def inner(self) -> Engine:
        """The wrapped engine."""
        return self._inner

    @property
    def supports_indexes(self) -> bool:  # type: ignore[override]
        return self._inner.supports_indexes

    @property
    def parallel_scans(self) -> bool:  # type: ignore[override]
        """Concurrency profile follows the engine actually scanning."""
        return self._inner.parallel_scans

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

    def _inner_slot(self):
        """The serialization gate for calls into the wrapped engine."""
        from repro.concurrency.policy import execution_slot

        return execution_slot(self._inner)

    def _invalidate_table(self, name: str) -> None:
        """Drop every cached answer that read ``name``.

        Mutating or dropping a base table invalidates exactly the
        entries that scanned it (join results carry every table name).
        Shared-scan temps are exempt: they are derived data, never
        cached, loaded and dropped inside a single batch execution.
        """
        if name.startswith(TEMP_PREFIX):
            return
        with self._lock:
            self._epoch += 1
            stale = [
                sql
                for sql, (_, tables) in self._entries.items()
                if name in tables
            ]
            for sql in stale:
                del self._entries[sql]
        self._scan_groups.invalidate_table(name)

    def load_table(self, table: Table) -> None:
        # Invalidate on both sides of the mutation: before, so no new
        # reader trusts doomed entries; after, so anything a straggling
        # compute stored mid-mutation is purged too.
        self._invalidate_table(table.name)
        try:
            with self._inner_slot():
                self._inner.load_table(table)
        finally:
            self._invalidate_table(table.name)

    def unload_table(self, name: str) -> None:
        self._invalidate_table(name)
        try:
            with self._inner_slot():
                self._inner.unload_table(name)
        finally:
            self._invalidate_table(name)

    def table_schema(self, name: str) -> Schema | None:
        return self._inner.table_schema(name)

    def table_row_count(self, name: str) -> int | None:
        return self._inner.table_row_count(name)

    def table_version(self, name: str) -> int | None:
        return self._inner.table_version(name)

    def materialize_filtered(
        self, name, source: str, predicate, row_range=None
    ) -> bool:
        # Writing to ``name`` replaces it like a load would.
        self._invalidate_table(name)
        try:
            with self._inner_slot():
                if row_range is None:  # legacy three-argument inners work
                    return self._inner.materialize_filtered(
                        name, source, predicate
                    )
                return self._inner.materialize_filtered(
                    name, source, predicate, row_range
                )
        finally:
            self._invalidate_table(name)

    def create_index(self, table: str, column: str) -> None:
        with self._inner_slot():
            self._inner.create_index(table, column)

    def execute(self, query: Query) -> ResultSet:
        tables = frozenset(query.table_names())
        if any(name.startswith(TEMP_PREFIX) for name in tables):
            # Shared-scan temps are transient; caching them would risk
            # stale reads after their base table mutates.
            with self._inner_slot():
                return self._inner.execute(query)
        key = format_query(query)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._record_hit(key)
                result, _ = cached
                return ResultSet(result.columns, result.rows)
            epoch = self._epoch

        def compute() -> ResultSet:
            with self._inner_slot():
                result = self._inner.execute(query)
            with self._lock:
                self.misses += 1
                registry = _metrics.ACTIVE
                if registry is not None:
                    registry.inc("cache.misses")
                if self._epoch == epoch:
                    self._entries[key] = (
                        ResultSet(result.columns, result.rows),
                        tables,
                    )
                    if len(self._entries) > self._capacity:
                        self._entries.popitem(last=False)  # evict LRU
            return result

        # The epoch is part of the flight key: a caller arriving after
        # an invalidation completed must not ride a leader that started
        # against the pre-mutation data — it starts a fresh flight and
        # recomputes.
        result, leader = self._flight.do((key, epoch), compute)
        if leader:
            return result
        # A follower rode the leader's computation: no inner work.
        with self._lock:
            self.hits += 1
            self._record_hit(key)
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
        cache; ``load_table`` on any scanned table invalidates it. The
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
        ``batch=False`` policy executes per query through the wrapper
        itself, so the per-query LRU keeps answering repeats.
        """
        from repro.execution import coerce_policy

        policy = coerce_policy(policy)
        if not policy.batch:
            # One sequential-policy dispatch for the whole stack;
            # executing through the wrapper keeps the per-query LRU.
            from repro.concurrency.sessions import execute_all

            return execute_all(self, list(queries), workers=policy.workers)
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
            self._epoch += 1
            self._entries.clear()
        self._scan_groups.clear()

    def close(self) -> None:
        self.invalidate()
        with self._lock:
            executor = self._batch_executor
        if executor is not None:
            executor.close()  # retire the persistent worker pool
        self._inner.close()
