"""Sharded execution of one scan group: per-shard scans + one merge.

A shardable scan group stops being "one task": it becomes one
*scan task per shard* — materialize the shard's filtered row range
(shard-aware ``materialize_filtered``), run every fusion class's
partial query over it — plus one *merge step* that concatenates the
per-shard partial rows (in shard order) and re-aggregates them through
the engine itself. The scheduling substrate is unchanged: each scan
task is an ordinary unit of work for the concurrency layer's
``WorkerPool`` / ``execution_slot`` machinery, exactly like an
unsharded group.

Why the result is byte-identical to unsharded execution:

- **Row coverage.** :class:`~repro.sharding.partition.RowRange` shards
  are contiguous, disjoint, and cover the table, so the multiset of
  rows feeding the aggregates is identical.
- **Group ordering.** Every engine here orders GROUP BY output either
  by key value (SQLite's sorter, the matstore's sort-based grouping,
  the vectorstore's ``np.unique`` path) or by first occurrence in scan
  order (the rowstore's dict, the vectorstore's hash loop). Key-sorted
  orders are position-independent, so re-aggregating partials trivially
  reproduces them. First-occurrence orders compose because shards are
  contiguous: a key first seen in shard *i* precedes, in base order,
  every key first seen in shard *j > i*; concatenating per-shard
  partials in shard order therefore presents first occurrences to the
  merge aggregation in exactly the base table's first-occurrence order.
- **Values, types, names.** The merge runs *on the engine*, with the
  rollup's merge expressions (COUNT/SUM partials via SUM, MIN/MAX via
  themselves, AVG as ``SUM(sums) * 1.0 / SUM(counts)``), so arithmetic
  promotion, NULL handling, and output naming are the engine's own.
  See :class:`~repro.engine.batch.AggregateRollup` for the exactness
  boundary on floating-point SUM/AVG.

Thread-safety contract: each scan task writes only its own
``(class, shard)`` slots of the partial matrix and runs engine calls
leaf-granularly (the executor hands this module a slot-gated engine),
so scan tasks for one group — and for different groups — interleave
freely. The merge step runs after every scan task of the group has
settled, on a single thread, and is the only writer of the group's
member positions in the shared results list. Cache stores carry the
epoch captured before any engine work, so a table invalidated
mid-flight drops the store instead of caching vanished data.

Known boundary vs unsharded execution: an unsharded group runs on one
thread, so SQLite's pinned replica gives it a consistent snapshot even
if the base table is reloaded mid-group. A *sharded* group's scan
tasks run on several threads whose replicas may straddle a concurrent
``load_table``, so that one batch can observe a mix of old and new
table versions — returned to the caller, though never cached (the
epoch moved, so the store is dropped). Serving workloads here load
tables before queries, making the window academic; a coordinated
cross-thread snapshot would close it if that ever changes.
"""

from __future__ import annotations

import time

from repro.engine.batch import (
    AggregateRollup,
    BatchStats,
    ScanGroup,
    _FusionClass,
    build_rollup,
    fuse_members,
    unique_temp_name,
)
from repro.engine.interface import QueryResult, ResultSet
from repro.errors import ExecutionError
from repro.sharding.partition import Partitioner, RowRange
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace


def _adopt_remote_spans(tracer, shard_span, payload) -> None:
    """Re-anchor worker-recorded span tuples under the parent shard span.

    Workers report ``(name, start_offset_ms, end_offset_ms, attrs)``
    relative to their task start (their clock is not the parent's);
    anchoring the offsets to the shard span's start keeps the tree
    causally ordered in the parent's timeline. ``end_ms`` is set
    directly — these spans were already closed remotely.
    """
    for name, start_offset, end_offset, attrs in payload.spans:
        child = tracer.begin(name, parent=shard_span, **attrs)
        child.start_ms = shard_span.start_ms + start_offset
        child.end_ms = shard_span.start_ms + end_offset
        child.thread = f"pid-{payload.pid}"


def _materialize_shard(engine, signature, predicate, row_range, shard) -> str:
    """Materialize one shard's filtered row range; returns the temp name.

    :func:`plan_sharded_group` gates on ``table_row_count``, and
    engines that report a row count must honor row ranges — failure
    here means the engine broke that contract.
    """
    temp = unique_temp_name(signature.table, signature.predicate_key)
    if not engine.materialize_filtered(
        temp,
        signature.table,
        predicate,
        row_range=(row_range.start, row_range.stop),
    ):
        raise ExecutionError(
            f"engine cannot materialize shard {shard} of "
            f"{signature.table!r}"
        )
    return temp


class ShardedGroupRun:
    """One scan group's sharded execution state.

    Built by :func:`plan_sharded_group`; the concurrent executor turns
    :meth:`scan_tasks` into pool units and calls :meth:`merge` once
    they have all settled.
    """

    def __init__(
        self,
        executor,  # ScanGroupExecutor (duck-typed; avoids a cyclic import)
        group: ScanGroup,
        classes: list[_FusionClass],
        rollups: list[AggregateRollup],
        ranges: list[RowRange],
        epoch: object,
    ) -> None:
        self._executor = executor
        self._group = group
        self._classes = classes
        self._rollups = rollups
        self._ranges = ranges
        self._epoch = epoch
        signature = group.signature
        assert signature is not None
        self._signature = signature
        self._predicate = (
            group.members[0].query.where if group.members else None
        )
        # Disjoint (class, shard) slots: scan tasks on different
        # threads never write the same cell, so no locking is needed.
        self._partials: list[list[ResultSet | None]] = [
            [None] * len(ranges) for _ in classes
        ]
        self._partial_ms: list[list[float]] = [
            [0.0] * len(ranges) for _ in classes
        ]
        self._scan_ms: list[float] = [0.0] * len(ranges)
        # The group span opens here, at plan time on the calling thread
        # (under the refresh's context), and closes in merge() — its
        # lifetime crosses threads, so shard tasks parent to it
        # explicitly instead of through the context.
        self._tracer = _trace.ACTIVE
        self._span = None
        if self._tracer is not None and classes:
            self._span = self._tracer.begin(
                "scan_group",
                table=signature.table,
                group_key=signature.predicate_key,
                members=len(group.members),
                shards=len(ranges),
                sharded=True,
            )

    @property
    def table(self) -> str:
        return self._signature.table

    def scan_tasks(self):
        """One callable per shard; each returns its stats delta.

        Empty when every member was served from the scan-group cache
        at plan time — a fully warm repeat refresh must not submit
        no-op tasks to the pool.
        """
        if not self._classes:
            return []
        return [
            (lambda shard=shard: self._scan(shard))
            for shard in range(len(self._ranges))
        ]

    def remote_jobs(self, export):
        """One :class:`ShardJob` per shard, for process-backed dispatch.

        Empty exactly when :meth:`scan_tasks` is (fully cache-served).
        The parent pre-builds the partial queries — temp names come
        from its process-wide sequence, so worker-side relations can
        never collide with parent-side ones.
        """
        if not self._classes:
            return []
        from repro.concurrency.procpool import ShardJob

        signature = self._signature
        jobs = []
        for shard, row_range in enumerate(self._ranges):
            temp = unique_temp_name(signature.table, signature.predicate_key)
            jobs.append(
                ShardJob(
                    export_id=export.spec.export_id,
                    version=export.spec.version,
                    table=signature.table,
                    shard=shard,
                    start=row_range.start,
                    stop=row_range.stop,
                    temp=temp,
                    queries=tuple(
                        rollup.partial_query(temp, signature.table)
                        for rollup in self._rollups
                    ),
                    predicate=self._predicate,
                )
            )
        return jobs

    def begin_remote(self, shard: int):
        """Open the parent-side span for a process-dispatched shard."""
        if self._tracer is None:
            return None
        row_range = self._ranges[shard]
        return self._tracer.begin(
            f"shard[{shard}]",
            parent=self._span,
            shard=shard,
            rows=f"{row_range.start}:{row_range.stop}",
            backend="processes",
        )

    def accept_remote(self, shard: int, payload, span) -> BatchStats:
        """Install one worker payload into this run's partial matrix."""
        stats = BatchStats()
        for index in range(len(self._rollups)):
            self._partials[index][shard] = payload.partials[index]
            self._partial_ms[index][shard] = payload.partial_ms[index]
        self._scan_ms[shard] = payload.scan_ms
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.observe(
                "shard.scan_ms",
                payload.scan_ms,
                table=self._signature.table,
            )
        stats.base_scans += 1
        stats.shard_scans += 1
        stats.proc_shard_scans += 1
        if span is not None:
            span.attrs["scan_ms"] = round(payload.scan_ms, 3)
            span.attrs["pid"] = payload.pid
            _adopt_remote_spans(self._tracer, span, payload)
            # repro: allow(RA102) — span was created by this run's own
            # tracer.begin() at submit time, so span non-None implies
            # the tracer is bound; the guard is one call away in the
            # remote-collection path, out of lexical reach.
            self._tracer.finish(span)
        return stats

    def _scan(self, shard: int) -> BatchStats:
        """Materialize one shard's rows and run every partial query."""
        stats = BatchStats()
        engine = self._executor.engine
        tracer = self._tracer
        span = None
        if tracer is not None:
            row_range = self._ranges[shard]
            span = tracer.begin(
                f"shard[{shard}]",
                parent=self._span,
                shard=shard,
                rows=f"{row_range.start}:{row_range.stop}",
            )
        try:
            start = time.perf_counter()
            temp = _materialize_shard(
                engine, self._signature, self._predicate,
                self._ranges[shard], shard,
            )
            self._scan_ms[shard] = (time.perf_counter() - start) * 1000.0
            registry = _metrics.ACTIVE
            if registry is not None:
                registry.observe(
                    "shard.scan_ms",
                    self._scan_ms[shard],
                    table=self._signature.table,
                )
            stats.base_scans += 1
            stats.shard_scans += 1
            try:
                for index, rollup in enumerate(self._rollups):
                    timed = engine.execute_timed(
                        rollup.partial_query(temp, self._signature.table)
                    )
                    self._partials[index][shard] = timed.result
                    self._partial_ms[index][shard] = timed.duration_ms
            finally:
                try:
                    engine.unload_table(temp)
                except ExecutionError:
                    pass  # engine keeps the temp; next load replaces it
        finally:
            if span is not None:
                span.attrs["scan_ms"] = round(self._scan_ms[shard], 3)
                tracer.finish(span)
        return stats

    def merge(self, results: list[QueryResult | None]) -> BatchStats:
        """Roll every class's partials up into final member results."""
        stats = BatchStats()
        if not self._classes:
            return stats
        stats.sharded_groups = 1
        executor = self._executor
        engine = executor.engine
        signature = self._signature
        tracer = self._tracer
        merge_span = None
        if tracer is not None:
            merge_span = tracer.begin(
                "rollup_merge",
                parent=self._span,
                table=signature.table,
                classes=len(self._classes),
            )
        try:
            produced: dict[str, ResultSet] = {}
            member_count = sum(len(c.members) for c in self._classes)
            fetch_share = sum(self._scan_ms) / member_count
            for index, (cls, rollup) in enumerate(
                zip(self._classes, self._rollups)
            ):
                partials = self._partials[index]
                assert all(p is not None for p in partials)
                duration_ms = sum(self._partial_ms[index])
                if not any(p.rows for p in partials):
                    # A grouped aggregate over zero qualifying rows: no
                    # groups anywhere, so the merge relation would be empty
                    # — skip the engine round trip.
                    merged = rollup.empty_result()
                else:
                    relation = unique_temp_name(
                        signature.table, signature.predicate_key
                    )
                    engine.load_table(rollup.partial_table(relation, partials))
                    try:
                        timed = engine.execute_timed(
                            rollup.merge_query(relation)
                        )
                    finally:
                        try:
                            engine.unload_table(relation)
                        except ExecutionError:
                            pass
                    merged = timed.result
                    duration_ms += timed.duration_ms
                executor._distribute(
                    cls, merged, duration_ms, fetch_share, results, produced,
                    tier="sharded",
                )
            if executor.group_cache is not None and produced:
                executor.group_cache.store(
                    signature.table,
                    signature.predicate_key,
                    produced,
                    epoch=self._epoch,
                )
        finally:
            if tracer is not None:
                tracer.finish(merge_span)
                if self._span is not None:
                    tracer.finish(self._span)
        return stats


class MultiPlanShardedRun:
    """One scan group's sharded *multi-plan* execution state.

    The multiplan × shards composition: each shard task materializes
    its filtered row range and runs **one combined finest-grouping
    query** (:class:`~repro.engine.multiplan.MultiPlan`) over it —
    instead of one partial query per fusion class — and the merge step
    concatenates the per-shard finest partials in shard order, loads
    them once, and derives every class's result with its own merge
    query. Correctness follows from the same two arguments
    independently established for sharding and for multiplan: the
    finest partials concatenated in shard order preserve
    first-occurrence composition (shards are contiguous), and each
    class's merge re-aggregates its key subset through the engine
    itself. Thread-safety mirrors :class:`ShardedGroupRun`: scan tasks
    write disjoint per-shard slots, the merge runs single-threaded
    after all tasks settle, and cache stores carry the pre-captured
    epoch.
    """

    def __init__(
        self,
        executor,  # ScanGroupExecutor (duck-typed; avoids a cyclic import)
        group: ScanGroup,
        classes: list[_FusionClass],
        plan,  # repro.engine.multiplan.MultiPlan
        ranges: list[RowRange],
        epoch: object,
    ) -> None:
        self._executor = executor
        self._group = group
        self._classes = classes
        self._plan = plan
        self._ranges = ranges
        self._epoch = epoch
        signature = group.signature
        assert signature is not None
        self._signature = signature
        self._predicate = (
            group.members[0].query.where if group.members else None
        )
        # Disjoint per-shard slots: scan tasks on different threads
        # never write the same cell, so no locking is needed.
        self._partials: list[ResultSet | None] = [None] * len(ranges)
        self._scan_ms: list[float] = [0.0] * len(ranges)
        # Cross-thread group span, as in ShardedGroupRun: opened at
        # plan time on the caller, closed by merge().
        self._tracer = _trace.ACTIVE
        self._span = None
        if self._tracer is not None:
            self._span = self._tracer.begin(
                "scan_group",
                table=signature.table,
                group_key=signature.predicate_key,
                members=len(group.members),
                shards=len(ranges),
                sharded=True,
                multiplan=True,
            )

    @property
    def table(self) -> str:
        return self._signature.table

    def scan_tasks(self):
        """One callable per shard; each returns its stats delta.

        Unlike :class:`ShardedGroupRun`, this is never empty: the
        planner only builds a multiplan run for two or more classes
        left after cache serving (a fully warm group never gets here).
        """
        return [
            (lambda shard=shard: self._scan(shard))
            for shard in range(len(self._ranges))
        ]

    def remote_jobs(self, export):
        """One :class:`ShardJob` per shard: the single combined query."""
        from repro.concurrency.procpool import ShardJob

        signature = self._signature
        jobs = []
        for shard, row_range in enumerate(self._ranges):
            temp = unique_temp_name(signature.table, signature.predicate_key)
            jobs.append(
                ShardJob(
                    export_id=export.spec.export_id,
                    version=export.spec.version,
                    table=signature.table,
                    shard=shard,
                    start=row_range.start,
                    stop=row_range.stop,
                    temp=temp,
                    queries=(
                        self._plan.combined_query(
                            temp, alias=signature.table
                        ),
                    ),
                    predicate=self._predicate,
                )
            )
        return jobs

    def begin_remote(self, shard: int):
        """Open the parent-side span for a process-dispatched shard."""
        if self._tracer is None:
            return None
        row_range = self._ranges[shard]
        return self._tracer.begin(
            f"shard[{shard}]",
            parent=self._span,
            shard=shard,
            rows=f"{row_range.start}:{row_range.stop}",
            backend="processes",
            multiplan=True,
        )

    def accept_remote(self, shard: int, payload, span) -> BatchStats:
        """Install one worker payload into this run's partial slots."""
        stats = BatchStats()
        self._partials[shard] = payload.partials[0]
        # One shared pass per shard, as on the thread path: its query
        # time pools with the scan for fetch-share accounting.
        self._scan_ms[shard] = payload.scan_ms + payload.partial_ms[0]
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.observe(
                "shard.scan_ms",
                self._scan_ms[shard],
                table=self._signature.table,
            )
        stats.base_scans += 1
        stats.shard_scans += 1
        stats.proc_shard_scans += 1
        if span is not None:
            span.attrs["scan_ms"] = round(self._scan_ms[shard], 3)
            span.attrs["pid"] = payload.pid
            _adopt_remote_spans(self._tracer, span, payload)
            # repro: allow(RA102) — as in ShardedGroupRun.accept_remote:
            # span non-None implies the plan-time tracer is bound; the
            # None-guard lives in the caller that minted the span.
            self._tracer.finish(span)
        return stats

    def _scan(self, shard: int) -> BatchStats:
        """Materialize one shard's rows, run the one combined query."""
        stats = BatchStats()
        engine = self._executor.engine
        tracer = self._tracer
        span = None
        if tracer is not None:
            row_range = self._ranges[shard]
            span = tracer.begin(
                f"shard[{shard}]",
                parent=self._span,
                shard=shard,
                rows=f"{row_range.start}:{row_range.stop}",
                multiplan=True,
            )
        try:
            start = time.perf_counter()
            temp = _materialize_shard(
                engine, self._signature, self._predicate,
                self._ranges[shard], shard,
            )
            stats.base_scans += 1
            stats.shard_scans += 1
            try:
                timed = engine.execute_timed(
                    self._plan.combined_query(
                        temp, alias=self._signature.table
                    )
                )
                self._partials[shard] = timed.result
                # One shared pass per shard: its cost pools with the scan
                # (split evenly across members at merge time), mirroring
                # how the unsharded shared scan charges its members.
                self._scan_ms[shard] = (
                    (time.perf_counter() - start) * 1000.0
                )
                registry = _metrics.ACTIVE
                if registry is not None:
                    registry.observe(
                        "shard.scan_ms",
                        self._scan_ms[shard],
                        table=self._signature.table,
                    )
            finally:
                try:
                    engine.unload_table(temp)
                except ExecutionError:
                    pass  # engine keeps the temp; next load replaces it
        finally:
            if span is not None:
                span.attrs["scan_ms"] = round(self._scan_ms[shard], 3)
                tracer.finish(span)
        return stats

    def merge(self, results: list[QueryResult | None]) -> BatchStats:
        """Derive every class's result from the concatenated partials."""
        stats = BatchStats()
        stats.sharded_groups = 1
        stats.multiplan_groups = 1
        stats.multiplan_plans = len(self._classes)
        executor = self._executor
        engine = executor.engine
        signature = self._signature
        plan = self._plan
        partials = self._partials
        assert all(p is not None for p in partials)
        tracer = self._tracer
        merge_span = None
        if tracer is not None:
            merge_span = tracer.begin(
                "rollup_merge",
                parent=self._span,
                table=signature.table,
                classes=len(self._classes),
                multiplan=True,
            )
        try:
            produced: dict[str, ResultSet] = {}
            member_count = sum(len(c.members) for c in self._classes)
            fetch_share = sum(self._scan_ms) / member_count
            if not any(p.rows for p in partials):
                # Zero qualifying rows anywhere. (Unreachable when every
                # plan is global: a keyless combined query always yields a
                # row per shard.)
                from repro.engine.multiplan import serve_empty_group

                serve_empty_group(
                    executor, self._classes, plan.plans, fetch_share,
                    results, produced, stats,
                )
            else:
                relation = unique_temp_name(
                    signature.table, signature.predicate_key
                )
                engine.load_table(plan.partial_table(relation, partials))
                try:
                    for cls, plan_merge in zip(self._classes, plan.plans):
                        timed = engine.execute_timed(
                            plan_merge.merge_query(relation)
                        )
                        executor._distribute(
                            cls, timed.result, timed.duration_ms,
                            fetch_share, results, produced,
                            tier="multiplan",
                        )
                finally:
                    try:
                        engine.unload_table(relation)
                    except ExecutionError:
                        pass
            if executor.group_cache is not None and produced:
                executor.group_cache.store(
                    signature.table,
                    signature.predicate_key,
                    produced,
                    epoch=self._epoch,
                )
        finally:
            if tracer is not None:
                tracer.finish(merge_span)
                if self._span is not None:
                    tracer.finish(self._span)
        return stats


def plan_sharded_group(
    executor,
    group: ScanGroup,
    partitioner: Partitioner,
    results: list[QueryResult | None],
    stats: BatchStats,
    multiplan: bool | None = None,
) -> "ShardedGroupRun | MultiPlanShardedRun | None":
    """A sharded run for ``group``, or ``None``.

    ``None`` means the group cannot shard — no scan signature (joins),
    an engine that cannot report row counts / materialize row ranges,
    or any fusion class whose merged query has no partial-aggregate
    rollup — and must take the pre-existing one-task path. The decision
    is made *before* touching the scan-group cache, so a ``None``
    here leaves all cache accounting to the unsharded path.

    When the group shards, cache-served members are answered
    immediately (into ``results``/``stats``, mirroring the unsharded
    path) and only the remaining members are planned for execution.

    ``multiplan`` (``None`` defers to ``executor.policy.multiplan``) upgrades
    a group of two or more combinable classes to a
    :class:`MultiPlanShardedRun` — one combined pass per shard instead
    of one partial query per (class, shard); anything the combined
    planner declines keeps the per-class :class:`ShardedGroupRun`.
    """
    signature = group.signature
    if signature is None:
        return None
    epoch = None
    if executor.group_cache is not None:
        # Captured before ANY engine-state read — including the row
        # count below. A table swapped between reading its extent and
        # capturing the epoch would otherwise let stale-range results
        # into the cache with a fresh epoch.
        epoch = executor.group_cache.epoch(signature.table)
    engine = executor.engine
    row_count = engine.table_row_count(signature.table)
    if row_count is None:
        return None
    # Shardability is a member-level property (naming-safe aggregate
    # queries without HAVING/ORDER BY/LIMIT/DISTINCT), so checking the
    # full member set also answers for any cache-remainder subset.
    if any(
        build_rollup(cls.merged_query()) is None
        for cls in fuse_members(group.members)
    ):
        return None
    pending = group.members
    if executor.group_cache is not None:
        pending = executor._serve_cached(signature, pending, results, stats)
    classes = fuse_members(pending)
    stats.fused_queries += len(pending) - len(classes)
    combine = executor.policy.multiplan if multiplan is None else multiplan
    # The multiplan tier covers *unfiltered* groups only, here exactly
    # as in the unsharded executor — filtered groups keep the per-class
    # rollup (combined passes over filtered groups are ROADMAP future
    # work). A group with an ineligible class never reaches this point:
    # the build_rollup gate above already returned None, and the
    # one-task fallback still applies the unsharded multiplan tier to
    # the eligible subset.
    if (
        combine
        and len(classes) > 1
        and pending
        and pending[0].query.where is None
    ):
        from repro.engine.multiplan import build_multiplan

        combined = build_multiplan([cls.merged_query() for cls in classes])
        if combined is not None:
            return MultiPlanShardedRun(
                executor,
                group,
                classes,
                combined,
                partitioner.split(row_count),
                epoch,
            )
    rollups = []
    for cls in classes:
        rollup = build_rollup(cls.merged_query())
        assert rollup is not None  # subset of a fully shardable group
        rollups.append(rollup)
    return ShardedGroupRun(
        executor,
        group,
        classes,
        rollups,
        partitioner.split(row_count),
        epoch,
    )


__all__ = ["MultiPlanShardedRun", "ShardedGroupRun", "plan_sharded_group"]
