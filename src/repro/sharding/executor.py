"""Sharded execution of one scan group: per-shard scans + one merge.

A shardable scan group stops being "one task": it becomes one
*scan task per shard* — materialize the shard's filtered row range
(shard-aware ``materialize_filtered``), run its partial queries over
it (one per fusion class, or one combined multi-plan pass) — plus one
*merge step* that concatenates the per-shard partial rows (in shard
order) and re-aggregates them through the engine itself. Both kinds of
run share one lifecycle (``_ShardedRun``); the two leaves only name
the kind (explain tier, span tag). The scheduling substrate is
unchanged: each scan task is an ordinary unit of work for the
concurrency layer's ``WorkerPool`` / ``execution_slot`` machinery,
exactly like an unsharded group.

Why the result is byte-identical to unsharded execution — contiguous
shards concatenated in shard order replay the base table's
first-occurrence order, and the merge re-aggregates on the engine —
and the exactness boundary on floating-point SUM/AVG are stated once,
in :mod:`repro.engine.multiplan`, which plans every feed here.

Thread-safety contract: each scan task writes only its own
``(feed, shard)`` slots of the partial matrix and runs engine calls
leaf-granularly (the executor hands this module a slot-gated engine),
so scan tasks for one group — and for different groups — interleave
freely. The merge step runs after every scan task of the group has
settled, on a single thread, and is the only writer of the group's
member positions in the shared results list. Cache stores carry the
table generation read before any engine work, so a table reloaded
mid-flight drops the store instead of caching vanished data.

Known boundary vs unsharded execution: an unsharded group runs on one
thread, so SQLite's pinned replica gives it a consistent snapshot even
if the base table is reloaded mid-group. A *sharded* group's scan
tasks run on several threads whose replicas may straddle a concurrent
``load_table``, so that one batch can observe a mix of old and new
table versions — returned to the caller, though never cached (the
generation moved, so the store is dropped). The window is live:
``serve-reload`` reloads beside reads (45 reloads, 47 stores dropped
for a moved generation in one 15 s run). Closing it needs every shard
task pinned to the generation the group read (ROADMAP item 10).
"""

from __future__ import annotations

import time

from repro.engine.batch import (
    BatchStats,
    ScanGroup,
    _FusionClass,
    fuse_members,
    unique_temp_name,
)
from repro.engine.interface import QueryResult, ResultSet
from repro.engine.multiplan import MultiPlan, build_multiplan, merge_partials
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


class _ShardedRun:
    """One scan group's sharded execution state: the shared lifecycle.

    Built by :func:`plan_sharded_group` through one of the two leaves
    below; the concurrent executor turns :meth:`scan_tasks` (or
    :meth:`remote_jobs`) into units and calls :meth:`merge` once they
    have all settled. A run holds a list of *feeds*: each is one
    per-shard partial query (a :class:`~repro.engine.multiplan.MultiPlan`)
    paired with the (fusion class, merge) pairs its concatenated rows
    answer. Every shard runs every feed's partial; the merge loads each
    feed's partials once and runs each pair's ``merge_query`` over them.
    """

    #: Explain tier stamped on every member the merge answers.
    tier = "sharded"
    #: Extra attributes on every span the run opens.
    span_attrs: dict = {}

    def __init__(
        self,
        executor,  # ScanGroupExecutor (duck-typed; avoids a cyclic import)
        group: ScanGroup,
        feeds: list,  # [(partial, [(_FusionClass, merge), ...]), ...]
        ranges: list[RowRange],
        epoch: int | None,
    ) -> None:
        self._executor = executor
        self._feeds = feeds
        self._classes: list[_FusionClass] = [
            cls for _, pairs in feeds for cls, _ in pairs
        ]
        self._ranges = ranges
        self._generation = epoch
        signature = group.signature
        assert signature is not None
        self._signature = signature
        self._predicate = (
            group.members[0].query.where if group.members else None
        )
        # Disjoint (feed, shard) slots: scan tasks on different threads
        # never write the same cell, so no locking is needed.
        self._partials: list[list[ResultSet | None]] = [
            [None] * len(ranges) for _ in feeds
        ]
        self._partial_ms: list[list[float]] = [
            [0.0] * len(ranges) for _ in feeds
        ]
        self._scan_ms: list[float] = [0.0] * len(ranges)
        # The group span opens here, at plan time on the calling thread
        # (under the refresh's context), and closes in merge() — its
        # lifetime crosses threads, so shard tasks parent to it
        # explicitly instead of through the context.
        self._tracer = _trace.ACTIVE
        self._span = None
        if self._tracer is not None and feeds:
            self._span = self._tracer.begin(
                "scan_group",
                table=signature.table,
                group_key=signature.predicate_key,
                members=len(group.members),
                shards=len(ranges),
                sharded=True,
                **self.span_attrs,
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
        if not self._feeds:
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
        if not self._feeds:
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
                        partial.partial_query(temp, signature.table)
                        for partial, _ in self._feeds
                    ),
                    predicate=self._predicate,
                )
            )
        return jobs

    def begin_remote(self, shard: int):
        """Open the parent-side span for a process-dispatched shard."""
        return self._begin_shard(shard, backend="processes")

    def _begin_shard(self, shard: int, **attrs):
        if self._tracer is None:
            return None
        row_range = self._ranges[shard]
        return self._tracer.begin(
            f"shard[{shard}]",
            parent=self._span,
            shard=shard,
            rows=f"{row_range.start}:{row_range.stop}",
            **attrs,
            **self.span_attrs,
        )

    def _install(self, shard: int, partials, partial_ms) -> None:
        """Store one shard's partial rows and charge their time.

        A partial that feeds one class charges its time to that class;
        a shared pass (one partial feeding several classes) pools with
        the shard's scan, which the merge splits evenly across members
        — mirroring how the unsharded shared scan charges its members.
        """
        for index, (rows, ms) in enumerate(zip(partials, partial_ms)):
            self._partials[index][shard] = rows
            if len(self._feeds[index][1]) == 1:
                self._partial_ms[index][shard] = ms
            else:
                self._scan_ms[shard] += ms
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.observe(
                "shard.scan_ms", self._scan_ms[shard], table=self.table
            )

    def accept_remote(self, shard: int, payload, span) -> BatchStats:
        """Install one worker payload into this run's partial slots."""
        self._scan_ms[shard] = payload.scan_ms
        self._install(shard, payload.partials, payload.partial_ms)
        if span is not None:
            span.attrs["scan_ms"] = round(self._scan_ms[shard], 3)
            span.attrs["pid"] = payload.pid
            _adopt_remote_spans(self._tracer, span, payload)
            # repro: allow(RA102) — span was created by this run's own
            # tracer.begin() at submit time, so span non-None implies
            # the tracer is bound; the guard is one call away in the
            # remote-collection path, out of lexical reach.
            self._tracer.finish(span)
        return BatchStats(base_scans=1, shard_scans=1, proc_shard_scans=1)

    def _scan(self, shard: int) -> BatchStats:
        """Materialize one shard's rows and run every feed's partial."""
        engine = self._executor.engine
        tracer = self._tracer
        span = self._begin_shard(shard)  # bound exactly when tracer is
        try:
            start = time.perf_counter()
            signature = self._signature
            row_range = self._ranges[shard]
            temp = unique_temp_name(signature.table, signature.predicate_key)
            # plan_sharded_group gates on table_row_count, and engines
            # that report a row count must honor row ranges — failure
            # here means the engine broke that contract.
            if not engine.materialize_filtered(
                temp, signature.table, self._predicate,
                row_range=(row_range.start, row_range.stop),
            ):
                raise ExecutionError(
                    f"engine cannot materialize shard {shard} of "
                    f"{signature.table!r}"
                )
            self._scan_ms[shard] = (time.perf_counter() - start) * 1000.0
            try:
                timed = [
                    engine.execute_timed(
                        partial.partial_query(temp, signature.table)
                    )
                    for partial, _ in self._feeds
                ]
            finally:
                try:
                    engine.unload_table(temp)
                except ExecutionError:
                    pass  # engine keeps the temp; next load replaces it
            self._install(
                shard,
                [t.result for t in timed],
                [t.duration_ms for t in timed],
            )
        finally:
            if tracer is not None:
                span.attrs["scan_ms"] = round(self._scan_ms[shard], 3)
                tracer.finish(span)
        return BatchStats(base_scans=1, shard_scans=1)

    def merge(self, results: list[QueryResult | None]) -> BatchStats:
        """Roll every feed's partials up into final member results."""
        stats = BatchStats()
        if not self._feeds:
            return stats
        stats.sharded_groups = 1
        for _, pairs in self._feeds:
            if len(pairs) > 1:  # one combined pass answering every class
                stats.multiplan_groups += 1
                stats.multiplan_plans += len(pairs)
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
                **self.span_attrs,
            )
        try:
            produced: dict[str, ResultSet] = {}
            member_count = sum(len(c.members) for c in self._classes)
            fetch_share = sum(self._scan_ms) / member_count
            for (partial, pairs), partials, partial_ms in zip(
                self._feeds, self._partials, self._partial_ms
            ):
                assert all(p is not None for p in partials)
                merge_partials(
                    executor, signature, partial, pairs, partials,
                    fetch_share, results, produced, stats,
                    tier=self.tier, charged_ms=sum(partial_ms),
                )
            if executor.group_cache is not None and produced:
                executor.group_cache.store(
                    signature.table,
                    signature.predicate_key,
                    produced,
                    epoch=self._generation,
                )
        finally:
            if tracer is not None:
                tracer.finish(merge_span)
                if self._span is not None:
                    tracer.finish(self._span)
        return stats

    def abort(self) -> None:
        """Close the group span of a run whose batch failed (idempotent).

        The scheduler calls this on every planned run before raising,
        so a failed batch leaves no span open, whether the run's merge
        ran, raised, or never started.
        """
        if self._span is not None and self._span.end_ms is None:
            self._tracer.finish(self._span)


class ShardedGroupRun(_ShardedRun):
    """Per-class sharding: each shard runs one partial query per class.

    One feed per fusion class — a one-query
    :class:`~repro.engine.multiplan.MultiPlan` — so each class merges
    over its own concatenated per-shard partials.
    """


class MultiPlanShardedRun(_ShardedRun):
    """Sharded *multi-plan* execution: one combined pass per shard.

    The multiplan × shards composition: each shard task materializes
    its filtered row range and runs **one combined finest-grouping
    query** (:class:`~repro.engine.multiplan.MultiPlan`) over it —
    instead of one partial query per fusion class — and the merge step
    concatenates the per-shard finest partials in shard order, loads
    them once, and derives every class's result with its own merge
    query. Its one feed answers every class; the planner only builds
    one for two or more classes left after cache serving, so its
    :meth:`scan_tasks` is never empty.
    """

    tier = "multiplan"
    span_attrs = {"multiplan": True}


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
    or any fusion class whose merged query has no partial/merge plan
    (:func:`~repro.engine.multiplan.build_multiplan`) — and must take
    the pre-existing one-task path. The decision is made *before*
    touching the scan-group cache, so a ``None`` here leaves all cache
    accounting to the unsharded path.

    When the group shards, cache-served members are answered
    immediately (into ``results``/``stats``, mirroring the unsharded
    path) and only the remaining members are planned for execution.
    Each class is planned once per batch: the gate's per-class plans
    are reused unless the cache answered part of the group.

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
        # Read before ANY engine-state read — including the row count
        # below. A table swapped between reading its extent and reading
        # the generation would otherwise let stale-range results into
        # the cache under the fresh generation.
        epoch = executor.group_cache.epoch(signature.table)
    engine = executor.engine
    row_count = engine.table_row_count(signature.table)
    if row_count is None:
        return None
    schema = engine.table_schema(signature.table)
    # Shardability is a member-level property (naming-safe aggregate
    # queries without HAVING/ORDER BY/LIMIT/DISTINCT), so planning the
    # full member set also answers for any cache-remainder subset.
    classes = fuse_members(group.members)
    plans = _class_plans(classes, schema)
    if plans is None:
        return None
    pending = group.members
    if executor.group_cache is not None:
        pending = executor._serve_cached(
            signature, epoch, pending, results, stats
        )
        if len(pending) < len(group.members):
            classes = fuse_members(pending)
            plans = _class_plans(classes, schema)
            assert plans is not None  # subset of a fully shardable group
    stats.fused_queries += len(pending) - len(classes)
    combine = executor.policy.multiplan if multiplan is None else multiplan
    # The multiplan tier covers *unfiltered* groups only, here exactly
    # as in the unsharded executor — filtered groups keep the per-class
    # plans (combined passes over filtered groups are ROADMAP future
    # work). A group with an ineligible class never reaches this point:
    # the gate above already returned None, and the one-task fallback
    # still applies the unsharded multiplan tier to the eligible subset.
    if combine and len(classes) > 1 and pending[0].query.where is None:
        combined = build_multiplan(
            [cls.merged_query() for cls in classes], schema
        )
        if combined is not None:
            return MultiPlanShardedRun(
                executor,
                group,
                [(combined, list(zip(classes, combined.plans)))],
                partitioner.split(row_count),
                epoch,
            )
    return ShardedGroupRun(
        executor,
        group,
        [(plan, [(cls, plan.plans[0])]) for cls, plan in zip(classes, plans)],
        partitioner.split(row_count),
        epoch,
    )


def _class_plans(classes, schema) -> list[MultiPlan] | None:
    """One single-class plan per fusion class, or ``None`` if any fails."""
    plans = []
    for cls in classes:
        plan = build_multiplan([cls.merged_query()], schema)
        if plan is None:
            return None
        plans.append(plan)
    return plans


__all__ = ["MultiPlanShardedRun", "ShardedGroupRun", "plan_sharded_group"]
