"""Concurrent scan-group scheduling over a worker pool.

:class:`ScanGroupExecutor` extends the shared-scan
:class:`~repro.engine.batch.BatchExecutor` with a scheduling layer: the
independent :class:`~repro.engine.batch.ScanGroup` units of one batch
become tasks. Engines whose scans genuinely overlap
(``parallel_scans`` — SQLite with its per-thread connections) get their
groups dispatched across a worker pool; everything else runs as a
serialized task queue in submission order, which is byte-for-byte the
sequential executor.

With ``shards > 1`` the unit of work shrinks from one task per group to
**one task per (group, shard)**: each shardable group's base scan is
split across contiguous row-range shards (:mod:`repro.sharding`), the
per-shard scan tasks schedule over the same pool alongside unshardable
groups' whole-group tasks, and once a group's shards have all settled a
merge step rolls the partial aggregates up into the final member
results. On threads ``shards=1`` is byte-for-byte the pre-existing
path — the sharded code is not even reached; ``backend="processes"``
with an exporting engine ships each shardable group to a worker
process even at ``shards=1`` (one job per group). One scheduling loop
in :meth:`ScanGroupExecutor.run` covers every combination: a group is
a whole-group task or a sharded run, and a run's shards are local
tasks or process jobs.

With ``multiplan=True`` the multi-plan tier
(:mod:`repro.engine.multiplan`) folds a group's fusion classes into
one combined pass: unsharded groups run it inside their ordinary group
task (same scheduling, one engine execution instead of one per class),
and sharded groups run one combined pass per shard
(:class:`~repro.sharding.executor.MultiPlanShardedRun`, the same run
base as per-class sharding) whose finest partials roll up through the
same merge step. ``multiplan=False``
(the default) never reaches the evaluator.

Determinism: each group (or its merge step) writes only its own
members' positions in the shared results list, and stats merge in
submission order after every task settles — so results and statistics
are identical for every ``(workers, shards)`` combination, whatever the
completion interleaving was.

Thread-safety contract (what PR 2 established, spelled out):

- **Leaf-granular slots.** A non-thread-safe engine is wrapped so
  every *individual* call into it serializes through its
  :func:`~repro.concurrency.policy.execution_slot` — never held across
  anything that can block on another thread (a coarser group-wide hold
  deadlocks against the cache's single-flight: one thread waits on a
  flight while holding the slot its leader needs). Interleaving leaf
  calls across groups and shards is safe because shared-scan and
  partial-aggregate temp relations carry unique per-execution names.
- **Single-flight.** An optional
  :class:`~repro.concurrency.singleflight.SingleFlight` collapses
  concurrent *identical* groups (same table, same predicate, same
  member set — two sessions refreshing the same dashboard at once)
  into one computation, with followers served from the scan-group
  cache the leader populated. Sharded groups skip the flight — their
  work is a task fan-out, not a single closure — and rely on the
  generation-keyed scan-group cache alone to absorb repeats.
- **Generation keys.** Every scan-group cache lookup and store uses the
  table generation read before the group's first engine call; a store
  whose table was reloaded mid-compute is dropped, never cached (the
  "lost invalidation" race the stress tests guard).
- **Per-thread replicas.** SQLite executes worker-thread calls on
  private replica connections snapshotted from the primary (see
  :mod:`repro.engine.sqlite_engine`), so concurrent scans share no
  SQLite-side state; a generation counter refreshes replicas after
  base-table loads, and in-flight temps pin their replica until the
  task finishes.
- **Shared, leaf-only pools.** Parallel units run on the process's
  long-lived pool for ``policy.workers``
  (:func:`~repro.concurrency.pool.shared_worker_pool`): the executor
  owns no threads, so a per-call executor costs no thread start and
  no replica snapshot once the pool is warm. Units are leaf engine
  work only — none of them dispatches another batch — so a unit can
  never wait on a future queued behind it in the same pool.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.engine.batch import (
    BatchExecutor,
    BatchResult,
    BatchStats,
    ScanGroup,
    group_queries,
)
from repro.engine.interface import Engine, QueryResult
from repro.concurrency.policy import (
    parallel_scans,
    process_shard_engine,
    slot_gated,
)
from repro.concurrency.pool import map_ordered, shared_worker_pool
from repro.concurrency.procpool import shared_process_pool
from repro.concurrency.singleflight import SingleFlight
from repro.sharding import Partitioner
from repro.sharding.executor import plan_sharded_group
from repro.sql.ast import Query
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace


class ScanGroupExecutor(BatchExecutor):
    """Batch executor that overlaps independent scan groups and shards.

    A drop-in superset of :class:`~repro.engine.batch.BatchExecutor`:
    ``run(queries)`` with ``workers=1`` takes the exact sequential code
    path (no pool, no threads), and ``shards=1`` keeps one task per
    group; ``shards > 1`` splits each shardable group into one scan
    task per row-range shard plus a partial-aggregate merge
    (:mod:`repro.sharding`). The executor itself is safe to share
    across threads — concurrent ``run`` calls from overlapping
    refreshes are supported and deduplicated via ``group_flight``
    (unsharded groups only; sharded repeats are absorbed by the
    scan-group cache instead).
    """

    def __init__(
        self,
        engine: Engine,
        policy=None,
        *,
        group_cache=None,
        fallback_engine: Engine | None = None,
        group_flight: SingleFlight | None = None,
        proc_pool=None,
    ) -> None:
        engine = slot_gated(engine)
        super().__init__(
            engine,
            policy,
            group_cache=group_cache,
            fallback_engine=fallback_engine,
        )
        #: Collapses concurrent identical groups; only effective with a
        #: group cache (followers are served from what the leader
        #: stored there).
        self._group_flight = group_flight
        #: Process pool override for ``backend="processes"``; ``None``
        #: uses the long-lived module-shared pool (which this executor
        #: does NOT own and never shuts down). Tests inject a fresh
        #: pool here to isolate fault-injection blast radius.
        self._proc_pool = proc_pool

    def close(self) -> None:
        """Nothing to release: worker threads belong to the shared pools.

        Kept so callers can treat every executor alike; the threads a
        parallel ``run`` uses come from
        :func:`~repro.concurrency.pool.shared_worker_pool` and outlive
        the executor.
        """

    def run(self, queries: list[Query], policy=None) -> BatchResult:
        """Execute one batch; results align positionally with input.

        ``policy`` overrides the constructor's policy for this call
        (``None`` keeps it, so a bare ``run()`` behaves exactly as
        configured). The override rides along per call rather than
        mutating executor state, so concurrent ``run`` calls with
        different policies stay independent.

        Each group becomes a whole-group unit or a sharded run whose
        shards become local units or, when the process pool exports the
        table, remote jobs. Sharded runs merge on the calling thread in
        group order once everything has settled. On failure every local
        unit and remote future still settles and every run's spans
        close before the first error (local before remote, each in
        submission order) is raised.
        """
        from repro.execution import coerce_policy

        policy = self.policy if policy is None else coerce_policy(policy)
        if not policy.batch:
            # Mirror the constructor: this executor IS the batch path;
            # silently running shared scans for a sequential policy
            # would misreport the very scan counts it exists to change.
            from repro.errors import ConfigError

            raise ConfigError(
                "ScanGroupExecutor is the shared-scan path; a "
                "batch=False policy belongs on Engine.execute_batch, "
                "which routes it to per-query execution"
            )
        exporter = proc_pool = partitioner = None
        if policy.backend == "processes":
            # None when nothing in the wrapper stack can export table
            # snapshots — the backend knob is advisory, so the batch
            # degrades to threads rather than failing.
            exporter = process_shard_engine(self.engine)
        if exporter is not None:
            proc_pool = self._proc_pool or shared_process_pool()
        if policy.shards > 1 or exporter is not None:
            # Process-backed groups ship even at shards=1: one job per
            # group still leaves the GIL behind. On threads, shards=1
            # never reaches the sharding planner at all.
            partitioner = Partitioner(policy.shards)
        stats = BatchStats(queries=len(queries))
        results: list[QueryResult | None] = [None] * len(queries)
        groups = group_queries(list(queries), key_fn=self._memoized_keys)
        stats.groups = len(groups)
        units: list[Callable[[], BatchStats]] = []
        runs = []  # sharded runs, merged in group order
        remote = []  # (run, job, span, future) in submission order
        deltas: list[BatchStats] = []
        first_error: BaseException | None = None
        try:
            for group in groups:
                run = None
                if partitioner is not None:
                    # Cache hits served at plan time count into stats.
                    run = plan_sharded_group(
                        self, group, partitioner, results, stats,
                        multiplan=policy.multiplan,
                    )
                if run is None:
                    units.append(
                        lambda g=group: self._execute_group(
                            g, results, policy.multiplan
                        )
                    )
                    continue
                runs.append(run)
                export = None
                if proc_pool is not None:
                    # None for an unknown generation (or unexportable
                    # storage): the run's shards execute locally.
                    export = proc_pool.export_table(exporter, run.table)
                if export is None:
                    units.extend(run.scan_tasks())
                    continue
                for job in run.remote_jobs(export):
                    span = run.begin_remote(job.shard)
                    if span is not None:
                        # Serialized span context: its presence tells
                        # the worker to record re-anchorable span tuples.
                        job.trace = {"span_id": span.span_id}
                    remote.append(
                        (run, job, span, proc_pool.submit(export, job))
                    )
            # Local units execute while the workers chew on the remote
            # jobs, which never gate on parallel_scans: escaping the
            # GIL for the pure-Python stores is that backend's point.
            if (
                policy.workers > 1
                and len(units) > 1
                and parallel_scans(self.engine)
            ):
                pool = shared_worker_pool(policy.workers)
                tracer = _trace.ACTIVE
                if tracer is not None:
                    # Bind each task so the submitting refresh's span
                    # travels onto the worker thread, along with the
                    # queue-wait measurement.
                    units = [tracer.bind(unit) for unit in units]
                deltas = map_ordered(pool, lambda unit: unit(), units)
            else:
                # Serialized task queue: submission order, caller's thread.
                deltas = [unit() for unit in units]
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            first_error = exc
        proc_tasks: dict[int, int] = {}
        for run, job, span, future in remote:
            try:
                payload = proc_pool.collect(future, job)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                if first_error is None:
                    first_error = exc
                tracer = _trace.ACTIVE
                if span is not None and tracer is not None:
                    span.attrs["error"] = type(exc).__name__
                    tracer.finish(span)
                continue
            proc_tasks[payload.pid] = proc_tasks.get(payload.pid, 0) + 1
            deltas.append(run.accept_remote(job.shard, payload, span))
        registry = _metrics.ACTIVE
        if registry is not None:
            for pid, count in proc_tasks.items():
                registry.set_gauge(
                    "pool.proc_tasks", count, worker=f"pid-{pid}"
                )
        try:
            if first_error is not None:
                raise first_error
            deltas.extend(run.merge(results) for run in runs)
        except BaseException:
            for run in runs:
                run.abort()
            raise
        for delta in deltas:
            stats.merge(delta)
        return self._finish(results, stats)

    # -- internals ----------------------------------------------------------

    def _execute_group(
        self,
        group: ScanGroup,
        results: list[QueryResult | None],
        multiplan: bool | None = None,
    ) -> BatchStats:
        """Run one group as an isolated task; returns its stats delta.

        Writes only this group's member positions in ``results`` —
        disjoint across groups, so no locking is needed on the list.
        The per-call ``multiplan`` flag rides along rather than
        mutating executor state: concurrent ``run`` calls with
        different flags stay independent (results are identical either
        way, so the flight key need not carry it).
        """
        tracer = _trace.ACTIVE
        if tracer is None:
            return self._execute_flight(group, results, multiplan, None)
        attrs: dict = {"members": len(group.members)}
        if group.signature is not None:
            attrs["table"] = group.signature.table
            attrs["group_key"] = group.signature.predicate_key
        with tracer.span("scan_group", **attrs) as span:
            return self._execute_flight(group, results, multiplan, span)

    def _execute_flight(
        self,
        group: ScanGroup,
        results: list[QueryResult | None],
        multiplan: bool | None,
        span,
    ) -> BatchStats:
        if (
            self._group_flight is not None
            and self.group_cache is not None
            and group.signature is not None
        ):
            key = (
                group.signature.table,
                group.signature.predicate_key,
                tuple(sorted({m.sql for m in group.members})),
            )
            # The leader computes and fills the scan-group cache; a
            # follower re-running the group is then answered entirely
            # from that cache (zero engine work). Each call distributes
            # into its own results list, so only the flight key is
            # shared.
            start = time.perf_counter() if span is not None else 0.0
            stats, leader = self._group_flight.do(
                key, lambda: self._run_one(group, results, multiplan)
            )
            if span is not None:
                span.attrs["singleflight"] = (
                    "leader" if leader else "follower"
                )
                if not leader:
                    span.attrs["flight_wait_ms"] = round(
                        (time.perf_counter() - start) * 1000.0, 3
                    )
            if leader:
                return stats
            return self._run_one(group, results, multiplan)
        return self._run_one(group, results, multiplan)

    def _run_one(
        self,
        group: ScanGroup,
        results: list[QueryResult | None],
        multiplan: bool | None = None,
    ) -> BatchStats:
        # No lock is held here: engine safety is leaf-granular (the
        # _SlotGatedEngine wrapper / the engine's own thread-safety),
        # so waiting on a cache flight inside a fallback can never
        # deadlock against another thread's leader.
        stats = BatchStats()
        if group.signature is None:
            self._run_fallback(group, results, stats)
        else:
            self._run_group(group, results, stats, multiplan=multiplan)
        return stats


__all__ = ["ScanGroupExecutor"]
