"""Concurrent execution of scan groups, shards, refreshes, and sessions.

The batch executor (PR 1) collapsed a dashboard refresh into a handful
of independent :class:`~repro.engine.batch.ScanGroup` units; this
package overlaps those units — and whole refreshes across dashboards
and engines — over a worker pool, and (with the third rung of the
scale-out progression, batch -> async -> **sharded**) schedules the
per-shard scan tasks that :mod:`repro.sharding` splits each group into.
Every result stays byte-identical to sequential execution.

Layers, bottom up:

- :mod:`repro.concurrency.pool` — the worker pool. ``workers=1``
  creates no pool at all, so the default path is *exactly* the
  sequential execution (no threads, no queues). Batches run on the
  process-wide pool for their worker count
  (:func:`~repro.concurrency.pool.shared_worker_pool`), so their
  threads outlive the call.
- :mod:`repro.concurrency.policy` — per-engine execution policies.
  SQLite executes scan groups with true thread parallelism (per-thread
  connections release the GIL inside the C library); the pure-Python
  stores are GIL-bound and run as a serialized task queue, overlapping
  only across engines and sessions.
- :mod:`repro.concurrency.singleflight` — concurrent identical
  computations collapse to one; the cache hardening in
  :mod:`repro.engine.cache` builds on it.
- :mod:`repro.concurrency.executor` —
  :class:`~repro.concurrency.executor.ScanGroupExecutor`, the batch
  executor that schedules one batch's scan groups — or, with
  ``shards > 1``, one task per (group, shard) plus a rollup merge —
  over the pool and reassembles results in request order.
- :mod:`repro.concurrency.sessions` — the inter-session layer:
  overlapping whole dashboard refreshes
  (:func:`~repro.concurrency.sessions.refresh_many`) and generic
  ordered task maps used by the harness and log replay.

Determinism contract: for any ``(workers, shards)`` combination, every
public entry point returns results positionally identical to its
sequential counterpart. Only wall-clock and internal scheduling change.

Thread-safety contract, in one place (each module documents its own
piece): engine calls are *leaf-granular* — a non-thread-safe engine's
per-instance :func:`~repro.concurrency.policy.execution_slot` is held
for exactly one call, never across a wait on another thread; caches
key every entry by *table generation* (read once, before any engine
work), so a result computed on pre-reload data is never served after;
concurrent identical work *single-flights* into one computation; and
SQLite runs worker threads on *per-thread replica connections*
snapshotted from the primary, invalidated by a generation counter and
pinned while a task's temp relations are live.
"""

from repro.concurrency.executor import ScanGroupExecutor
from repro.concurrency.pool import (
    WorkerPool,
    map_ordered,
    shared_worker_pool,
)
from repro.concurrency.policy import (
    SlotGatedEngine,
    execution_slot,
    parallel_scans,
    process_shard_engine,
    slot_gated,
    thread_safe,
)
from repro.concurrency.procpool import (
    ProcessShardPool,
    shared_process_pool,
    shutdown_shared_pool,
)
from repro.concurrency.sessions import (
    RefreshJob,
    execute_all,
    refresh_many,
    run_tasks,
)
from repro.concurrency.singleflight import SingleFlight

__all__ = [
    "ProcessShardPool",
    "RefreshJob",
    "ScanGroupExecutor",
    "SingleFlight",
    "SlotGatedEngine",
    "WorkerPool",
    "execute_all",
    "execution_slot",
    "map_ordered",
    "parallel_scans",
    "process_shard_engine",
    "refresh_many",
    "run_tasks",
    "shared_process_pool",
    "shared_worker_pool",
    "shutdown_shared_pool",
    "slot_gated",
    "thread_safe",
]
