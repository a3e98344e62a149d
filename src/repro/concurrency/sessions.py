"""Inter-session concurrency: overlap refreshes, cells, and query runs.

The scan-group executor overlaps work *within* one batch; this layer
overlaps *between* independent units of work:

- :func:`refresh_many` — concurrent ``DashboardState.refresh`` calls:
  a multi-dashboard deployment (one backend serving several analysts)
  refreshing many dashboards at once over one pool.
- :func:`run_tasks` — a generic ordered task map the harness uses to
  overlap engine x run grid cells, and the log replayer uses to overlap
  query re-execution.
- :func:`execute_all` — one query list on one engine, overlapped when
  the engine tolerates it, sequential otherwise.

Every function takes ``workers`` and degrades to today's sequential
behavior at ``workers=1`` (a plain loop, no threads). Results always
come back in request order.

Engines that are not thread-safe are gated behind their
:func:`~repro.concurrency.policy.execution_slot`, so two concurrent
jobs on the same pure-Python store serialize while jobs on *different*
engines overlap — the multi-engine benchmark-grid shape.

Which pool a function uses follows the leaf-only rule of
:mod:`repro.concurrency.pool`: :func:`execute_all` submits single
engine calls, so it runs on the long-lived
:func:`~repro.concurrency.pool.shared_worker_pool`; :func:`run_tasks`
(and :func:`refresh_many` through it) runs tasks that dispatch batches
of their own, so it starts a pool per call — a job occupying a shared
thread while it waits on shared-pool futures could deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.engine.interface import Engine, QueryResult
from repro.concurrency.policy import execution_slot, thread_safe
from repro.concurrency.pool import WorkerPool, map_ordered, shared_worker_pool
from repro.sql.ast import Query

R = TypeVar("R")


@dataclass
class RefreshJob:
    """One dashboard refresh to schedule: a state, its engine, a policy.

    ``viz_ids=None`` refreshes every visualization. ``policy`` is the
    *intra-refresh* execution policy passed down to
    ``state.refresh`` (an :class:`~repro.execution.ExecutionPolicy`
    or preset name; ``None`` = the default shared-scan policy); the
    pool running jobs concurrently is sized by :func:`refresh_many`'s
    own ``workers`` argument.
    """

    state: object  # DashboardState (duck-typed; avoids a circular import)
    engine: Engine
    viz_ids: Sequence[str] | None = None
    policy: object = None  # ExecutionPolicy | preset name | None

    def __post_init__(self) -> None:
        from repro.execution import coerce_policy

        self.policy = coerce_policy(self.policy)


def refresh_many(
    jobs: Sequence[RefreshJob], workers: int = 1
) -> list[dict[str, QueryResult]]:
    """Run many dashboard refreshes concurrently; results in job order.

    Each job produces exactly what ``job.state.refresh(job.engine, ...)``
    returns — timed results keyed by visualization id — and jobs touch
    disjoint states, so overlap cannot change any job's result, only
    the wall-clock of the whole set.
    """

    def run_job(job: RefreshJob) -> dict[str, QueryResult]:
        with execution_slot(job.engine):
            return job.state.refresh(
                job.engine, viz_ids=job.viz_ids, policy=job.policy
            )

    return run_tasks([lambda j=job: run_job(j) for job in jobs], workers)


def run_tasks(tasks: Sequence[Callable[[], R]], workers: int = 1) -> list[R]:
    """Run zero-argument tasks over a pool; results in submission order.

    The generic overlap primitive for independent units (benchmark grid
    cells, replay chunks). Tasks are responsible for their own engine
    slots; :func:`refresh_many` shows the pattern. At ``workers <= 1``
    the tasks run in a plain loop that stops at the first failure.
    Otherwise the pool is this call's own, not a shared one: the tasks
    may run batches whose leaf work goes to the shared pools, and must
    not occupy those threads while they wait on it.
    """
    if workers <= 1:
        return [task() for task in tasks]
    pool = WorkerPool(workers)
    try:
        return map_ordered(pool, lambda task: task(), tasks)
    finally:
        pool.shutdown()


def execute_all(
    engine: Engine, queries: Sequence[Query], workers: int = 1
) -> list[QueryResult]:
    """Execute queries individually (no shared-scan optimization).

    The sequential-mode counterpart of ``execute_batch``: with
    ``workers > 1`` on a thread-safe engine, the per-query executions
    overlap on the shared pool of that many threads and reassemble in
    request order; otherwise this is a plain loop. Results are
    byte-identical either way — the queries are independent reads.
    """
    if workers <= 1 or not thread_safe(engine) or len(queries) <= 1:
        return [engine.execute_timed(q) for q in queries]
    pool = shared_worker_pool(workers)
    return map_ordered(pool, engine.execute_timed, queries)


__all__ = ["RefreshJob", "execute_all", "refresh_many", "run_tasks"]
