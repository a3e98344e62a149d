"""Worker pools: long-lived shared ones, and per-call ones.

:class:`WorkerPool` wraps a :class:`~concurrent.futures.ThreadPoolExecutor`.
``workers=1`` everywhere in the system creates no pool at all — the
callers run their units in a plain loop — so the default configuration
runs the exact sequential code path.

:func:`shared_worker_pool` hands out the process's long-lived
``WorkerPool`` for one worker count, created on first use and never
shut down. Leaf engine work — a batch's scan-group and shard tasks, a
sequential batch's per-query executions — runs there, so worker
threads (and the SQLite replicas they hold) outlive the call that
started them. The rule that keeps it deadlock-free: **only leaf engine
work is submitted to a shared pool.** A task that itself dispatches a
batch (a ``refresh_many`` job, a harness grid cell) would block a
shared thread on futures queued behind it, so such tasks run on a
per-call ``WorkerPool`` instead.

Result ordering is the caller's job; :func:`map_ordered` is the shared
helper: submit everything, gather in submission order, and only after
every task settled re-raise the first (submission-order) failure. The
wait-then-raise discipline matters — callers hand tasks shared output
slots, so no task may still be running when an exception propagates.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigError
from repro.telemetry import metrics as _metrics

T = TypeVar("T")
R = TypeVar("R")


class WorkerPool:
    """A thread-backed pool for overlapping engine work.

    Threads suit this system's unit of work: SQLite releases the GIL
    inside the C library (true parallelism on multi-core hosts), and
    latency-bound deployments (client/server round trips) overlap even
    on one core. The pure-Python engines gain only cross-engine overlap
    — the per-engine policies in :mod:`repro.concurrency.policy` keep
    their tasks serialized.

    Threads are named deterministically (``repro-worker-0`` … in
    creation order), so trace timelines and per-worker gauges are
    stable identifiers across runs of the same pool size.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError("worker pool needs at least one worker")
        self.workers = workers
        self._thread_ids = itertools.count()
        self._task_counts: dict[str, int] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="repro-worker",
            initializer=self._name_worker,
        )

    def _name_worker(self) -> None:
        # ThreadPoolExecutor spawns threads lazily but serially, so the
        # counter assigns 0..workers-1 in creation order.
        threading.current_thread().name = (
            f"repro-worker-{next(self._thread_ids)}"
        )

    def submit(self, fn: Callable[..., R], /, *args, **kwargs) -> "Future[R]":
        return self._executor.submit(self._run, fn, args, kwargs)

    def _run(self, fn, args, kwargs):
        # Each worker writes only its own key (dict ops are atomic
        # under the GIL), so the counts need no lock.
        name = threading.current_thread().name
        count = self._task_counts.get(name, 0) + 1
        self._task_counts[name] = count
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.set_gauge("pool.worker_tasks", count, worker=name)
        return fn(*args, **kwargs)

    @property
    def task_counts(self) -> dict[str, int]:
        """Tasks executed so far, per worker thread (snapshot copy)."""
        return dict(self._task_counts)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


_SHARED: dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_worker_pool(workers: int) -> WorkerPool:
    """The process's long-lived pool of exactly ``workers`` threads.

    Pools are keyed by count, so a batch asking for four workers runs
    on four threads whatever ran before it. Each is created on first
    use and kept for the life of the process (idle threads cost
    nothing, and the interpreter joins them at exit); callers never
    shut it down. Submit only leaf engine work (see the module
    docstring).
    """
    with _SHARED_LOCK:
        pool = _SHARED.get(workers)
        if pool is None:
            pool = _SHARED[workers] = WorkerPool(workers)
        return pool


def map_ordered(
    pool: WorkerPool,
    fn: Callable[[T], R],
    items: Iterable[T],
) -> list[R]:
    """Apply ``fn`` over ``items`` on the pool; results in input order.

    All futures settle before anything is raised, so a failing task can
    never leave siblings running against shared state; the first
    failure *by submission order* then propagates (deterministic
    regardless of completion order).
    """
    futures: Sequence[Future] = [pool.submit(fn, item) for item in items]
    results: list[R] = []
    first_error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:
            if first_error is None:
                first_error = exc
            results.append(None)  # type: ignore[arg-type]
    if first_error is not None:
        raise first_error
    return results


__all__ = [
    "WorkerPool",
    "map_ordered",
    "shared_worker_pool",
]
