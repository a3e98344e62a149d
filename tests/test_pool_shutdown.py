"""Shutdown-path contracts of the thread pools.

The executor teardown paths (``ScanGroupExecutor.close``, session
``__exit__``, interpreter exit) lean on three properties that were
previously implied but untested: shutdown is idempotent, a shut-down
``WorkerPool`` refuses new work loudly, and per-worker task accounting
survives task failure (a failed task still counts — the gauge tracks
scheduling pressure, not success).
"""

from __future__ import annotations

import pytest

from repro.concurrency.pool import WorkerPool
from repro.errors import ConfigError


def test_worker_pool_double_shutdown_is_idempotent():
    pool = WorkerPool(2)
    assert pool.submit(lambda: 41 + 1).result() == 42
    pool.shutdown()
    pool.shutdown()  # second call must be a no-op, not an error
    pool.shutdown(wait=False)


def test_worker_pool_submit_after_shutdown_raises():
    pool = WorkerPool(2)
    pool.shutdown()
    with pytest.raises(RuntimeError):
        pool.submit(lambda: 1)


def test_worker_pool_context_manager_shuts_down():
    with WorkerPool(2) as pool:
        assert pool.submit(lambda: 7).result() == 7
    with pytest.raises(RuntimeError):
        pool.submit(lambda: 1)


def test_worker_pool_counts_failing_tasks():
    pool = WorkerPool(1)
    try:
        pool.submit(lambda: 1).result()
        failing = pool.submit(_boom)
        with pytest.raises(ValueError):
            failing.result()
        pool.submit(lambda: 2).result()
        counts = pool.task_counts
        # One worker ran all three tasks; the failed one still counts.
        assert counts == {"repro-worker-0": 3}
        # The property is a snapshot copy, not live internal state.
        counts["repro-worker-0"] = 99
        assert pool.task_counts == {"repro-worker-0": 3}
    finally:
        pool.shutdown()


def _boom():
    raise ValueError("task failure for accounting test")


def test_worker_pool_rejects_zero_workers():
    with pytest.raises(ConfigError):
        WorkerPool(0)
