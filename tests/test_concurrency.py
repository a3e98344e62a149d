"""Tests for the concurrent scan-group executor and cache hardening.

Three contracts:

1. **Determinism** — for every engine and any ``workers`` value, every
   concurrent entry point (``execute_batch``, ``refresh``,
   ``refresh_many``, ``replay_log``, the harness runner) returns
   results byte-identical to its sequential counterpart.
2. **Thread-safety** — :class:`~repro.engine.cache.CachedEngine` and
   :class:`~repro.engine.sqlite_engine.SQLiteEngine` survive being
   hammered from many threads: no lost invalidations (a stale result
   served after its table mutated), no corruption.
3. **Work deduplication** — concurrent identical queries and scan
   groups single-flight into one engine computation.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.concurrency import (
    RefreshJob,
    ScanGroupExecutor,
    SingleFlight,
    WorkerPool,
    map_ordered,
    refresh_many,
    run_tasks,
    shared_worker_pool,
)
from repro.dashboard.library import DASHBOARD_NAMES, load_dashboard
from repro.dashboard.state import DashboardState, InteractionKind
from repro.engine.batch import BatchExecutor
from repro.engine.cache import CachedEngine
from repro.engine.instrument import CountingEngine, DispatchLatencyEngine
from repro.engine.interface import Engine, EngineWrapper, ResultSet
from repro.engine.registry import create_engine
from repro.engine.table import Table
from repro.execution import ExecutionPolicy
from repro.sql.parser import parse_query
from repro.workload.datasets import generate_dataset

ENGINES = ["rowstore", "vectorstore", "matstore", "sqlite"]


def _events_table(rows: int = 400, seed: int = 7) -> Table:
    rng = random.Random(seed)
    return Table.from_columns(
        "events",
        {
            "queue": [rng.choice(["a", "b", "c", "d"]) for _ in range(rows)],
            "status": [
                rng.choice(["open", "closed", "waiting"])
                for _ in range(rows)
            ],
            "priority": [rng.randint(1, 5) for _ in range(rows)],
            "latency": [round(rng.uniform(0.0, 90.0), 3) for _ in range(rows)],
        },
    )


def _assert_identical(sequential, batched, context: str) -> None:
    assert len(sequential) == len(batched), context
    for i, (seq, timed) in enumerate(zip(sequential, batched)):
        assert seq.columns == timed.result.columns, f"{context} [{i}] columns"
        assert seq.rows == timed.result.rows, f"{context} [{i}] rows"


# ---------------------------------------------------------------------------
# Pools and single-flight primitives
# ---------------------------------------------------------------------------


def test_run_tasks_serial_propagates_keyboard_interrupt_immediately():
    """Ctrl-C during an inline task must abort the task list at once,
    not drain the remaining tasks first."""
    executed = []

    def task(i):
        if i == 1:
            raise KeyboardInterrupt
        executed.append(i)
        return i

    with pytest.raises(KeyboardInterrupt):
        run_tasks([lambda i=i: task(i) for i in range(5)], workers=1)
    assert executed == [0]  # nothing after the interrupt ran


def test_run_tasks_serial_fails_fast():
    """Sequential mode keeps sequential semantics: a failure aborts the
    task list at the failing item instead of draining the rest."""
    executed = []

    def task(i):
        if i == 2:
            raise ValueError("boom")
        executed.append(i)
        return i

    with pytest.raises(ValueError, match="boom"):
        run_tasks([lambda i=i: task(i) for i in range(6)], workers=1)
    assert executed == [0, 1]


def test_map_ordered_preserves_order_and_raises_first_error():
    with WorkerPool(4) as pool:
        assert map_ordered(pool, lambda x: x * x, range(20)) == [
            x * x for x in range(20)
        ]

    def explode(x):
        if x in (3, 7):
            raise ValueError(f"boom {x}")
        return x

    with WorkerPool(4) as pool:
        with pytest.raises(ValueError, match="boom 3"):
            map_ordered(pool, explode, range(10))


def test_single_flight_dedupes_concurrent_callers():
    flight = SingleFlight()
    calls = []
    barrier = threading.Barrier(6)

    def compute():
        calls.append(1)
        time.sleep(0.05)
        return "value"

    results = []

    def caller():
        barrier.wait()
        results.append(flight.do("key", compute))

    threads = [threading.Thread(target=caller) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert [value for value, _ in results] == ["value"] * 6
    assert sum(1 for _, leader in results if leader) == 1
    assert flight.in_flight == 0


# ---------------------------------------------------------------------------
# Property: workers=N is byte-identical to sequential, all engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("dashboard", ["customer_service", "it_monitor"])
def test_dashboard_walk_workers4_identical(engine_name, dashboard):
    spec = load_dashboard(dashboard)
    table = generate_dataset(dashboard, 300, seed=11)
    engine = create_engine(engine_name)
    engine.load_table(table)
    state = DashboardState(spec, table)
    rng = random.Random(29)
    walks = [state.initial_queries()]
    for _ in range(3):
        actions = state.available_interactions()
        preferred = [
            a
            for a in actions
            if a.kind
            in (InteractionKind.WIDGET_TOGGLE, InteractionKind.WIDGET_SET)
        ] or actions
        walks.append(state.apply(rng.choice(preferred)))
    for step, queries in enumerate(walks):
        sequential = [engine.execute(q) for q in queries]
        concurrent = engine.execute_batch(queries, ExecutionPolicy(workers=4))
        _assert_identical(
            sequential, concurrent,
            f"{engine_name}/{dashboard} step {step}",
        )
    engine.close()


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_mix_workers4_identical(engine_name, seed):
    """Randomized query mixes: grouping/fusion/shared-scan/fallbacks."""
    from tests.test_engine_batch import _random_query

    rng = random.Random(seed)
    engine = create_engine(engine_name)
    engine.load_table(_events_table())
    queries = [_random_query(rng) for _ in range(18)]
    sequential = [engine.execute(q) for q in queries]
    concurrent = engine.execute_batch(queries, ExecutionPolicy(workers=4))
    _assert_identical(
        sequential, concurrent, f"{engine_name} seed={seed} workers=4"
    )
    engine.close()


def test_workers1_takes_the_sequential_path_exactly():
    """ScanGroupExecutor at workers=1 matches BatchExecutor in results
    *and* statistics — it is the same code path, not a lookalike."""
    queries = [
        parse_query(
            "SELECT queue, COUNT(*) AS n FROM events "
            "WHERE status = 'open' GROUP BY queue"
        ),
        parse_query(
            "SELECT status, SUM(latency) AS s FROM events "
            "WHERE status = 'open' GROUP BY status"
        ),
        parse_query("SELECT COUNT(*) AS n FROM events"),
    ]
    plain = create_engine("vectorstore")
    plain.load_table(_events_table())
    reference = BatchExecutor(plain).run(list(queries))
    concurrent = ScanGroupExecutor(plain, ExecutionPolicy(workers=1)).run(
        list(queries)
    )
    _assert_identical(
        [t.result for t in reference.results], concurrent.results, "workers=1"
    )
    for field in ("queries", "groups", "base_scans", "shared_scans",
                  "fused_queries", "fallbacks"):
        assert getattr(concurrent.stats, field) == getattr(
            reference.stats, field
        ), field
    plain.close()


def test_cached_engine_batch_workers_identical_and_invalidating():
    engine = CachedEngine(create_engine("sqlite"))
    engine.load_table(_events_table())
    queries = [
        parse_query(
            "SELECT queue, COUNT(*) AS n FROM events "
            "WHERE priority = 2 GROUP BY queue"
        ),
        parse_query(
            "SELECT status, MAX(latency) AS hi FROM events "
            "WHERE priority = 2 GROUP BY status"
        ),
        parse_query("SELECT COUNT(*) AS n FROM events WHERE priority = 2"),
    ]
    sequential = [engine.execute(q) for q in queries]
    for _ in range(2):  # second round exercises the scan-group cache
        concurrent = engine.execute_batch(queries, ExecutionPolicy(workers=4))
        _assert_identical(sequential, concurrent, "cached workers=4")
    # Mutation invalidates; the next batch reflects the new data.
    engine.load_table(_events_table(rows=100, seed=8))
    fresh = [engine.execute(q) for q in queries]
    concurrent = engine.execute_batch(queries, ExecutionPolicy(workers=4))
    _assert_identical(fresh, concurrent, "cached workers=4 after reload")
    engine.close()


# ---------------------------------------------------------------------------
# SQLite across threads (the latent check_same_thread failure)
# ---------------------------------------------------------------------------


def test_sqlite_engine_usable_from_worker_threads():
    engine = create_engine("sqlite")
    engine.load_table(_events_table())
    query = parse_query(
        "SELECT queue, COUNT(*) AS n, SUM(latency) AS s FROM events "
        "WHERE priority >= 2 GROUP BY queue"
    )
    expected = engine.execute(query)
    outcomes: dict[int, ResultSet | Exception] = {}

    def worker(idx: int) -> None:
        try:
            outcomes[idx] = engine.execute(query)
        except Exception as exc:  # pragma: no cover - failure path
            outcomes[idx] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for idx, outcome in outcomes.items():
        assert isinstance(outcome, ResultSet), f"thread {idx}: {outcome!r}"
        assert outcome.rows == expected.rows
    engine.close()


def test_sqlite_replicas_see_reloaded_data():
    """A base-table load invalidates every thread's replica snapshot."""
    engine = create_engine("sqlite")
    engine.load_table(_events_table(rows=200))
    count = parse_query("SELECT COUNT(*) AS n FROM events")

    def threaded_count() -> int:
        box = {}
        t = threading.Thread(
            target=lambda: box.update(r=engine.execute(count))
        )
        t.start()
        t.join()
        return box["r"].rows[0][0]

    assert threaded_count() == 200
    engine.load_table(_events_table(rows=50))
    assert threaded_count() == 50
    engine.close()


def test_sqlite_batch_shared_scans_in_worker_threads():
    """Temp materializations stay private to each worker's connection."""
    engine = create_engine("sqlite")
    engine.load_table(_events_table())
    queries = [
        parse_query(
            f"SELECT {dim}, COUNT(*) AS n, AVG(latency) AS a FROM events "
            f"WHERE status = 'open' GROUP BY {dim}"
        )
        for dim in ("queue", "priority", "status")
    ] + [
        parse_query(
            f"SELECT {dim}, COUNT(*) AS n FROM events "
            f"WHERE priority = 3 GROUP BY {dim}"
        )
        for dim in ("queue", "status")
    ]
    sequential = [engine.execute(q) for q in queries]
    for _ in range(3):
        concurrent = engine.execute_batch(queries, ExecutionPolicy(workers=4))
        _assert_identical(sequential, concurrent, "sqlite shared scans")
    engine.close()


def test_sqlite_concurrent_same_group_batches_keep_types():
    """Two threads batching the same (table, predicate) group on one
    shared engine: each execution's temp relation (and its schema
    registration) must stay independent, or temporal columns silently
    decay to raw strings when one thread's unload races another."""
    import datetime as dt

    engine = create_engine("sqlite")
    engine.load_table(
        Table.from_columns(
            "orders",
            {
                "day": [dt.date(2024, 1, 1 + i % 5) for i in range(60)],
                "queue": ["a", "b", "c"] * 20,
                "total": [float(i) for i in range(60)],
            },
        )
    )
    batch_a = [
        parse_query(
            "SELECT day, COUNT(*) AS n FROM orders "
            "WHERE queue = 'a' GROUP BY day"
        ),
        parse_query(
            "SELECT day, SUM(total) AS s FROM orders "
            "WHERE queue = 'a' GROUP BY day"
        ),
    ]
    batch_b = [
        parse_query(
            "SELECT day, MAX(total) AS hi FROM orders "
            "WHERE queue = 'a' GROUP BY day"
        ),
        parse_query(
            "SELECT day, MIN(total) AS lo FROM orders "
            "WHERE queue = 'a' GROUP BY day"
        ),
    ]
    expected_a = [engine.execute(q) for q in batch_a]
    expected_b = [engine.execute(q) for q in batch_b]
    errors: list[AssertionError] = []
    barrier = threading.Barrier(2)

    def hammer(batch, expected):
        barrier.wait()
        try:
            for _ in range(20):
                _assert_identical(
                    expected, engine.execute_batch(list(batch)),
                    "concurrent same-group",
                )
        except AssertionError as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(batch_a, expected_a)),
        threading.Thread(target=hammer, args=(batch_b, expected_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]
    # Every result row must still carry real date objects.
    assert all(
        isinstance(row[0], dt.date) for row in expected_a[0].rows
    )
    engine.close()


def test_sqlite_owner_reads_race_worker_writes():
    """Owner-thread queries on the primary must serialize against base
    loads from worker threads — same connection, so an open read cursor
    otherwise makes the DDL fail with 'database table is locked'."""
    engine = create_engine("sqlite")
    engine.load_table(_events_table(rows=300))
    query = parse_query(
        "SELECT queue, COUNT(*) AS n, SUM(latency) AS s FROM events "
        "GROUP BY queue"
    )
    stop = threading.Event()
    errors: list[Exception] = []

    def loader():
        while not stop.is_set():
            try:
                engine.load_table(_events_table(rows=300))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    thread = threading.Thread(target=loader)
    thread.start()
    try:
        deadline = time.monotonic() + 0.4
        while time.monotonic() < deadline:
            engine.execute(query)  # owner thread, primary connection
    except Exception as exc:  # pragma: no cover - failure path
        errors.append(exc)
    finally:
        stop.set()
        thread.join()
    assert not errors, errors[0]
    engine.close()


def test_cached_engine_reuses_persistent_pool():
    """A long-lived CachedEngine must not pay thread + replica-snapshot
    startup on every batch: every batch runs on the same threads."""
    sqlite = create_engine("sqlite")
    recorder = _ThreadRecorder(sqlite)
    engine = CachedEngine(recorder)
    engine.load_table(_events_table())
    queries = [
        parse_query(
            f"SELECT queue, COUNT(*) AS n FROM events "
            f"WHERE priority = {p} GROUP BY queue"
        )
        for p in (1, 2, 3)
    ]
    engine.execute_batch(list(queries), ExecutionPolicy(workers=3))
    assert recorder.threads
    for _ in range(5):
        engine.invalidate()  # force real engine work each round
        engine.execute_batch(list(queries), ExecutionPolicy(workers=3))
    assert len(recorder.threads) <= 3  # same threads, not new ones
    # Replicas are bounded by the pool's thread count, not call count.
    assert len(sqlite._replicas) <= 3
    engine.close()


def test_benchmark_config_session_workers_do_not_enable_cell_overlap():
    from repro.harness.config import BenchmarkConfig
    from repro.simulation.session import SessionConfig

    fan_out = ExecutionPolicy(batch=False, workers=4)
    config = BenchmarkConfig(session=SessionConfig(policy=fan_out))
    assert config.policy.workers == 1  # runner stays sequential
    assert config.session.policy == fan_out
    overlapped = ExecutionPolicy(batch=False, workers=3)
    mirrored = BenchmarkConfig(policy=overlapped)
    assert mirrored.policy.workers == 3
    assert mirrored.session.policy == overlapped  # default sessions follow


def test_sqlite_inflight_temp_survives_concurrent_base_load():
    """A base-table load must not invalidate a worker's replica while a
    scan group's temp relation is still live on it — the group finishes
    against its snapshot instead of crashing with 'no such table'."""
    from repro.engine.batch import TEMP_PREFIX
    from repro.sql.parser import parse_expression

    engine = create_engine("sqlite")
    engine.load_table(_events_table())
    temp = f"{TEMP_PREFIX}events_test_pin"
    steps = {"materialized": threading.Event(), "loaded": threading.Event()}
    outcome: dict[str, object] = {}

    def worker():
        try:
            assert engine.materialize_filtered(
                temp, "events", parse_expression("status = 'open'")
            )
            steps["materialized"].set()
            steps["loaded"].wait(timeout=5.0)
            outcome["result"] = engine.execute(
                parse_query(f'SELECT COUNT(*) AS n FROM "{temp}"')
            )
            engine.unload_table(temp)
        except Exception as exc:  # pragma: no cover - failure path
            outcome["error"] = exc

    thread = threading.Thread(target=worker)
    thread.start()
    assert steps["materialized"].wait(timeout=5.0)
    # Bump the generation mid-group: the worker's replica is pinned.
    engine.load_table(
        Table.from_columns("other", {"x": [1, 2, 3]})
    )
    steps["loaded"].set()
    thread.join(timeout=10.0)
    assert "error" not in outcome, outcome["error"]
    result = outcome["result"]
    assert isinstance(result, ResultSet) and result.rows[0][0] > 0
    engine.close()


def test_sqlite_replicas_reclaimed_with_pool_threads():
    """Replicas are per worker thread, not per call: repeated batches
    must not accumulate database copies until close()."""
    import gc

    engine = create_engine("sqlite")
    engine.load_table(_events_table())
    queries = [
        parse_query(
            f"SELECT queue, COUNT(*) AS n FROM events "
            f"WHERE priority = {p} GROUP BY queue"
        )
        for p in (1, 2, 3)
    ]
    for _ in range(12):
        engine.execute_batch(list(queries), ExecutionPolicy(workers=3))
    gc.collect()
    # Live replicas are bounded by the shared pool's thread count.
    assert len(engine._replicas) <= 3, len(engine._replicas)
    engine.close()


# ---------------------------------------------------------------------------
# Long-lived worker threads: one shared pool per worker count
# ---------------------------------------------------------------------------


class _ThreadRecorder(EngineWrapper):
    """Transparent wrapper noting every worker thread that calls it.

    Holds the :class:`threading.Thread` objects themselves, so a thread
    started by a later call counts as new even if the OS reuses an
    earlier thread's ident.
    """

    def __init__(self, inner: Engine) -> None:
        super().__init__(inner)
        self.threads: set[threading.Thread] = set()

    def _note(self) -> None:
        thread = threading.current_thread()
        if thread.name.startswith("repro-worker-"):
            self.threads.add(thread)

    def execute(self, query):
        self._note()
        return super().execute(query)

    def materialize_filtered(self, name, source, predicate, row_range=None):
        self._note()
        return super().materialize_filtered(
            name, source, predicate, row_range
        )


def _priority_queries(priorities=(1, 2, 3, 4)):
    """One independent scan group per priority."""
    return [
        parse_query(
            f"SELECT queue, COUNT(*) AS n, SUM(priority) AS s FROM events "
            f"WHERE priority = {p} GROUP BY queue"
        )
        for p in priorities
    ]


def test_shared_worker_pool_is_one_pool_per_count():
    assert shared_worker_pool(2) is shared_worker_pool(2)
    assert shared_worker_pool(3) is not shared_worker_pool(2)
    assert shared_worker_pool(3).workers == 3


def test_bare_sqlite_batches_reuse_worker_threads_and_replicas():
    """Repeated sharded batches on a bare engine start no thread and
    snapshot no replica after the first."""
    sqlite = create_engine("sqlite")
    engine = _ThreadRecorder(sqlite)
    engine.load_table(_events_table())
    queries = _priority_queries()
    sequential = [engine.execute(q) for q in queries]
    policy = ExecutionPolicy(workers=2, shards=2)
    for _ in range(6):
        _assert_identical(
            sequential, engine.execute_batch(list(queries), policy), "reuse"
        )
    assert 1 <= len(engine.threads) <= 2, engine.threads
    assert len(sqlite._replicas) <= 2, len(sqlite._replicas)
    engine.close()


def test_sequential_replay_reuses_worker_threads():
    """A multi-step replay under workers=2, batch=False runs every
    step's fan-out on the same two threads."""
    from repro.logs.records import export_session
    from repro.logs.replay import replay_log
    from repro.simulation.session import SessionConfig, SessionSimulator
    from repro.simulation.workflows import get_workflow

    spec = load_dashboard("customer_service")
    table = generate_dataset("customer_service", 300, seed=5)
    reference = create_engine("vectorstore")
    reference.load_table(table)
    goals = get_workflow("shneiderman").instantiate_for_dashboard(
        spec, random.Random(5)
    )
    log = export_session(
        SessionSimulator(
            spec, table, [g.query for g in goals],
            measured_engine=reference, reference_engine=reference,
            config=SessionConfig(seed=5),
        ).run()
    )
    assert len({entry.step for entry in log.entries}) > 2
    sqlite = create_engine("sqlite")
    engine = _ThreadRecorder(sqlite)
    engine.load_table(table)
    serial = replay_log(log, engine, policy=ExecutionPolicy.serial())
    overlapped = replay_log(
        log, engine, policy=ExecutionPolicy(workers=2, batch=False)
    )
    assert serial.matched and overlapped.matched
    assert [r.result for r in serial.results] == [
        r.result for r in overlapped.results
    ]
    assert 1 <= len(engine.threads) <= 2, engine.threads
    assert len(sqlite._replicas) <= 2, len(sqlite._replicas)
    engine.close()
    reference.close()


def test_refresh_many_nests_sharded_batches_without_deadlock():
    """refresh_many's jobs dispatch their own parallel batches: the jobs
    run on a per-call pool, their leaf work on the shared one, so
    nesting completes and matches the jobs run one after another."""
    policy = ExecutionPolicy(workers=2, shards=2)
    jobs = []
    for name in DASHBOARD_NAMES[:4]:
        table = generate_dataset(name, 300, seed=11)
        engine = create_engine("sqlite")
        engine.load_table(table)
        state = DashboardState(load_dashboard(name), table)
        jobs.append(RefreshJob(state, engine, policy=policy))
    serial = refresh_many(jobs, workers=1)
    outcome: dict[str, object] = {}

    def nested():
        outcome["results"] = refresh_many(jobs, workers=2)

    thread = threading.Thread(target=nested, daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "refresh_many deadlocked"
    for seq, conc in zip(serial, outcome["results"]):
        assert seq.keys() == conc.keys()
        for viz_id in seq:
            assert seq[viz_id].result == conc[viz_id].result, viz_id
    for job in jobs:
        job.engine.close()


def test_cached_engine_later_batch_gets_its_own_worker_count():
    """A workers=4 batch after a workers=2 batch runs on four threads,
    not on the first batch's two."""
    recorder = _ThreadRecorder(
        DispatchLatencyEngine(create_engine("vectorstore"), latency_ms=20.0)
    )
    engine = CachedEngine(recorder)
    engine.load_table(_events_table())
    queries = _priority_queries()
    engine.execute_batch(list(queries), ExecutionPolicy(workers=2))
    engine.invalidate()
    recorder.threads.clear()
    engine.execute_batch(list(queries), ExecutionPolicy(workers=4))
    assert len(recorder.threads) == 4, recorder.threads
    engine.close()


def test_sqlite_replicas_released_with_engine():
    """Shared threads outlive every engine, so an engine collected
    without close() must still close its replicas."""
    import gc

    engine = create_engine("sqlite")
    engine.load_table(_events_table())
    engine.execute_batch(_priority_queries(), ExecutionPolicy(workers=2))
    replicas = engine._replicas
    assert replicas
    del engine
    gc.collect()
    assert replicas == []


# ---------------------------------------------------------------------------
# CachedEngine under fire
# ---------------------------------------------------------------------------


class _SlowEngine(Engine):
    """Delegating wrapper that makes every execute take a beat —
    widens race windows so the stress tests actually overlap."""

    def __init__(self, inner: Engine, delay_s: float = 0.003) -> None:
        self._inner = inner
        self._delay_s = delay_s
        self.name = inner.name
        self.thread_safe = inner.thread_safe
        self.parallel_scans = inner.parallel_scans

    def load_table(self, table):
        self._inner.load_table(table)

    def unload_table(self, name):
        self._inner.unload_table(name)

    def table_schema(self, name):
        return self._inner.table_schema(name)

    def materialize_filtered(self, name, source, predicate):
        return self._inner.materialize_filtered(name, source, predicate)

    def table_version(self, name):
        return self._inner.table_version(name)

    def execute(self, query):
        time.sleep(self._delay_s)
        return self._inner.execute(query)

    def close(self):
        self._inner.close()


def _version_table(version: int) -> Table:
    """All rows carry ``version`` so any result dates itself."""
    return Table.from_columns(
        "events",
        {
            "queue": ["a", "b"] * 10,
            "version": [version] * 20,
        },
    )


@pytest.mark.parametrize("inner_name", ["rowstore", "sqlite"])
def test_cached_engine_stress_no_lost_invalidation(inner_name):
    """Readers and reloaders hammer one CachedEngine; after the dust
    settles, the cache must serve the final version — a stale entry
    surviving the last invalidation is the lost-invalidation bug."""
    engine = CachedEngine(_SlowEngine(create_engine(inner_name), 0.0005))
    engine.load_table(_version_table(0))
    queries = [
        parse_query("SELECT MAX(version) AS v FROM events"),
        parse_query(
            "SELECT queue, MAX(version) AS v FROM events GROUP BY queue"
        ),
        parse_query("SELECT COUNT(*) AS n FROM events WHERE version >= 0"),
    ]
    stop = threading.Event()
    errors: list[Exception] = []

    def reader():
        rng = random.Random(threading.get_ident())
        while not stop.is_set():
            try:
                engine.execute(rng.choice(queries))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    def reloader():
        version = 1
        while not stop.is_set():
            try:
                engine.load_table(_version_table(version))
                version += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return
            time.sleep(0.002)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    threads.append(threading.Thread(target=reloader))
    for t in threads:
        t.start()
    time.sleep(0.4)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[0]

    final = 999
    engine.load_table(_version_table(final))
    for query in queries:
        for _ in range(2):  # second read exercises the cached entry
            result = engine.execute(query)
            for row in result.rows:
                assert final in row or row == (20,), (query.select, row)
    engine.close()


def test_flight_follower_after_invalidation_recomputes():
    """A caller arriving *after* a load_table completed must never be
    served by a flight leader that started on the pre-mutation data."""

    class _GatedEngine(Engine):
        """First execute blocks until released; later ones run free.

        thread_safe like SQLite: loads proceed while a read is in
        flight (a slot-serialized inner cannot race this way at all —
        its load waits for the in-flight execute).
        """

        thread_safe = True

        def __init__(self, inner):
            self._inner = inner
            self.name = inner.name
            self.started = threading.Event()
            self.release = threading.Event()
            self._first = True

        def load_table(self, table):
            self._inner.load_table(table)

        def table_schema(self, name):
            return self._inner.table_schema(name)

        def table_version(self, name):
            return self._inner.table_version(name)

        def execute(self, query):
            # Compute first, *then* stall: the first caller ends up
            # holding a result of the pre-mutation snapshot.
            result = self._inner.execute(query)
            if self._first:
                self._first = False
                self.started.set()
                assert self.release.wait(timeout=10.0)
            return result

        def close(self):
            self._inner.close()

    gated = _GatedEngine(create_engine("vectorstore"))
    engine = CachedEngine(gated)
    engine.load_table(_version_table(0))
    query = parse_query("SELECT MAX(version) AS v FROM events")

    leader_box = {}
    leader = threading.Thread(
        target=lambda: leader_box.update(r=engine.execute(query))
    )
    leader.start()
    assert gated.started.wait(timeout=5.0)  # leader is inside compute
    engine.load_table(_version_table(1))  # completes while leader hangs
    follower_box = {}
    follower = threading.Thread(
        target=lambda: follower_box.update(r=engine.execute(query))
    )
    follower.start()
    time.sleep(0.05)  # follower reaches the flight
    gated.release.set()
    leader.join(timeout=10.0)
    follower.join(timeout=10.0)
    assert leader_box["r"].rows == [(0,)]  # leader saw the old snapshot
    assert follower_box["r"].rows == [(1,)]  # post-load caller sees v1
    # And the stale leader result must not have been cached:
    assert engine.execute(query).rows == [(1,)]
    engine.close()


def test_scan_group_cache_drops_a_store_at_a_superseded_generation():
    """A group computed before a reload is never cached, and a lookup
    at the new generation misses rather than serving the old rows."""
    from repro.engine.cache import ScanGroupCache
    from repro.engine.interface import ResultSet as RS

    engine = create_engine("vectorstore")
    engine.load_table(_version_table(0))
    cache = ScanGroupCache(engine.table_version)
    old = cache.epoch("events")  # read before computing
    engine.load_table(_version_table(1))  # the reload lands mid-compute
    new = cache.epoch("events")
    assert new > old
    cache.store("events", "pred", {"sql": RS(["v"], [(0,)])}, epoch=old)
    assert cache.size == 0
    assert cache.lookup("events", "pred", new) == {}
    cache.store("events", "pred", {"sql": RS(["v"], [(1,)])}, epoch=new)
    assert cache.lookup("events", "pred", new)["sql"].rows == [(1,)]
    assert cache.lookup("events", "pred", old) == {}
    engine.close()


def test_cached_engine_concurrent_identical_queries_compute_once():
    counting = CountingEngine(_SlowEngine(create_engine("vectorstore"), 0.02))
    engine = CachedEngine(counting)
    engine.load_table(_events_table())
    query = parse_query(
        "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue"
    )
    expected = None
    barrier = threading.Barrier(8)
    outcomes: list[ResultSet] = []
    lock = threading.Lock()

    def caller():
        barrier.wait()
        result = engine.execute(query)
        with lock:
            outcomes.append(result)

    threads = [threading.Thread(target=caller) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = engine.execute(query)
    assert counting.base_scans() == 1  # single-flight: one inner compute
    assert all(o.rows == expected.rows for o in outcomes)
    assert engine.hits == 8  # 7 followers + 1 post-hoc cache hit
    assert engine.misses == 1
    engine.close()


def test_concurrent_identical_refreshes_share_scan_groups():
    """Two sessions refreshing the same dashboard state at the same
    instant must not both pay the scan: the group single-flights."""
    counting = CountingEngine(_SlowEngine(create_engine("vectorstore"), 0.01))
    engine = CachedEngine(counting)
    engine.load_table(_events_table())
    queries = [
        parse_query(
            f"SELECT {dim}, COUNT(*) AS n FROM events "
            f"WHERE status = 'open' GROUP BY {dim}"
        )
        for dim in ("queue", "priority")
    ]
    baseline_scans = []
    barrier = threading.Barrier(4)
    outcomes: list[list] = [None] * 4

    def refresher(idx: int):
        barrier.wait()
        outcomes[idx] = engine.execute_batch(list(queries))

    threads = [
        threading.Thread(target=refresher, args=(i,)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # One shared scan (the materialization counts as the base scan);
    # every concurrent refresh rode it.
    assert counting.base_scans() == 1
    reference = [engine.execute(q) for q in queries]
    for outcome in outcomes:
        _assert_identical(reference, outcome, "concurrent refresh")
    engine.close()


def test_no_deadlock_between_flight_and_engine_slot():
    """Regression: a batch task following a query flight while a direct
    execute's leader needs the engine slot must not deadlock (leaf-
    granular slots, never held across a flight wait)."""
    engine = CachedEngine(_SlowEngine(create_engine("rowstore"), 0.005))
    engine.load_table(_events_table())
    engine.load_table(
        Table.from_columns(
            "queues",
            {"name": ["a", "b", "c", "d"], "region": ["x", "x", "y", "y"]},
        )
    )
    # A join query is unbatchable: inside execute_batch it falls back
    # to the CachedEngine itself, where it can join a flight led by the
    # direct-execute thread.
    join = parse_query(
        "SELECT region, COUNT(*) AS n FROM events "
        "JOIN queues ON events.queue = queues.name GROUP BY region"
    )
    grouped = parse_query(
        "SELECT queue, COUNT(*) AS n FROM events "
        "WHERE status = 'open' GROUP BY queue"
    )
    stop = threading.Event()
    errors: list[Exception] = []

    def batcher():
        while not stop.is_set():
            try:
                engine.execute_batch([grouped, join])
                engine.invalidate()  # keep both threads off the fast path
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    def direct():
        while not stop.is_set():
            try:
                engine.execute(join)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    threads = [
        threading.Thread(target=batcher, daemon=True),
        threading.Thread(target=direct, daemon=True),
        threading.Thread(target=direct, daemon=True),
    ]
    for t in threads:
        t.start()
    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join(timeout=10.0)
    hung = [t for t in threads if t.is_alive()]
    assert not hung, "deadlock: flight leader vs engine slot"
    assert not errors, errors[0]
    engine.close()


def test_shared_latency_engine_concurrent_identical_batches():
    """Two sessions pushing the *same* scan group through one shared
    thread-safe wrapper over a pure-Python store: unique temp names
    keep the executions from dropping each other's relations."""
    engine = DispatchLatencyEngine(create_engine("rowstore"), 0.0)
    engine.load_table(_events_table())
    queries = [
        parse_query(
            f"SELECT {dim}, COUNT(*) AS n FROM events "
            f"WHERE status = 'open' GROUP BY {dim}"
        )
        for dim in ("queue", "priority", "status")
    ]
    expected = [engine.execute(q) for q in queries]
    errors: list[Exception] = []
    barrier = threading.Barrier(3)

    def refresher():
        barrier.wait()
        try:
            for _ in range(15):
                _assert_identical(
                    expected, engine.execute_batch(list(queries)),
                    "shared latency engine",
                )
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=refresher) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]
    engine.close()


# ---------------------------------------------------------------------------
# Inter-session layer
# ---------------------------------------------------------------------------


def test_refresh_many_matches_sequential_across_dashboards():
    jobs = []
    for name in DASHBOARD_NAMES:
        spec = load_dashboard(name)
        table = generate_dataset(name, 200, seed=13)
        engine = create_engine("sqlite")
        engine.load_table(table)
        jobs.append(RefreshJob(DashboardState(spec, table), engine))
    sequential = refresh_many(jobs, workers=1)
    concurrent = refresh_many(jobs, workers=4)
    assert len(sequential) == len(concurrent) == len(jobs)
    for seq, conc in zip(sequential, concurrent):
        assert seq.keys() == conc.keys()
        for viz_id in seq:
            assert seq[viz_id].result == conc[viz_id].result, viz_id
    for job in jobs:
        job.engine.close()


def test_refresh_many_serializes_non_thread_safe_engines():
    """All six dashboards on ONE pure-Python engine instance: the
    execution slot must serialize them into a correct task queue."""
    engine = create_engine("rowstore")
    jobs = []
    for name in DASHBOARD_NAMES[:3]:
        spec = load_dashboard(name)
        table = generate_dataset(name, 150, seed=17)
        engine.load_table(table)
        jobs.append(RefreshJob(DashboardState(spec, table), engine))
    sequential = refresh_many(jobs, workers=1)
    concurrent = refresh_many(jobs, workers=4)
    for seq, conc in zip(sequential, concurrent):
        for viz_id in seq:
            assert seq[viz_id].result == conc[viz_id].result, viz_id
    engine.close()


def test_replay_workers_identical(tmp_path):
    from repro.logs.records import export_session
    from repro.logs.replay import replay_log
    from repro.simulation.session import SessionConfig, SessionSimulator
    from repro.simulation.workflows import get_workflow

    spec = load_dashboard("customer_service")
    table = generate_dataset("customer_service", 400, seed=5)
    measured = create_engine("vectorstore")
    measured.load_table(table)
    reference = create_engine("vectorstore")
    reference.load_table(table)
    goals = get_workflow("shneiderman").instantiate_for_dashboard(
        spec, random.Random(5)
    )
    log = export_session(
        SessionSimulator(
            spec, table, [g.query for g in goals],
            measured_engine=measured, reference_engine=reference,
            config=SessionConfig(seed=5),
        ).run()
    )
    replay_engine = create_engine("sqlite")
    replay_engine.load_table(table)
    for batch in (False, True):
        seq = replay_log(
            log, replay_engine, policy=ExecutionPolicy(batch=batch)
        )
        conc = replay_log(
            log, replay_engine,
            policy=ExecutionPolicy(batch=batch, workers=4),
        )
        assert seq.matched and conc.matched
        assert [r.rows_returned for r in seq.results] == [
            r.rows_returned for r in conc.results
        ]
        assert [r.result.rows for r in seq.results] == [
            r.result.rows for r in conc.results
        ]
    replay_engine.close()
    measured.close()
    reference.close()


def test_latency_engine_overlaps_round_trips():
    """The serving-scenario wrapper: round trips overlap across workers
    even where compute cannot, and results stay identical."""
    inner = create_engine("vectorstore")
    engine = DispatchLatencyEngine(inner, latency_ms=20.0)
    engine.load_table(_events_table())
    # Four distinct filters -> four independent scan groups.
    queries = [
        parse_query(
            f"SELECT queue, COUNT(*) AS n FROM events "
            f"WHERE priority = {p} GROUP BY queue"
        )
        for p in (1, 2, 3, 4)
    ]
    sequential = [engine.execute(q) for q in queries]

    start = time.perf_counter()
    concurrent = engine.execute_batch(queries, ExecutionPolicy(workers=4))
    overlapped_s = time.perf_counter() - start
    _assert_identical(sequential, concurrent, "latency engine")
    # 4 groups x 20 ms round trip each: sequential pays >= 80 ms,
    # overlapped should land well under it.
    assert overlapped_s < 0.070, overlapped_s
    engine.close()
