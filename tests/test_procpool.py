"""Process-backed execution: cross-process correctness + fault injection.

The contracts under test, in the order the module docstring of
:mod:`repro.concurrency.procpool` states them:

1. **Byte identity.** Every (engine, shards, multiplan) cell of the
   matrix produces results identical to ``ExecutionPolicy.serial()``
   under ``backend="processes"`` — the partial-rollup algebra does not
   care which side of a process boundary the partials came from.
2. **Fault injection.** A worker killed mid-shard surfaces as a clean
   :class:`~repro.errors.ExecutionError` (never a raw
   ``BrokenProcessPool``), and the same pool serves the next run after
   respawning its workers.
3. **Generations.** An export is keyed by the table's version: a
   reload re-exports, a retired export refuses new dispatch, and a
   payload from the wrong generation is refused at collection — an
   append racing an in-flight run can never contribute
   mixed-generation partials.
4. **Lifecycle.** Shared-memory segments are unlinked on shutdown, on
   generation retirement, and — via the ``weakref.finalize`` sweep —
   when the parent exits without calling shutdown. Worker attachment
   must not leave resource_tracker noise on stderr (bpo-38119).
5. **Observability.** Worker-recorded spans re-anchor under the
   parent's shard spans, and per-pid task counts land in the
   ``pool.proc_tasks`` gauge.
"""

from __future__ import annotations

import datetime as dt
import os
import subprocess
import sys
from concurrent.futures import Future
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.concurrency import ScanGroupExecutor
from repro.concurrency.procpool import (
    FAULT_ENV,
    ProcessShardPool,
    ShardJob,
    ShardPayload,
    shutdown_shared_pool,
)
from repro.engine import create_engine
from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.execution import ExecutionPolicy
from repro.sql.parser import parse_query

from tests.conftest import make_calls_table

#: Spawn-context worker processes make this the suite's slowest file;
#: ``-m "not slow"`` gives a quick inner loop without it.
pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENGINES = ("rowstore", "vectorstore", "matstore", "sqlite")

#: One unfiltered multi-class group (multiplan-upgradable), one
#: filtered shardable group, and one ORDER BY/LIMIT group that cannot
#: shard — so the process path always coexists with local execution.
_SQL = [
    "SELECT queue, COUNT(*) AS n FROM customer_service GROUP BY queue",
    "SELECT queue, SUM(calls) AS total FROM customer_service "
    "GROUP BY queue",
    "SELECT hour, AVG(duration) AS avg_d FROM customer_service "
    "GROUP BY hour",
    "SELECT repID, MIN(duration) AS lo, MAX(duration) AS hi "
    "FROM customer_service GROUP BY repID",
    "SELECT COUNT(*) AS n FROM customer_service WHERE hour BETWEEN 0 AND 11",
    "SELECT queue, MAX(duration) AS m FROM customer_service "
    "WHERE hour BETWEEN 0 AND 11 GROUP BY queue",
    "SELECT repID, COUNT(*) AS n FROM customer_service "
    "WHERE queue = 'A' GROUP BY repID ORDER BY n DESC LIMIT 3",
]

#: Group keys named three ways — a bare column under an alias, an
#: aliased expression, a key that is not selected — which the identity
#: matrix runs beside ``_SQL``.
_KEY_NAMING_SQL = [
    "SELECT ts AS t, COUNT(*) AS n FROM customer_service GROUP BY ts",
    "SELECT HOUR(ts) AS h, SUM(calls) AS c FROM customer_service "
    "GROUP BY HOUR(ts)",
    "SELECT SUM(abandoned) AS a FROM customer_service GROUP BY repID",
]


@pytest.fixture(scope="module", autouse=True)
def _teardown_shared_pool():
    # The identity matrix routes through the module-shared pool;
    # dropping it here keeps later test modules' /dev/shm pristine.
    yield
    shutdown_shared_pool()


def _queries(sql=tuple(_SQL)):
    return [parse_query(text) for text in sql]


def _run(engine_name: str, policy: ExecutionPolicy, sql=tuple(_SQL)):
    engine = create_engine(engine_name)
    engine.load_table(make_calls_table())
    try:
        results = engine.execute_batch(_queries(sql), policy)
        return [(t.result.columns, t.result.rows) for t in results]
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# 1. Byte identity across the process boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("multiplan", [False, True])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_byte_identity_matrix(engine_name, backend, shards, multiplan):
    sql = _SQL + _KEY_NAMING_SQL
    serial = _run(engine_name, ExecutionPolicy.serial(), sql)
    policy = ExecutionPolicy(
        workers=2, shards=shards, multiplan=multiplan, backend=backend
    )
    assert _run(engine_name, policy, sql) == serial


def _dated_table():
    rows = 40
    return Table.from_columns(
        "t",
        {
            "q": [["a", "b", "c"][i % 3] for i in range(rows)],
            "day": [
                dt.date(2020, 1, 1) + dt.timedelta(days=i % 20)
                for i in range(rows)
            ],
            "ts": [
                dt.datetime(2020, 1, 1) + dt.timedelta(hours=i)
                for i in range(rows)
            ],
        },
    )


@pytest.mark.parametrize(
    "policy",
    [
        ExecutionPolicy(multiplan=True),
        ExecutionPolicy(shards=2),
        ExecutionPolicy(shards=2, multiplan=True),
        ExecutionPolicy(shards=2, backend="processes"),
    ],
    ids=["multiplan", "shards2", "shards2-multiplan", "shards2-processes"],
)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_aggregate_aliased_to_a_base_column_keeps_its_type(
    engine_name, policy
):
    """An aggregate named after a base column is typed as serial types it.

    SQLite restores date/timestamp outputs by output name, so
    ``MAX(day) AS day`` comes back a ``date`` and ``MIN(day) AS ts`` a
    ``datetime``; a merge over partials would return the ISO string.
    The third query gives multiplan a second class to combine with.
    """
    queries = [
        parse_query(sql)
        for sql in (
            "SELECT q, MAX(day) AS day FROM t GROUP BY q",
            "SELECT q, MIN(day) AS ts FROM t GROUP BY q",
            "SELECT day, COUNT(*) AS n FROM t GROUP BY day",
        )
    ]
    engine = create_engine(engine_name)
    engine.load_table(_dated_table())
    try:
        serial = engine.execute_batch(queries, ExecutionPolicy.serial())
        out = engine.execute_batch(queries, policy)
    finally:
        engine.close()
    assert [(t.result.columns, t.result.rows) for t in out] == [
        (t.result.columns, t.result.rows) for t in serial
    ]


#: Full ``BatchStats`` of every vectorstore cell of the matrix above,
#: keyed by (backend, shards, multiplan); fields not listed are zero.
#: Processes ship both shardable groups even at shards=1 (one job each).
_CELL_STATS = {
    ("threads", 1, False): dict(base_scans=5, shared_scans=1),
    ("threads", 1, True): dict(
        base_scans=3, shared_scans=1, multiplan_groups=1, multiplan_plans=3
    ),
    ("threads", 4, False): dict(
        base_scans=9, sharded_groups=2, shard_scans=8
    ),
    ("threads", 4, True): dict(
        base_scans=9, sharded_groups=2, shard_scans=8,
        multiplan_groups=1, multiplan_plans=3,
    ),
    ("processes", 1, False): dict(
        base_scans=3, sharded_groups=2, shard_scans=2, proc_shard_scans=2
    ),
    ("processes", 1, True): dict(
        base_scans=3, sharded_groups=2, shard_scans=2, proc_shard_scans=2,
        multiplan_groups=1, multiplan_plans=3,
    ),
    ("processes", 4, False): dict(
        base_scans=9, sharded_groups=2, shard_scans=8, proc_shard_scans=8
    ),
    ("processes", 4, True): dict(
        base_scans=9, sharded_groups=2, shard_scans=8, proc_shard_scans=8,
        multiplan_groups=1, multiplan_plans=3,
    ),
}


@pytest.mark.parametrize("cell", sorted(_CELL_STATS))
def test_batch_stats_per_policy_cell(cell):
    from repro.engine.batch import BatchStats

    backend, shards, multiplan = cell
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    policy = ExecutionPolicy(
        workers=2, shards=shards, multiplan=multiplan, backend=backend
    )
    executor = ScanGroupExecutor(engine, policy)
    try:
        stats = executor.run(_queries()).stats
    finally:
        executor.close()
        engine.close()
    assert stats == BatchStats(
        queries=7, groups=3, fused_queries=1, **_CELL_STATS[cell]
    )


def test_process_backend_actually_runs_shards_in_processes():
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    policy = ExecutionPolicy(workers=2, shards=3, backend="processes")
    executor = ScanGroupExecutor(engine, policy)
    try:
        batch = executor.run(_queries())
        assert batch.stats.proc_shard_scans > 0
        # Remote shard scans still count as shard scans and base scans.
        assert batch.stats.shard_scans >= batch.stats.proc_shard_scans
    finally:
        executor.close()
        engine.close()


def test_non_exporting_engine_degrades_to_threads():
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    # Instance-level opt-out shadows the class attribute: nothing in
    # the wrapper chain exports, so the backend knob degrades.
    engine.supports_process_shards = False
    policy = ExecutionPolicy(workers=2, shards=3, backend="processes")
    executor = ScanGroupExecutor(engine, policy)
    try:
        batch = executor.run(_queries())
        assert batch.stats.proc_shard_scans == 0
        serial = _run("vectorstore", ExecutionPolicy.serial())
        assert [
            (t.result.columns, t.result.rows) for t in batch.results
        ] == serial
    finally:
        executor.close()
        engine.close()


# ---------------------------------------------------------------------------
# 2. Fault injection: worker death, clean error, pool recovery
# ---------------------------------------------------------------------------


def test_worker_death_is_a_clean_error_and_the_pool_recovers():
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    serial = _run("vectorstore", ExecutionPolicy.serial())
    policy = ExecutionPolicy(workers=2, shards=2, backend="processes")
    # A private pool keeps the fault blast radius away from the
    # module-shared one. The env var must be set before the pool
    # spawns its workers (lazily, at first submit) — they inherit it.
    os.environ[FAULT_ENV] = "kill:customer_service"
    pool = ProcessShardPool(workers=2)
    executor = ScanGroupExecutor(engine, policy, proc_pool=pool)
    try:
        with pytest.raises(ExecutionError, match="worker died"):
            executor.run(_queries())
        # Recovery: the executor was discarded on failure; the next run
        # respawns workers that inherit the now-clean environment.
        del os.environ[FAULT_ENV]
        batch = executor.run(_queries())
        assert [
            (t.result.columns, t.result.rows) for t in batch.results
        ] == serial
        assert batch.stats.proc_shard_scans > 0
    finally:
        os.environ.pop(FAULT_ENV, None)
        executor.close()
        pool.shutdown()
        engine.close()


def test_worker_death_does_not_leak_segments():
    engine = create_engine("matstore")
    engine.load_table(make_calls_table())
    policy = ExecutionPolicy(workers=2, shards=2, backend="processes")
    os.environ[FAULT_ENV] = "kill"
    pool = ProcessShardPool(workers=2)
    executor = ScanGroupExecutor(engine, policy, proc_pool=pool)
    try:
        with pytest.raises(ExecutionError):
            executor.run(_queries())
        names = pool.segment_names()
        pool.shutdown()
        assert pool.segment_names() == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
    finally:
        os.environ.pop(FAULT_ENV, None)
        executor.close()
        pool.shutdown()
        engine.close()


@pytest.mark.parametrize("multiplan", [False, True])
@pytest.mark.parametrize("engine_name", ["vectorstore", "sqlite"])
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_failed_batch_settles_every_shard_and_closes_spans(
    backend, engine_name, multiplan
):
    """A group failing beside a sharded one leaves nothing in flight.

    The ``other`` group (HAVING: cannot shard) fails on its own task;
    the sharded ``events`` group's local tasks or remote jobs must
    still all settle and every span of its run must close before the
    error surfaces.
    """
    from repro.engine.table import Table
    from repro.telemetry import Telemetry, validate_spans
    from tests.test_sharding import _events_table

    engine = create_engine(engine_name)
    engine.load_table(_events_table())
    engine.load_table(
        Table.from_columns(
            "other", {"queue": ["a", "b"] * 10, "priority": list(range(20))}
        )
    )
    sql = [
        "SELECT queue, COUNT(*) AS n, SUM(priority) AS s FROM events "
        "GROUP BY queue"
    ]
    if multiplan:
        # A second class makes the events group a multi-plan run.
        sql.append(
            "SELECT status, MAX(priority) AS m FROM events GROUP BY status"
        )
    sql.append(
        "SELECT queue, COUNT(*) FROM other GROUP BY queue "
        "HAVING COUNT(nosuch) > 0"
    )
    policy = ExecutionPolicy(
        workers=2, shards=2, multiplan=multiplan, backend=backend
    )
    telemetry = Telemetry()
    try:
        with telemetry.install():
            with pytest.raises(ExecutionError):
                engine.execute_batch([parse_query(s) for s in sql], policy)
    finally:
        engine.close()
    spans = telemetry.tracer.spans()
    assert [s.name for s in spans if s.end_ms is None] == []
    assert validate_spans(spans) == []
    shard_spans = [s for s in spans if s.name.startswith("shard[")]
    assert len(shard_spans) == 2
    if backend == "processes":
        assert all("pid" in s.attrs for s in shard_spans)


# ---------------------------------------------------------------------------
# 3. Generation safety
# ---------------------------------------------------------------------------


def test_reload_retires_the_old_export_and_reexports():
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    pool = ProcessShardPool(workers=2)
    try:
        export1 = pool.export_table(engine, "customer_service")
        assert export1 is not None
        segments1 = set(pool.segment_names())
        assert segments1
        # Same generation: reused, not rebuilt.
        assert pool.export_table(engine, "customer_service") is export1
        # A reload moves the table's version; the next export is a new
        # generation and the old segments are gone (pending == 0).
        engine.load_table(make_calls_table(120))
        export2 = pool.export_table(engine, "customer_service")
        assert export2 is not export1
        assert export2.spec.version != export1.spec.version
        segments2 = set(pool.segment_names())
        assert segments2 and segments1.isdisjoint(segments2)
    finally:
        pool.shutdown()
        engine.close()


def test_sqlite_reload_of_one_table_keeps_the_others_export():
    """Two sqlite tables export to two snapshot files; reloading one
    between sharded batches re-exports only it, and both tables' results
    stay identical to serial execution."""
    first = make_calls_table()
    second = Table(
        "other",
        first.schema,
        {name: list(first.column(name)) for name in first.schema.names},
    )
    queries = _queries() + _queries(
        tuple(sql.replace("customer_service", "other") for sql in _SQL)
    )
    engine = create_engine("sqlite")
    engine.load_table(first)
    engine.load_table(second)
    pool = ProcessShardPool(workers=2)
    policy = ExecutionPolicy(workers=2, shards=2, backend="processes")

    def sharded_equals_serial():
        executor = ScanGroupExecutor(engine, policy, proc_pool=pool)
        sharded = executor.run(list(queries)).results
        serial = engine.execute_batch(list(queries), ExecutionPolicy.serial())
        assert [(t.result.columns, t.result.rows) for t in sharded] == [
            (t.result.columns, t.result.rows) for t in serial
        ]

    try:
        sharded_equals_serial()
        kept = pool.export_table(engine, "other")
        old = pool.export_table(engine, "customer_service")
        assert kept.spec.path != old.spec.path
        assert os.path.exists(kept.spec.path)
        assert os.path.exists(old.spec.path)
        engine.load_table(make_calls_table(120))
        sharded_equals_serial()
        assert pool.export_table(engine, "other") is kept
        assert os.path.exists(kept.spec.path)
        assert not os.path.exists(old.spec.path)  # retired with its version
    finally:
        pool.shutdown()
        engine.close()


def test_retired_export_with_in_flight_tasks_unlinks_after_the_last():
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    pool = ProcessShardPool(workers=2)
    try:
        export1 = pool.export_table(engine, "customer_service")
        # Simulate one dispatched-but-unfinished task, then retire the
        # generation under it: segments must survive until it settles.
        with pool._lock:
            export1.pending += 1
        engine.load_table(make_calls_table(120))
        pool.export_table(engine, "customer_service")
        assert export1.retired
        assert any(
            name in pool.segment_names()
            for seg in export1.segments
            for name in [seg.name]
        )
        pool._task_done(export1)
        assert all(
            seg_name not in pool.segment_names()
            for seg_name in [s.name for s in export1.segments]
        )
        assert export1.segments == []
    finally:
        pool.shutdown()
        engine.close()


def test_submit_refuses_a_retired_export():
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    pool = ProcessShardPool(workers=2)
    try:
        export1 = pool.export_table(engine, "customer_service")
        engine.load_table(make_calls_table(120))
        pool.export_table(engine, "customer_service")  # retires export1
        job = ShardJob(
            export_id=export1.spec.export_id,
            version=export1.spec.version,
            table="customer_service",
            shard=0,
            start=0,
            stop=10,
            temp="__batchscan_test",
            queries=(),
            predicate=None,
        )
        with pytest.raises(ExecutionError, match="mixed-generation"):
            pool.submit(export1, job)
    finally:
        pool.shutdown()
        engine.close()


def test_collect_refuses_mixed_generation_payloads():
    pool = ProcessShardPool(workers=2)
    try:
        job = ShardJob(
            export_id="u0:customer_service:2",
            version=2,
            table="customer_service",
            shard=0,
            start=0,
            stop=10,
            temp="__batchscan_test",
            queries=(),
            predicate=None,
        )
        stale = ShardPayload(
            export_id="u0:customer_service:1",
            version=1,
            shard=0,
            pid=0,
            partials=[],
            partial_ms=[],
            scan_ms=0.0,
        )
        future: Future = Future()
        future.set_result(stale)
        with pytest.raises(ExecutionError, match="mixed-generation"):
            pool.collect(future, job)
    finally:
        pool.shutdown()


# ---------------------------------------------------------------------------
# 4. Lifecycle: shutdown, parent exit, resource_tracker silence
# ---------------------------------------------------------------------------


def test_shutdown_unlinks_everything_and_is_idempotent():
    engine = create_engine("rowstore")
    engine.load_table(make_calls_table())
    pool = ProcessShardPool(workers=2)
    export = pool.export_table(engine, "customer_service")
    assert export is not None
    names = pool.segment_names()
    assert names
    pool.shutdown()
    pool.shutdown()  # idempotent
    assert pool.segment_names() == []
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    with pytest.raises(ExecutionError, match="shut down"):
        pool.export_table(engine, "customer_service")
    engine.close()


def _run_child(body: str) -> subprocess.CompletedProcess:
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]\n" + body
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_parent_exit_without_shutdown_leaves_no_orphan_segments():
    proc = _run_child(
        "from repro.concurrency.procpool import ProcessShardPool\n"
        "from repro.engine import create_engine\n"
        "from tests.conftest import make_calls_table\n"
        "engine = create_engine('vectorstore')\n"
        "engine.load_table(make_calls_table())\n"
        "pool = ProcessShardPool(workers=2)\n"
        "pool.export_table(engine, 'customer_service')\n"
        "print('\\n'.join(pool.segment_names()))\n"
        "# exit WITHOUT shutdown: the finalize sweep must unlink\n"
    )
    assert proc.returncode == 0, proc.stderr
    names = [line for line in proc.stdout.splitlines() if line.strip()]
    assert names, "child exported nothing"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_process_run_leaves_no_resource_tracker_noise():
    # Regression guard for bpo-38119: worker-side attachment must not
    # register parent-owned segments with the (shared) resource
    # tracker — the symptom was KeyError tracebacks on parent unlink.
    sql = _SQL[0]
    proc = _run_child(
        "from repro.concurrency.procpool import shutdown_shared_pool\n"
        "from repro.engine import create_engine\n"
        "from repro.execution import ExecutionPolicy\n"
        "from repro.sql.parser import parse_query\n"
        "from tests.conftest import make_calls_table\n"
        "for name in ('vectorstore', 'rowstore', 'sqlite'):\n"
        "    engine = create_engine(name)\n"
        "    engine.load_table(make_calls_table())\n"
        "    policy = ExecutionPolicy(workers=2, shards=3,"
        " backend='processes')\n"
        f"    engine.execute_batch([parse_query({sql!r})], policy)\n"
        "    engine.close()\n"
        "shutdown_shared_pool()\n"
        "print('CHILD-OK')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "CHILD-OK" in proc.stdout
    for marker in ("resource_tracker", "KeyError", "Traceback"):
        assert marker not in proc.stderr, proc.stderr


# ---------------------------------------------------------------------------
# 5. Observability: remote spans and per-pid gauges
# ---------------------------------------------------------------------------


def test_remote_spans_reanchor_under_parent_shard_spans():
    from repro.telemetry import Telemetry, validate_spans

    engine = create_engine("matstore")
    engine.load_table(make_calls_table())
    policy = ExecutionPolicy(workers=2, shards=2, backend="processes")
    telemetry = Telemetry()
    try:
        with telemetry.install():
            engine.execute_batch(_queries(), policy)
    finally:
        engine.close()
    spans = telemetry.tracer.spans()
    assert validate_spans(spans) == []
    by_id = {span.span_id: span for span in spans}
    shard_spans = [
        s
        for s in spans
        if s.name.startswith("shard[")
        and s.attrs.get("backend") == "processes"
    ]
    assert shard_spans, "no process-dispatched shard spans recorded"
    for span in shard_spans:
        assert by_id[span.parent_id].name == "scan_group"
        assert "pid" in span.attrs
    remote = [s for s in spans if s.thread.startswith("pid-")]
    assert remote, "worker-recorded spans were not adopted"
    names = {s.name for s in remote}
    assert "shard_materialize" in names
    for span in remote:
        parent = by_id[span.parent_id]
        assert parent.name.startswith("shard[")
        # Re-anchored into the parent's timeline, inside the shard span.
        assert span.start_ms >= parent.start_ms
        assert span.end_ms is not None


def test_proc_tasks_gauge_counts_per_pid():
    from repro.telemetry import Telemetry

    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    policy = ExecutionPolicy(workers=2, shards=4, backend="processes")
    telemetry = Telemetry()
    try:
        with telemetry.install():
            engine.execute_batch(_queries(), policy)
    finally:
        engine.close()
    snapshot = telemetry.registry.snapshot()
    gauges = {
        key: value
        for key, value in snapshot["gauges"].items()
        if key.startswith("pool.proc_tasks{")
    }
    assert gauges, f"no pool.proc_tasks gauges in {snapshot['gauges']}"
    assert all(value >= 1 for value in gauges.values())
    assert snapshot["counters"].get("batch.proc_shard_scans", 0) > 0
