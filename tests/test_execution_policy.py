"""The unified ExecutionPolicy and the repro.connect() session facade.

Three contracts under test:

1. **Equivalence** — every valid
   :class:`~repro.execution.ExecutionPolicy` produces byte-identical
   results to ``ExecutionPolicy.serial()`` on every entry point
   (``execute_batch``, ``DashboardState.refresh``, ``replay_log``).
   ``policy=`` is the only way to choose one: the pre-policy per-knob
   keywords are gone.
2. **Validation** — invalid combinations fail at policy construction
   (``shards > 1`` / ``multiplan`` without batch used to silently
   no-op ten layers down).
3. **Facade** — ``repro.connect()`` produces exactly what the piecewise
   API produces, with the policy applied session-wide.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dashboard.state import DashboardState
from repro.engine import create_engine
from repro.errors import ConfigError
from repro.execution import (
    AUTO_MAX_WORKERS,
    AUTO_MIN_WORKERS,
    AUTO_ROWS_PER_SHARD,
    ExecutionPolicy,
    coerce_policy,
    compose_cli_policy,
)
from repro.logs.records import ExportedLog, LogEntry
from repro.logs.replay import replay_log
from repro.sql.formatter import format_query
from repro.sql.parser import parse_query

from tests.conftest import make_calls_table


# ---------------------------------------------------------------------------
# Construction, validation, presets
# ---------------------------------------------------------------------------


def test_default_policy_is_single_worker_batch():
    policy = ExecutionPolicy()
    assert policy.batch is True
    assert policy.workers == 1
    assert policy.shards == 1
    assert policy.multiplan is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": 0},
        {"workers": -1},
        {"shards": 0},
        {"workers": 2.5},
        {"workers": True},  # bools are not worker counts
        {"batch": False, "shards": 2},
        {"batch": False, "multiplan": True},
    ],
)
def test_invalid_combinations_raise_at_construction(kwargs):
    with pytest.raises(ConfigError):
        ExecutionPolicy(**kwargs)


def test_policy_is_frozen_and_evolve_revalidates():
    policy = ExecutionPolicy(workers=2)
    with pytest.raises(Exception):
        policy.workers = 4  # frozen dataclass
    assert policy.evolve(workers=4).workers == 4
    with pytest.raises(ConfigError):
        policy.evolve(batch=False, shards=3)


def test_presets():
    assert ExecutionPolicy.serial() == ExecutionPolicy(batch=False)
    assert ExecutionPolicy.batched() == ExecutionPolicy()
    concurrent = ExecutionPolicy.concurrent(3)
    assert concurrent == ExecutionPolicy(workers=3)
    top = ExecutionPolicy.max_throughput()
    assert top.batch and top.multiplan
    assert 1 <= top.workers <= AUTO_MAX_WORKERS
    assert top.shards == top.workers


def test_preset_names_resolve_and_normalize():
    assert ExecutionPolicy.preset("serial") == ExecutionPolicy.serial()
    assert ExecutionPolicy.preset("batch") == ExecutionPolicy()
    assert ExecutionPolicy.preset("MAX_THROUGHPUT") == (
        ExecutionPolicy.max_throughput()
    )
    assert ExecutionPolicy.preset("auto").batch is True
    with pytest.raises(ConfigError):
        ExecutionPolicy.preset("warp-speed")


def test_auto_clamps_workers_to_cpu_count(monkeypatch):
    import repro.execution as execution

    # Ceiling regime: big machines clamp to AUTO_MAX_WORKERS.
    monkeypatch.setattr(execution.os, "cpu_count", lambda: 64)
    assert ExecutionPolicy.auto().workers == AUTO_MAX_WORKERS
    # Floor regime: small (or unknown-CPU) machines still get a real
    # concurrent configuration — a 1-CPU CI runner used to degenerate
    # to one worker and one shard, silently skipping the cross-thread
    # machinery the concurrent presets exist to exercise.
    monkeypatch.setattr(execution.os, "cpu_count", lambda: 2)
    assert ExecutionPolicy.auto().workers == AUTO_MIN_WORKERS
    monkeypatch.setattr(execution.os, "cpu_count", lambda: None)
    assert ExecutionPolicy.auto().workers == AUTO_MIN_WORKERS
    monkeypatch.setattr(execution.os, "cpu_count", lambda: 1)
    top = ExecutionPolicy.max_throughput()
    assert top.workers == AUTO_MIN_WORKERS
    assert top.shards == AUTO_MIN_WORKERS


def test_backend_validates_at_construction():
    policy = ExecutionPolicy(backend="processes")
    assert policy.backend == "processes"
    assert "process-backed" in policy.describe()
    with pytest.raises(ConfigError, match="unknown backend"):
        ExecutionPolicy(backend="fibers")
    with pytest.raises(ConfigError, match="requires batch"):
        ExecutionPolicy(batch=False, backend="processes")
    with pytest.raises(ConfigError, match="requires batch"):
        ExecutionPolicy().evolve(batch=False, backend="processes")


def test_auto_picks_processes_only_on_multicore_exporting_engines(
    monkeypatch,
):
    import repro.execution as execution

    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    try:
        monkeypatch.setattr(execution.os, "cpu_count", lambda: 8)
        assert ExecutionPolicy.auto(engine).backend == "processes"
        # One CPU: worker processes only add serialization overhead.
        monkeypatch.setattr(execution.os, "cpu_count", lambda: 1)
        assert ExecutionPolicy.auto(engine).backend == "threads"
        # No engine to inspect, or one that cannot export, stays on
        # the thread backend even with spare cores.
        monkeypatch.setattr(execution.os, "cpu_count", lambda: 8)
        assert ExecutionPolicy.auto().backend == "threads"
        assert (
            ExecutionPolicy.auto(_FixedRowCountEngine(10)).backend
            == "threads"
        )
    finally:
        engine.close()


class _FixedRowCountEngine:
    """Just enough engine surface for ExecutionPolicy.auto()."""

    def __init__(self, rows):
        self._rows = rows

    def table_row_count(self, name):
        return self._rows


def test_auto_sizes_shards_from_table_row_count(monkeypatch):
    import repro.execution as execution

    monkeypatch.setattr(execution.os, "cpu_count", lambda: 8)
    # Small table: not worth sharding.
    assert ExecutionPolicy.auto(_FixedRowCountEngine(1_000), "t").shards == 1
    # Two shards' worth of rows.
    rows = 2 * AUTO_ROWS_PER_SHARD
    assert ExecutionPolicy.auto(_FixedRowCountEngine(rows), "t").shards == 2
    # Huge table: clamped to the worker count.
    rows = 100 * AUTO_ROWS_PER_SHARD
    policy = ExecutionPolicy.auto(_FixedRowCountEngine(rows), "t")
    assert policy.shards == policy.workers
    # Unknown row count: degrade to unsharded, like the executor does.
    assert ExecutionPolicy.auto(_FixedRowCountEngine(None), "t").shards == 1
    # A real engine answers through the same interface.
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    assert (
        ExecutionPolicy.auto(engine, "customer_service").shards == 1
    )  # 240 rows


def test_describe_is_one_line_and_names_the_knobs():
    for policy in (
        ExecutionPolicy.serial(),
        ExecutionPolicy(),
        ExecutionPolicy(workers=4, shards=2, multiplan=True),
        ExecutionPolicy(batch=False, workers=3),
    ):
        summary = policy.describe()
        assert "\n" not in summary and summary
    assert "4 workers" in ExecutionPolicy(workers=4).describe()
    assert "2 row-range shards" in ExecutionPolicy(shards=2).describe()
    assert "multiplan" in ExecutionPolicy(multiplan=True).describe()
    assert "sequential" in ExecutionPolicy.serial().describe()


def test_coerce_policy_rejects_non_policies():
    policy = ExecutionPolicy(workers=2)
    assert coerce_policy(policy) is policy
    assert coerce_policy("serial") == ExecutionPolicy.serial()
    assert coerce_policy(None) == ExecutionPolicy()
    with pytest.raises(ConfigError, match="preset"):
        coerce_policy(object())
    with pytest.raises(ConfigError, match="preset"):
        coerce_policy(42)


def test_compose_cli_policy():
    assert compose_cli_policy(None) is None
    assert compose_cli_policy("serial") == ExecutionPolicy.serial()
    composed = compose_cli_policy("batch", workers=4, multiplan=True)
    assert composed == ExecutionPolicy(workers=4, multiplan=True)
    # Flags without a preset start from the CLI's base default.
    assert compose_cli_policy(
        None, base=ExecutionPolicy.serial(), workers=2
    ) == ExecutionPolicy(batch=False, workers=2)
    # The old silent no-op is now a loud composition error.
    with pytest.raises(ConfigError):
        compose_cli_policy(None, base=ExecutionPolicy.serial(), shards=4)


# ---------------------------------------------------------------------------
# Equivalence: every valid policy == serial(), byte for byte
# ---------------------------------------------------------------------------


_REFRESH_SQL = [
    "SELECT queue, COUNT(*) AS n FROM customer_service GROUP BY queue",
    "SELECT queue, SUM(calls) AS total FROM customer_service GROUP BY queue",
    "SELECT hour, AVG(duration) AS avg_d FROM customer_service GROUP BY hour",
    "SELECT COUNT(*) AS n FROM customer_service WHERE hour BETWEEN 0 AND 11",
    "SELECT queue, MAX(duration) AS m FROM customer_service "
    "WHERE hour BETWEEN 0 AND 11 GROUP BY queue",
    "SELECT repID, COUNT(*) AS n FROM customer_service "
    "WHERE queue = 'A' GROUP BY repID ORDER BY n DESC LIMIT 3",
]


def _snapshot(results):
    return [
        (t.result.columns, t.result.rows, t.engine, t.sql) for t in results
    ]


def _valid_policy(batch, workers, shards, multiplan):
    """The policy for a knob draw; sequential mode has no scan groups to
    shard or combine, so those knobs only apply with ``batch``."""
    if not batch:
        shards, multiplan = 1, False
    return ExecutionPolicy(
        batch=batch, workers=workers, shards=shards, multiplan=multiplan
    )


@settings(max_examples=20, deadline=None)
@given(
    batch=st.booleans(),
    workers=st.integers(min_value=1, max_value=3),
    shards=st.integers(min_value=1, max_value=3),
    multiplan=st.booleans(),
)
def test_property_valid_policies_match_serial(
    batch, workers, shards, multiplan
):
    """Any valid policy == serial(), byte for byte — including the
    sequential path with ``workers > 1``."""
    table = make_calls_table()
    queries = [parse_query(sql) for sql in _REFRESH_SQL]
    engine = create_engine("vectorstore")
    engine.load_table(table)
    try:
        serial = engine.execute_batch(
            list(queries), ExecutionPolicy.serial()
        )
        via_policy = engine.execute_batch(
            list(queries), _valid_policy(batch, workers, shards, multiplan)
        )
        assert _snapshot(via_policy) == _snapshot(serial)
    finally:
        engine.close()


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("workers,shards,multiplan", [
    (1, 1, False),
    (3, 1, False),
    (2, 2, True),
])
def test_refresh_policy_matches_serial(
    cs_spec, batch, workers, shards, multiplan
):
    table = repro.generate_dataset("customer_service", 300, seed=3)
    engine = create_engine("sqlite")
    engine.load_table(table)
    try:
        serial = DashboardState(cs_spec, table).refresh(
            engine, policy=ExecutionPolicy.serial()
        )
        via_policy = DashboardState(cs_spec, table).refresh(
            engine, policy=_valid_policy(batch, workers, shards, multiplan)
        )
        assert {
            viz: (t.result.columns, t.result.rows)
            for viz, t in serial.items()
        } == {
            viz: (t.result.columns, t.result.rows)
            for viz, t in via_policy.items()
        }
    finally:
        engine.close()


def _exported_log(engine, table):
    """A small two-step log recorded against ``engine``'s dataset."""
    entries = []
    for step, sql in enumerate(_REFRESH_SQL):
        query = parse_query(sql)
        result = engine.execute(query)
        entries.append(
            LogEntry(
                step=step // 3,  # two steps of three queries each
                model="oracle",
                interaction="test",
                sql=format_query(query),
                rows_returned=len(result),
                duration_ms=0.1,
                elapsed_ms=0.1 * (step + 1),
                goal_index=0,
                progress_after=0.0,
            )
        )
    return ExportedLog(
        dashboard="customer_service",
        engine=engine.name,
        workflow="test",
        goals_completed=0,
        goals_total=1,
        entries=entries,
    )


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("workers,shards,multiplan", [
    (1, 1, False),
    (2, 1, False),
    (2, 3, True),
])
def test_replay_policy_matches_serial(batch, workers, shards, multiplan):
    table = make_calls_table()
    engine = create_engine("vectorstore")
    engine.load_table(table)
    try:
        log = _exported_log(engine, table)
        serial = replay_log(log, engine)  # the default is serial()
        via_policy = replay_log(
            log, engine,
            policy=_valid_policy(batch, workers, shards, multiplan),
        )
        assert serial.matched and via_policy.matched
        assert _snapshot(serial.results) == _snapshot(via_policy.results)
    finally:
        engine.close()


def test_mixing_policy_and_deprecated_kwargs_raises():
    """The per-knob keywords were removed in 2.0.0: passing one is a
    TypeError, with or without a policy alongside."""
    table = make_calls_table()
    engine = create_engine("vectorstore")
    engine.load_table(table)
    queries = [parse_query(_REFRESH_SQL[0])]
    try:
        with pytest.raises(TypeError):
            engine.execute_batch(list(queries), workers=2)
        with pytest.raises(TypeError):
            engine.execute_batch(
                list(queries), ExecutionPolicy(), workers=2
            )
    finally:
        engine.close()


def test_deprecated_kwargs_warn_and_policy_path_does_not(cs_spec):
    """The per-knob keywords no longer warn: every entry point rejects
    them with a TypeError, while the ``policy=`` path stays silent."""
    import warnings

    table = make_calls_table()
    engine = create_engine("vectorstore")
    engine.load_table(table)
    queries = [parse_query(sql) for sql in _REFRESH_SQL]
    log = _exported_log(engine, table)
    policy = ExecutionPolicy(workers=2, shards=2, multiplan=True)
    try:
        for knob, value in (
            ("batch", True), ("workers", 2), ("shards", 2), ("multiplan", True)
        ):
            with pytest.raises(TypeError):
                engine.execute_batch(list(queries), **{knob: value})
            with pytest.raises(TypeError):
                replay_log(log, engine, **{knob: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.execute_batch(list(queries), policy)
            assert replay_log(log, engine, policy=policy).matched
    finally:
        engine.close()

    dashboard_table = repro.generate_dataset("customer_service", 300, seed=3)
    sqlite = create_engine("sqlite")
    sqlite.load_table(dashboard_table)
    try:
        state = DashboardState(cs_spec, dashboard_table)
        with pytest.raises(TypeError):
            state.refresh(sqlite, workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state.refresh(sqlite, policy=policy)
    finally:
        sqlite.close()


# ---------------------------------------------------------------------------
# Configs carry one policy
# ---------------------------------------------------------------------------


def test_session_config_policy_defaults_to_serial():
    from repro.simulation.session import SessionConfig

    config = SessionConfig()
    assert config.policy == ExecutionPolicy.serial()
    # A preset name resolves at construction; replace() swaps it.
    concurrent = replace(config, policy="concurrent")
    assert concurrent.policy == ExecutionPolicy.concurrent()
    assert replace(concurrent, seed=9).policy == concurrent.policy


def test_session_config_policy_mirrors_into_legacy_fields():
    """The policy is SessionConfig's only execution field: the old
    batch/workers/shards/multiplan mirrors are gone, so passing one is
    a TypeError and the policy round-trips through replace() whole."""
    from dataclasses import fields

    from repro.simulation.session import SessionConfig

    names = {f.name for f in fields(SessionConfig)}
    assert "policy" in names
    assert names.isdisjoint({"batch", "workers", "shards", "multiplan"})
    for knob, value in (
        ("batch", True), ("workers", 2), ("shards", 2), ("multiplan", True)
    ):
        with pytest.raises(TypeError):
            SessionConfig(**{knob: value})
    policy = ExecutionPolicy(workers=3, shards=2, multiplan=True)
    config = SessionConfig(policy=policy)
    assert config.policy is policy
    assert replace(config, seed=4).policy == policy
    assert replace(config, policy=None).policy == ExecutionPolicy.serial()


def test_benchmark_config_accepts_policy_and_keeps_cell_overlap():
    from repro.harness.config import BenchmarkConfig

    assert BenchmarkConfig().policy == ExecutionPolicy.serial()
    config = BenchmarkConfig(policy=ExecutionPolicy(workers=4, shards=2))
    assert config.policy.workers == 4  # runner cell overlap
    assert config.session.policy == ExecutionPolicy(workers=4, shards=2)
    preset = BenchmarkConfig(policy="serial")
    assert preset.session.policy == ExecutionPolicy.serial()


def test_benchmark_config_propagates_backend_to_session():
    from repro.harness.config import BenchmarkConfig
    from repro.simulation.session import SessionConfig

    # A default session takes the config's whole policy, backend
    # included (regression: it used to be rebuilt as "threads",
    # silently ignoring --backend).
    config = BenchmarkConfig(
        policy=ExecutionPolicy(workers=4, shards=4, backend="processes")
    )
    assert config.session.policy.backend == "processes"
    assert config.policy.backend == "processes"
    assert "process-backed" in config.policy.describe()

    # An explicitly configured session keeps its own backend choice.
    session = SessionConfig(
        policy=ExecutionPolicy(workers=2, backend="processes")
    )
    kept = BenchmarkConfig(
        policy=ExecutionPolicy(workers=8), session=session
    )
    assert kept.session.policy.backend == "processes"


def test_benchmark_config_explicit_session_policy_wins():
    from repro.harness.config import BenchmarkConfig
    from repro.simulation.session import SessionConfig

    session = SessionConfig(policy=ExecutionPolicy(workers=2))
    config = BenchmarkConfig(
        policy=ExecutionPolicy(workers=8), session=session
    )
    # The session's explicit policy is kept whole; the config's own
    # policy still drives cell overlap.
    assert config.session.policy == ExecutionPolicy(workers=2)
    assert config.policy.workers == 8


def test_refresh_job_carries_a_policy():
    from repro.concurrency import RefreshJob

    class _Stub:
        pass

    job = RefreshJob(_Stub(), create_engine("vectorstore"))
    assert job.policy == ExecutionPolicy()
    preset = RefreshJob(
        _Stub(), create_engine("vectorstore"), policy="serial"
    )
    assert preset.policy == ExecutionPolicy.serial()


# ---------------------------------------------------------------------------
# CLI composition
# ---------------------------------------------------------------------------


def test_cli_parsers_accept_policy_presets():
    from repro.harness.cli import build_parser as harness_parser
    from repro.logs.cli import build_parser as logs_parser

    args = harness_parser().parse_args(["--policy", "concurrent"])
    assert args.policy == "concurrent"
    assert args.batch is None and args.workers is None
    args = harness_parser().parse_args(
        ["--policy", "max-throughput", "--no-multiplan"]
    )
    assert args.policy == "max-throughput" and args.multiplan is False
    args = logs_parser().parse_args(
        ["replay", "log.jsonl", "--policy", "serial", "--workers", "2"]
    )
    assert args.policy == "serial" and args.workers == 2


def test_logs_cli_replay_policy_end_to_end(tmp_path):
    from repro.logs.cli import main as logs_main
    from repro.logs.io import write_jsonl

    engine = create_engine("vectorstore")
    table = repro.generate_dataset("customer_service", 1_000, seed=0)
    engine.load_table(table)
    query = parse_query(_REFRESH_SQL[0])
    result = engine.execute(query)
    log = ExportedLog(
        dashboard="customer_service",
        engine=engine.name,
        workflow="test",
        goals_completed=0,
        goals_total=1,
        entries=[
            LogEntry(
                step=0,
                model="oracle",
                interaction="test",
                sql=format_query(query),
                rows_returned=len(result),
                duration_ms=0.1,
                elapsed_ms=0.1,
                goal_index=0,
                progress_after=0.0,
            )
        ],
    )
    path = tmp_path / "log.jsonl"
    write_jsonl(log, path)
    assert logs_main(
        ["replay", str(path), "--engine", "vectorstore",
         "--rows", "1000", "--policy", "concurrent"]
    ) == 0
    engine.close()


# ---------------------------------------------------------------------------
# The repro.connect() facade
# ---------------------------------------------------------------------------


def test_connect_refresh_matches_piecewise_api(cs_spec):
    table = repro.generate_dataset("customer_service", 300, seed=3)
    direct_engine = create_engine("sqlite")
    direct_engine.load_table(table)
    direct = DashboardState(cs_spec, table).refresh(
        direct_engine, policy=ExecutionPolicy(workers=2)
    )
    direct_engine.close()

    with repro.connect(
        "sqlite", policy=ExecutionPolicy(workers=2)
    ) as session:
        session.load(table)
        via_facade = session.refresh(cs_spec)
        assert {
            viz: (t.result.columns, t.result.rows)
            for viz, t in direct.items()
        } == {
            viz: (t.result.columns, t.result.rows)
            for viz, t in via_facade.items()
        }
        stats = session.stats
        assert stats.refreshes == 1
        assert stats.queries == len(via_facade)
        assert stats.engine == "sqlite"
        assert stats.policy == ExecutionPolicy(workers=2).describe()


def test_connect_requires_loaded_table(cs_spec):
    with repro.connect("vectorstore") as session:
        with pytest.raises(ConfigError, match="not loaded"):
            session.refresh(cs_spec)


def test_connect_replay_and_execute():
    table = make_calls_table()
    with repro.connect("vectorstore") as session:
        session.load(table)
        log = _exported_log(session.engine, table)
        report = session.replay(log)
        assert report.matched
        timed = session.execute(_REFRESH_SQL[0])
        assert timed.rows_returned == 4  # four queues
        batch = session.execute_batch(_REFRESH_SQL[:2])
        assert len(batch) == 2
        stats = session.stats
        assert stats.replays == 1
        assert stats.queries == len(log.entries) + 3


def test_connect_dashboard_state_persists_interactions():
    from repro.dashboard.state import InteractionKind

    table = repro.generate_dataset("customer_service", 300, seed=3)
    with repro.connect("vectorstore") as session:
        session.load(table)
        state = session.dashboard("customer_service")
        assert session.dashboard("customer_service") is state
        action = next(
            a
            for a in state.available_interactions()
            if a.kind is InteractionKind.WIDGET_TOGGLE
        )
        results = session.apply_and_refresh("customer_service", action)
        assert results  # the fan-out re-ran on the same live state
        assert state.widget_state[action.target] == frozenset(
            [action.value]
        )


def test_connect_cache_wrapper_reports_hit_rate():
    table = make_calls_table()
    with repro.connect("vectorstore", cache=True) as session:
        session.load(table)
        session.execute(_REFRESH_SQL[0])
        session.execute(_REFRESH_SQL[0])
        assert session.stats.cache_hit_rate == 0.5


def test_connect_accepts_engine_instances_and_presets():
    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    with repro.connect(engine, policy="serial") as session:
        assert session.engine is engine
        assert session.policy == ExecutionPolicy.serial()
        timed = session.execute(_REFRESH_SQL[0])
        assert timed.rows_returned == 4


def test_refresh_job_replace_round_trips_without_conflict():
    from repro.concurrency import RefreshJob

    class _Stub:
        pass

    job = RefreshJob(_Stub(), create_engine("vectorstore"),
                     policy=ExecutionPolicy(workers=2))
    narrowed = replace(job, viz_ids=("a",))
    assert narrowed.policy == job.policy
    assert narrowed.viz_ids == ("a",)


def test_session_load_invalidates_cached_dashboard_states():
    table_v1 = repro.generate_dataset("customer_service", 300, seed=3)
    table_v2 = repro.generate_dataset("customer_service", 400, seed=9)
    with repro.connect("vectorstore") as session:
        session.load(table_v1)
        state = session.dashboard("customer_service")
        assert state.table is table_v1
        session.load(table_v2)
        rebuilt = session.dashboard("customer_service")
        assert rebuilt is not state
        assert rebuilt.table is table_v2


def test_scan_group_executor_rejects_sequential_policies():
    from repro.concurrency import ScanGroupExecutor
    from repro.engine.batch import BatchExecutor

    engine = create_engine("vectorstore")
    engine.load_table(make_calls_table())
    queries = [parse_query(_REFRESH_SQL[0])]
    try:
        with pytest.raises(ConfigError, match="shared-scan path"):
            ScanGroupExecutor(engine, ExecutionPolicy.serial())
        with pytest.raises(ConfigError, match="shared-scan path"):
            BatchExecutor(engine, ExecutionPolicy.serial())
        executor = ScanGroupExecutor(engine)
        try:
            with pytest.raises(ConfigError, match="shared-scan path"):
                executor.run(queries, ExecutionPolicy.serial())
        finally:
            executor.close()
    finally:
        engine.close()
