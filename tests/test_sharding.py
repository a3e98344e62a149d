"""Tests for sharded scan-group execution and partial-aggregate rollup.

Core property: for every engine and every ``(shards, workers)``
combination, ``execute_batch(queries, ExecutionPolicy(workers=w,
shards=s))`` returns
results byte-identical to sequential per-query execution — same
columns, same rows, same order.

Float exactness note: the rollup re-associates floating-point addition
(per-shard SUMs are rounded before the merge SUM), so the byte-identity
property holds whenever partial sums are exactly representable. The
tables here use integers and dyadic-rational floats (multiples of
0.25), for which IEEE-754 addition is exact; see
:mod:`repro.engine.multiplan` for the boundary.
"""

from __future__ import annotations

import datetime as dt
import random

import pytest

from repro.concurrency import ScanGroupExecutor
from repro.dashboard.library import load_dashboard
from repro.dashboard.state import DashboardState, InteractionKind
from repro.engine.batch import BatchExecutor
from repro.engine.cache import CachedEngine
from repro.engine.instrument import CountingEngine
from repro.engine.interface import normalize_value
from repro.engine.multiplan import build_multiplan
from repro.engine.registry import create_engine
from repro.engine.table import Table
from repro.execution import ExecutionPolicy
from repro.errors import ConfigError
from repro.sharding import Partitioner, RowRange
from repro.sql.parser import parse_query
from repro.workload.datasets import generate_dataset

ENGINES = ["rowstore", "vectorstore", "matstore", "sqlite"]


def _events_table(rows: int = 240, seed: int = 3) -> Table:
    """Deterministic table with NULLs and exactly-summable floats."""
    rng = random.Random(seed)
    return Table.from_columns(
        "events",
        {
            "queue": [rng.choice(["a", "b", "c", None]) for _ in range(rows)],
            "status": [
                rng.choice(["open", "closed", "waiting"]) for _ in range(rows)
            ],
            "priority": [rng.randint(1, 5) for _ in range(rows)],
            # Dyadic floats: partial sums are exact in IEEE double.
            "latency": [
                None if rng.random() < 0.1 else rng.randint(0, 360) * 0.25
                for _ in range(rows)
            ],
            "day": [
                dt.date(2024, 1, 1) + dt.timedelta(days=rng.randint(0, 6))
                for _ in range(rows)
            ],
            "flag": [bool(rng.randint(0, 1)) for _ in range(rows)],
        },
    )


def _assert_identical(sequential, batched, context: str) -> None:
    assert len(sequential) == len(batched), context
    for i, (seq, timed) in enumerate(zip(sequential, batched)):
        assert seq.columns == timed.result.columns, f"{context} [{i}] columns"
        assert seq.rows == timed.result.rows, f"{context} [{i}] rows"


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------


def test_partitioner_covers_rows_exactly_once():
    for shards in (1, 2, 3, 7, 16):
        for rows in (0, 1, 5, 100, 101):
            ranges = Partitioner(shards).split(rows)
            assert len(ranges) == shards
            covered = [i for r in ranges for i in range(r.start, r.stop)]
            assert covered == list(range(rows)), (shards, rows)
            sizes = [r.num_rows for r in ranges]
            assert max(sizes) - min(sizes) <= 1  # near-equal


def test_partitioner_more_shards_than_rows_yields_empty_ranges():
    ranges = Partitioner(8).split(3)
    assert sum(r.num_rows for r in ranges) == 3
    assert any(r.is_empty for r in ranges)


def test_partitioner_rejects_invalid_inputs():
    with pytest.raises(ConfigError):
        Partitioner(0)
    with pytest.raises(ConfigError):
        Partitioner(2).split(-1)
    with pytest.raises(ConfigError):
        RowRange(3, 2)


# ---------------------------------------------------------------------------
# Per-class partial/merge planning
# ---------------------------------------------------------------------------


def test_single_plan_decomposes_avg_into_sum_and_count():
    from repro.sql.formatter import format_query

    plan = build_multiplan(
        [
            parse_query(
                "SELECT queue, AVG(latency) AS a FROM events GROUP BY queue"
            )
        ],
        _events_table().schema,
    )
    assert plan is not None
    partial = format_query(plan.partial_query("__batchscan_t", "events"))
    assert "SUM(latency)" in partial and "COUNT(latency)" in partial
    assert "AVG" not in partial
    merge = format_query(plan.plans[0].merge_query("__batchscan_p"))
    assert "* 1.0 /" in merge  # float division on every engine


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT queue FROM events",  # projection: concatenates, not rolls up
        "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue "
        "ORDER BY n DESC",
        "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue LIMIT 2",
        "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue "
        "HAVING COUNT(*) > 3",
        "SELECT DISTINCT queue FROM events",
        "SELECT COUNT(DISTINCT queue) AS n FROM events",
        "SELECT COUNT(*) FROM events",  # unaliased: engine-dependent name
    ],
)
def test_single_plan_rejects_undecomposable_queries(sql):
    assert build_multiplan([parse_query(sql)], _events_table().schema) is None


# ---------------------------------------------------------------------------
# Property: (shards, workers) x engines is byte-identical to sequential
# ---------------------------------------------------------------------------

_SUITE = [
    # One no-filter group fusing three shapes, incl. decomposed AVG.
    "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue",
    "SELECT queue, AVG(latency) AS a, SUM(latency) AS s FROM events "
    "GROUP BY queue",
    "SELECT day, MIN(latency) AS lo, MAX(latency) AS hi FROM events "
    "GROUP BY day",
    # A filtered group.
    "SELECT status, COUNT(latency) AS nv FROM events "
    "WHERE priority >= 3 GROUP BY status",
    "SELECT status, AVG(priority) AS ap FROM events "
    "WHERE priority >= 3 GROUP BY status",
    # Global aggregates (one row even over empty shards).
    "SELECT COUNT(*) AS n, SUM(latency) AS s FROM events "
    "WHERE status = 'open'",
    # Unshardable shapes ride along through the pre-existing path.
    "SELECT queue, COUNT(*) AS n FROM events WHERE priority >= 3 "
    "GROUP BY queue ORDER BY n DESC LIMIT 2",
    "SELECT DISTINCT status FROM events WHERE priority >= 3",
]


@pytest.mark.parametrize("engine_name", ENGINES)
def test_sharded_batch_identical_to_sequential(engine_name):
    engine = create_engine(engine_name)
    engine.load_table(_events_table())
    queries = [parse_query(sql) for sql in _SUITE]
    sequential = [engine.execute(q) for q in queries]
    for shards in (1, 2, 3, 5):
        for workers in (1, 4):
            out = engine.execute_batch(
                list(queries), ExecutionPolicy(workers=workers, shards=shards)
            )
            _assert_identical(
                sequential, out,
                f"{engine_name} shards={shards} workers={workers}",
            )
    engine.close()


#: Group keys named three ways: a bare column under an alias, an
#: aliased expression, and a key that is not selected at all — plus a
#: filtered class, which keeps its own plan under multiplan.
_KEY_NAMING_SUITE = [
    "SELECT day AS d, COUNT(*) AS n FROM events GROUP BY day",
    "SELECT YEAR(day) AS y, SUM(priority) AS sp FROM events "
    "GROUP BY YEAR(day)",
    "SELECT COUNT(*) AS n, MAX(latency) AS hi FROM events GROUP BY status",
    "SELECT day AS d, AVG(latency) AS a FROM events WHERE priority >= 3 "
    "GROUP BY day",
]


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize(
    "policy",
    [
        ExecutionPolicy(shards=2),
        ExecutionPolicy(workers=2, shards=3),
        ExecutionPolicy(shards=2, multiplan=True),
    ],
    ids=["shards2", "workers2-shards3", "shards2-multiplan"],
)
def test_key_naming_shapes_identical_to_serial(engine_name, policy):
    engine = create_engine(engine_name)
    engine.load_table(_events_table())
    queries = [parse_query(sql) for sql in _KEY_NAMING_SUITE]
    serial = engine.execute_batch(list(queries), ExecutionPolicy.serial())
    out = engine.execute_batch(list(queries), policy)
    _assert_identical([t.result for t in serial], out, engine_name)
    engine.close()


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("seed", [0, 1])
def test_random_mix_sharded_identical(engine_name, seed):
    """Randomized query mixes (shardable and not) stay byte-identical.

    The random generator draws non-dyadic latencies, so SUM/AVG results
    are compared after 9-digit normalization — the float-rounding
    boundary the rollup documents; everything else must match exactly.
    """
    from tests.test_engine_batch import _random_query

    rng = random.Random(seed)
    engine = create_engine(engine_name)
    rows = 300
    engine.load_table(
        Table.from_columns(
            "events",
            {
                "queue": [rng.choice("abcd") for _ in range(rows)],
                "status": [
                    rng.choice(["open", "closed", "waiting"])
                    for _ in range(rows)
                ],
                "priority": [rng.randint(1, 5) for _ in range(rows)],
                "latency": [
                    round(rng.uniform(0.0, 90.0), 3) for _ in range(rows)
                ],
            },
        )
    )
    queries = [_random_query(rng) for _ in range(15)]
    sequential = [engine.execute(q) for q in queries]
    out = engine.execute_batch(
        list(queries), ExecutionPolicy(workers=4, shards=3)
    )
    for i, (seq, timed) in enumerate(zip(sequential, out)):
        assert seq.columns == timed.result.columns, i
        normalized_seq = [
            tuple(normalize_value(v) for v in row) for row in seq.rows
        ]
        normalized_out = [
            tuple(normalize_value(v) for v in row)
            for row in timed.result.rows
        ]
        assert normalized_seq == normalized_out, (engine_name, seed, i)
    engine.close()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_dashboard_walk_sharded_identical(engine_name):
    """A real dashboard session's refreshes, sharded, stay identical.

    Dashboard datasets round measures to arbitrary decimals, so AVG/SUM
    cells are compared after normalization (see the module docstring);
    grouping, ordering, and counts must match exactly.
    """
    spec = load_dashboard("customer_service")
    table = generate_dataset("customer_service", 300, seed=11)
    engine = create_engine(engine_name)
    engine.load_table(table)
    state = DashboardState(spec, table)
    rng = random.Random(5)
    walks = [state.initial_queries()]
    for _ in range(2):
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
        out = engine.execute_batch(
            list(queries), ExecutionPolicy(workers=2, shards=4)
        )
        for i, (seq, timed) in enumerate(zip(sequential, out)):
            assert seq.columns == timed.result.columns, (step, i)
            assert [
                tuple(normalize_value(v) for v in row) for row in seq.rows
            ] == [
                tuple(normalize_value(v) for v in row)
                for row in timed.result.rows
            ], (engine_name, step, i)
    engine.close()


def test_shards1_takes_the_exact_preexisting_path():
    """shards=1 matches BatchExecutor in results *and* statistics, and
    never reaches the sharded machinery at all."""
    queries = [parse_query(sql) for sql in _SUITE[:5]]
    plain = create_engine("vectorstore")
    plain.load_table(_events_table())
    reference = BatchExecutor(plain).run(list(queries))
    executor = ScanGroupExecutor(plain, ExecutionPolicy(workers=1, shards=1))
    sharded_off = executor.run(list(queries))
    _assert_identical(
        [t.result for t in reference.results], sharded_off.results, "shards=1"
    )
    for field in (
        "queries", "groups", "base_scans", "shared_scans", "fused_queries",
        "cache_hits", "fallbacks", "sharded_groups", "shard_scans",
    ):
        assert getattr(sharded_off.stats, field) == getattr(
            reference.stats, field
        ), field
    assert sharded_off.stats.sharded_groups == 0
    assert sharded_off.stats.shard_scans == 0
    plain.close()


def test_sharded_stats_count_per_shard_scans():
    engine = create_engine("vectorstore")
    engine.load_table(_events_table())
    queries = [parse_query(sql) for sql in _SUITE[:3]]  # one scan group
    executor = ScanGroupExecutor(engine, ExecutionPolicy(shards=4))
    result = executor.run(list(queries))
    assert result.stats.sharded_groups == 1
    assert result.stats.shard_scans == 4  # one scan task per shard
    assert result.stats.base_scans == 4
    engine.close()


# ---------------------------------------------------------------------------
# Aggregate-decomposition edge cases (all engines)
# ---------------------------------------------------------------------------


def _edge_table() -> Table:
    """60 rows engineered so shard boundaries hit the edge cases:

    - rows 0..9 carry the only non-NULL ``sparse`` values, so with
      several shards most shards aggregate ``sparse`` over NULLs only;
    - ``allnull`` is NULL everywhere (MIN/MAX over all-NULL partitions);
    - predicate ``priority = 9`` matches exactly one row (AVG over
      empty shards everywhere else); ``priority = 99`` matches none.
    """
    rows = 60
    return Table.from_columns(
        "edge",
        {
            "grp": [["x", "y", "z"][i % 3] for i in range(rows)],
            "sparse": [i * 0.5 if i < 10 else None for i in range(rows)],
            "allnull": [None] * rows,
            "priority": [9 if i == 37 else i % 5 for i in range(rows)],
            "v": [i for i in range(rows)],
        },
    )


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("shards", [2, 4, 16])
def test_avg_over_empty_shards(engine_name, shards):
    engine = create_engine(engine_name)
    engine.load_table(_edge_table())
    queries = [
        # One matching row somewhere in the middle: every other shard
        # contributes an empty partial.
        parse_query(
            "SELECT AVG(v) AS a, COUNT(*) AS n FROM edge WHERE priority = 9"
        ),
        # No matching rows at all: AVG must come out NULL.
        parse_query(
            "SELECT AVG(v) AS a, COUNT(*) AS n FROM edge WHERE priority = 99"
        ),
        # AVG over a column that is NULL outside the first shard.
        parse_query("SELECT grp, AVG(sparse) AS a FROM edge GROUP BY grp"),
    ]
    sequential = [engine.execute(q) for q in queries]
    out = engine.execute_batch(list(queries), ExecutionPolicy(shards=shards))
    _assert_identical(sequential, out, f"{engine_name} shards={shards}")
    engine.close()


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("shards", [2, 4, 16])
def test_min_max_over_all_null_shard_partitions(engine_name, shards):
    engine = create_engine(engine_name)
    engine.load_table(_edge_table())
    queries = [
        parse_query(
            "SELECT grp, MIN(sparse) AS lo, MAX(sparse) AS hi FROM edge "
            "GROUP BY grp"
        ),
        parse_query(
            "SELECT MIN(allnull) AS lo, MAX(allnull) AS hi FROM edge"
        ),
        parse_query(
            "SELECT grp, MIN(allnull) AS lo FROM edge GROUP BY grp"
        ),
    ]
    sequential = [engine.execute(q) for q in queries]
    out = engine.execute_batch(list(queries), ExecutionPolicy(shards=shards))
    _assert_identical(sequential, out, f"{engine_name} shards={shards}")
    # The all-NULL aggregates really are NULL.
    assert out[1].result.rows == [(None, None)]
    engine.close()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_count_star_vs_count_col_rollup_equivalence(engine_name):
    """COUNT(*) counts rows per shard, COUNT(col) counts non-NULLs;
    both roll up through SUM and must match sequential exactly."""
    engine = create_engine(engine_name)
    engine.load_table(_edge_table())
    queries = [
        parse_query(
            "SELECT grp, COUNT(*) AS all_rows, COUNT(sparse) AS non_null, "
            "COUNT(allnull) AS none FROM edge GROUP BY grp"
        ),
        parse_query(
            "SELECT COUNT(*) AS all_rows, COUNT(sparse) AS non_null "
            "FROM edge"
        ),
    ]
    sequential = [engine.execute(q) for q in queries]
    for shards in (2, 3, 8):
        out = engine.execute_batch(
            list(queries), ExecutionPolicy(shards=shards)
        )
        _assert_identical(sequential, out, f"{engine_name} shards={shards}")
    grouped = out[0].result
    non_null = dict(zip(grouped.column("grp"), grouped.column("non_null")))
    assert sum(non_null.values()) == 10  # only rows 0..9 are non-NULL
    assert all(row[3] == 0 for row in grouped.rows)  # COUNT(allnull) = 0
    engine.close()


# ---------------------------------------------------------------------------
# Caching, invalidation, and instrumentation
# ---------------------------------------------------------------------------


def test_cached_engine_sharded_repeats_and_invalidation():
    inner = CountingEngine(create_engine("sqlite"))
    engine = CachedEngine(inner)
    engine.load_table(_events_table())
    queries = [parse_query(sql) for sql in _SUITE[:5]]
    sequential = [engine.execute(q) for q in queries]
    first = engine.execute_batch(
        list(queries), ExecutionPolicy(workers=2, shards=4)
    )
    _assert_identical(sequential, first, "sharded cold")
    scans_after_first = inner.base_scans()
    # A repeated refresh is served from the scan-group cache: zero new
    # base scans, identical results.
    second = engine.execute_batch(
        list(queries), ExecutionPolicy(workers=2, shards=4)
    )
    _assert_identical(sequential, second, "sharded warm")
    assert inner.base_scans() == scans_after_first
    # Mutation invalidates; the next sharded batch sees the new data.
    engine.load_table(_events_table(rows=60, seed=9))
    fresh = [engine.execute(q) for q in queries]
    third = engine.execute_batch(
        list(queries), ExecutionPolicy(workers=2, shards=4)
    )
    _assert_identical(fresh, third, "sharded after reload")
    engine.close()


def test_counting_engine_reports_per_shard_scans():
    inner = CountingEngine(create_engine("vectorstore"))
    inner.load_table(_events_table())
    queries = [parse_query(sql) for sql in _SUITE[:3]]  # one scan group
    inner.execute_batch(list(queries), ExecutionPolicy(shards=4))
    assert inner.shard_scans.get("events") == 4
    assert inner.scans.get("events") == 4
    inner.close()


def test_sharded_refresh_jobs_match_unsharded():
    from repro.concurrency import RefreshJob, refresh_many

    spec = load_dashboard("customer_service")
    table = generate_dataset("customer_service", 200, seed=13)

    def job(shards):
        engine = create_engine("sqlite")
        engine.load_table(table)
        return RefreshJob(
            DashboardState(spec, table), engine,
            policy=ExecutionPolicy(workers=2, shards=shards),
        )

    jobs = [job(1), job(4)]
    unsharded, sharded = refresh_many(jobs, workers=2)
    assert unsharded.keys() == sharded.keys()
    for viz_id in unsharded:
        assert (
            unsharded[viz_id].result.columns == sharded[viz_id].result.columns
        )
        assert [
            tuple(normalize_value(v) for v in row)
            for row in unsharded[viz_id].result.rows
        ] == [
            tuple(normalize_value(v) for v in row)
            for row in sharded[viz_id].result.rows
        ], viz_id
    for j in jobs:
        j.engine.close()


def test_replay_sharded_identical(tmp_path):
    from repro.logs.records import export_session
    from repro.logs.replay import replay_log
    from repro.simulation.session import SessionConfig, SessionSimulator
    from repro.simulation.workflows import get_workflow

    spec = load_dashboard("customer_service")
    table = generate_dataset("customer_service", 300, seed=5)
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
    plain = replay_log(log, replay_engine, policy=ExecutionPolicy())
    sharded = replay_log(
        log, replay_engine, policy=ExecutionPolicy(workers=2, shards=3)
    )
    assert plain.matched and sharded.matched
    assert [r.rows_returned for r in plain.results] == [
        r.rows_returned for r in sharded.results
    ]
    replay_engine.close()
    measured.close()
    reference.close()


def test_session_config_shards_mirrors_into_benchmark_config():
    from repro.harness.config import BenchmarkConfig
    from repro.simulation.session import SessionConfig

    config = BenchmarkConfig(policy=ExecutionPolicy(shards=4))
    assert config.session.policy.shards == 4
    assert config.policy.shards == 4
    explicit = BenchmarkConfig(
        session=SessionConfig(policy=ExecutionPolicy(shards=2))
    )
    assert explicit.session.policy.shards == 2
    with pytest.raises(ConfigError):
        BenchmarkConfig(policy=ExecutionPolicy(shards=0))


def test_fully_cached_sharded_group_schedules_no_tasks():
    """A warm repeat refresh must not submit no-op shard tasks."""
    from repro.engine.cache import ScanGroupCache
    from repro.sharding.executor import plan_sharded_group

    engine = create_engine("vectorstore")
    engine.load_table(_events_table())
    queries = [parse_query(sql) for sql in _SUITE[:3]]  # one scan group
    executor = ScanGroupExecutor(
        engine,
        ExecutionPolicy(shards=4),
        group_cache=ScanGroupCache(engine.table_version),
    )
    executor.run(list(queries))  # cold: populates the group cache
    from repro.engine.batch import BatchStats, group_queries
    from repro.sharding import Partitioner

    groups = group_queries(list(queries))
    results = [None] * len(queries)
    stats = BatchStats()
    run = plan_sharded_group(
        executor, groups[0], Partitioner(4), results, stats
    )
    assert stats.cache_hits == len(queries)  # all served at plan time
    assert run.scan_tasks() == []  # nothing left to schedule
    assert run.merge(results).sharded_groups == 0
    engine.close()


def test_mutation_between_plan_and_merge_is_not_cached():
    """The generation is read before the row count: a table reloaded
    anywhere after plan start must drop the cache store (its generation
    is no longer current), never serve stale-range results to later
    refreshes."""
    from repro.engine.cache import ScanGroupCache
    from repro.engine.interface import Engine

    inner = create_engine("vectorstore")
    cache = ScanGroupCache(inner.table_version)

    class ReloadOnRowCount(Engine):
        """A concurrent reload landing right after planning reads the
        table extent: the first row count loads a new generation."""

        thread_safe = True

        def __init__(self):
            self.name = inner.name
            self.reloaded = False

        def load_table(self, table):
            inner.load_table(table)

        def unload_table(self, name):
            inner.unload_table(name)

        def table_schema(self, name):
            return inner.table_schema(name)

        def table_version(self, name):
            return inner.table_version(name)

        def table_row_count(self, name):
            count = inner.table_row_count(name)
            if not self.reloaded:  # the concurrent mutation
                self.reloaded = True
                inner.load_table(_events_table(rows=300))
            return count

        def materialize_filtered(self, name, source, predicate,
                                 row_range=None):
            return inner.materialize_filtered(
                name, source, predicate, row_range
            )

        def execute(self, query):
            return inner.execute(query)

    engine = ReloadOnRowCount()
    engine.load_table(_events_table())
    queries = [parse_query(sql) for sql in _SUITE[:3]]
    executor = ScanGroupExecutor(
        engine, ExecutionPolicy(shards=2), group_cache=cache
    )
    result = executor.run(list(queries))
    assert result.stats.sharded_groups == 1  # the group did shard
    assert cache.size == 0  # ... but the poisoned store was dropped
    inner.close()


def test_sqlite_row_count_of_temp_relations_is_unknown():
    """Temp names alias the base Table in the schema registry; their
    row count must come back None, not the base table's."""
    from repro.engine.batch import TEMP_PREFIX
    from repro.sql.parser import parse_expression

    engine = create_engine("sqlite")
    engine.load_table(_events_table(rows=200))
    temp = f"{TEMP_PREFIX}events_rowcount_probe"
    assert engine.materialize_filtered(
        temp, "events", parse_expression("priority >= 3")
    )
    assert engine.table_row_count("events") == 200
    assert engine.table_row_count(temp) is None
    engine.unload_table(temp)
    engine.close()


def test_harness_shards_reach_the_engine():
    """BenchmarkConfig(policy=...) with shards=N must actually drive
    per-shard range scans in the runner's sessions — a policy dropped
    between the config and the cell's SessionConfig silently disables
    sharding."""
    from unittest import mock

    import repro.engine.registry as registry
    from repro.harness.config import BenchmarkConfig
    from repro.harness.runner import BenchmarkRunner

    counters = []
    real = registry.create_engine

    def counted(name):
        engine = real(name)
        if name == "sqlite":
            engine = CountingEngine(engine)
            counters.append(engine)
        return engine

    with mock.patch.object(registry, "create_engine", counted), \
            mock.patch("repro.harness.runner.create_engine", counted):
        config = BenchmarkConfig(
            dashboards=("customer_service",),
            workflows=("shneiderman",),
            engines=("sqlite",),
            sizes={"1K": 1_000},
            runs=1,
            reference_rows=500,
            policy=ExecutionPolicy(shards=3),
        )
        BenchmarkRunner(config).run()
    shard_scans = sum(sum(c.shard_scans.values()) for c in counters)
    assert shard_scans > 0
    assert shard_scans % 3 == 0


def test_wrappers_without_row_count_degrade_to_unsharded():
    """A wrapper that does not delegate table_row_count must make the
    executor fall back to whole-group execution, not crash."""
    from repro.engine.interface import Engine

    class OpaqueWrapper(Engine):
        thread_safe = True

        def __init__(self, inner):
            self._inner = inner
            self.name = inner.name

        def load_table(self, table):
            self._inner.load_table(table)

        def table_schema(self, name):
            return self._inner.table_schema(name)

        def materialize_filtered(self, name, source, predicate):
            # Old three-argument signature: never called with a range.
            return self._inner.materialize_filtered(name, source, predicate)

        def unload_table(self, name):
            self._inner.unload_table(name)

        def execute(self, query):
            return self._inner.execute(query)

    engine = OpaqueWrapper(create_engine("vectorstore"))
    engine.load_table(_events_table())
    queries = [parse_query(sql) for sql in _SUITE[:3]]
    sequential = [engine.execute(q) for q in queries]
    result = ScanGroupExecutor(engine, ExecutionPolicy(shards=4)).run(
        list(queries)
    )
    _assert_identical(sequential, result.results, "opaque wrapper")
    assert result.stats.sharded_groups == 0  # degraded, not sharded
