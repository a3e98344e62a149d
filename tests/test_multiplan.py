"""Tests for single-pass multi-plan evaluation of unfiltered groups.

Core property: for every engine and every ``(workers, shards)``
combination, ``execute_batch(queries, ExecutionPolicy(multiplan=True,
...))`` returns
results byte-identical to sequential per-query execution — same
columns, same rows, same order — while issuing one combined base scan
for the unfiltered group instead of one per fusion class.

Float exactness note: the per-plan merge re-associates floating-point
addition (per-fine-group SUMs are rounded before the merge SUM), so
the byte-identity property holds whenever partial sums are exactly
representable. The tables here use integers and dyadic-rational floats
(multiples of 0.25), for which IEEE-754 addition is exact — the same
documented boundary as sharded execution
(:mod:`repro.engine.multiplan`).
"""

from __future__ import annotations

import datetime as dt
import random

import pytest

from repro.concurrency import ScanGroupExecutor
from repro.dashboard.library import DASHBOARD_NAMES, load_dashboard
from repro.dashboard.state import DashboardState
from repro.engine.batch import TEMP_PREFIX, BatchExecutor
from repro.engine.cache import CachedEngine
from repro.engine.instrument import CountingEngine
from repro.engine.multiplan import build_multiplan, eligible_plan
from repro.engine.registry import create_engine
from repro.engine.table import Table
from repro.execution import ExecutionPolicy
from repro.sql.formatter import format_query
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


#: An initial-render-shaped suite: one unfiltered scan group holding
#: several fusion classes (distinct GROUP BYs, a fused pair, a global
#: aggregate), plus shapes the combined pass must leave alone.
_SUITE = [
    "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue",
    "SELECT queue, AVG(latency) AS a, SUM(latency) AS s FROM events "
    "GROUP BY queue",
    "SELECT day, MIN(latency) AS lo, MAX(latency) AS hi FROM events "
    "GROUP BY day",
    "SELECT flag, AVG(priority) AS ap FROM events GROUP BY flag",
    "SELECT COUNT(*) AS n, SUM(latency) AS s FROM events",
    # A filtered group rides along on the shared-scan path.
    "SELECT status, COUNT(latency) AS nv FROM events "
    "WHERE priority >= 3 GROUP BY status",
    "SELECT status, AVG(priority) AS ap FROM events "
    "WHERE priority >= 3 GROUP BY status",
    # Ineligible shapes fall back to per-class execution.
    "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue "
    "ORDER BY n DESC LIMIT 2",
    "SELECT DISTINCT status FROM events",
]


def _queries():
    return [parse_query(sql) for sql in _SUITE]


#: The scanned table's schema, which every planner call takes.
_SCHEMA = _events_table().schema


def _assert_identical(sequential, batched, context: str) -> None:
    assert len(sequential) == len(batched), context
    for i, (seq, timed) in enumerate(zip(sequential, batched)):
        assert seq.columns == timed.result.columns, f"{context} [{i}] columns"
        assert seq.rows == timed.result.rows, f"{context} [{i}] rows"


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def test_build_multiplan_combines_keys_and_dedups_aggregates():
    plan = build_multiplan(
        [
            parse_query(
                "SELECT queue, SUM(latency) AS s FROM events GROUP BY queue"
            ),
            parse_query(
                "SELECT day, SUM(latency) AS s, AVG(latency) AS a "
                "FROM events GROUP BY day"
            ),
        ],
        _SCHEMA,
    )
    assert plan is not None
    combined = format_query(plan.combined_query("events"))
    # Finest grouping: union of both key sets, bare columns keep names.
    assert "GROUP BY queue, day" in combined
    # SUM(latency) appears once even though both plans ask for it (the
    # AVG decomposition reuses it as its sum piece or adds its own —
    # either way no duplicate partial for the plain SUM).
    assert combined.count("SUM(latency)") <= 2  # plain SUM + AVG's sum piece
    merge_0 = format_query(plan.plans[0].merge_query("__batchscan_p"))
    assert "GROUP BY queue" in merge_0 and "SUM(" in merge_0
    merge_1 = format_query(plan.plans[1].merge_query("__batchscan_p"))
    assert "GROUP BY day" in merge_1
    assert "* 1.0 /" in merge_1  # AVG merges as SUM(sums)*1.0/SUM(counts)


def test_build_multiplan_rejects_uncombinable_shapes():
    grouped = "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue"
    assert build_multiplan([parse_query(grouped)], _SCHEMA) is not None
    assert eligible_plan(parse_query(grouped), None) is None  # no schema
    for bad in [
        "SELECT queue FROM events",  # projection: nothing to decompose
        "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue "
        "ORDER BY n DESC",
        "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue LIMIT 3",
        "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue "
        "HAVING COUNT(*) > 2",
        "SELECT queue, COUNT(DISTINCT status) AS n FROM events "
        "GROUP BY queue",
        "SELECT COUNT(*) FROM events",  # unaliased non-column item
        # Named after a base column it is not: restored only directly.
        "SELECT queue, MAX(day) AS day FROM events GROUP BY queue",
        "SELECT status AS queue, COUNT(*) AS n FROM events GROUP BY status",
    ]:
        assert eligible_plan(parse_query(bad), _SCHEMA) is None, bad
        assert build_multiplan(
            [parse_query(grouped), parse_query(bad)], _SCHEMA
        ) is None, bad


def test_expression_keys_get_internal_names():
    plan = build_multiplan(
        [
            parse_query(
                "SELECT YEAR(day) AS y, COUNT(*) AS n FROM events "
                "GROUP BY YEAR(day)"
            ),
            parse_query(
                "SELECT queue, COUNT(*) AS n FROM events GROUP BY queue"
            ),
        ],
        _SCHEMA,
    )
    assert plan is not None
    assert "__mkey0" in plan.combined_names
    assert "queue" in plan.combined_names


# ---------------------------------------------------------------------------
# Byte-identity: multiplan x engines x workers x shards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("shards", [1, 4])
def test_multiplan_results_identical_to_sequential(
    engine_name, workers, shards
):
    engine = create_engine(engine_name)
    engine.load_table(_events_table())
    queries = _queries()
    sequential = [engine.execute(q) for q in queries]
    batched = engine.execute_batch(
        list(queries),
        ExecutionPolicy(workers=workers, shards=shards, multiplan=True),
    )
    _assert_identical(
        sequential, batched,
        f"{engine_name} workers={workers} shards={shards}",
    )
    engine.close()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_multiplan_matches_per_group_path_bytewise(engine_name):
    """--multiplan vs --no-multiplan: same bytes, fewer base scans."""
    queries = _queries()
    off = create_engine(engine_name)
    off.load_table(_events_table())
    baseline = off.execute_batch(
        list(queries), ExecutionPolicy(multiplan=False)
    )

    counting = CountingEngine(create_engine(engine_name))
    counting.load_table(_events_table())
    combined = counting.inner.execute_batch(
        list(queries), ExecutionPolicy(multiplan=True)
    )
    _assert_identical(
        [t.result for t in baseline], combined, engine_name
    )
    off.close()
    counting.close()


def test_multiplan_collapses_unfiltered_group_to_one_scan():
    counting = CountingEngine(create_engine("vectorstore"))
    counting.load_table(_events_table())
    unfiltered = [parse_query(sql) for sql in _SUITE[:5]]  # one group

    counting.reset()
    BatchExecutor(
        counting, ExecutionPolicy(multiplan=False)
    ).run(list(unfiltered))
    per_class_scans = counting.base_scans()

    counting.reset()
    result = BatchExecutor(
        counting, ExecutionPolicy(multiplan=True)
    ).run(list(unfiltered))
    combined_scans = counting.base_scans()

    assert per_class_scans == 4  # queue (fused pair), day, flag, global
    assert combined_scans == 1  # the single combined pass
    assert result.stats.multiplan_groups == 1
    assert result.stats.multiplan_plans == 4
    assert result.stats.base_scans == 1
    counting.close()


#: Base scans of each library dashboard's cold render without the
#: combined pass: one per fusion class (21 in all). With it, one each.
_RENDER_SCANS = {
    "circulation": 1,
    "customer_service": 4,
    "it_monitor": 3,
    "myride": 2,
    "supply_chain": 6,
    "ubc_energy": 5,
}


@pytest.mark.parametrize("dashboard", DASHBOARD_NAMES)
def test_multiplan_cold_render_is_one_scan_per_dashboard(dashboard):
    table = generate_dataset(dashboard, 300, seed=17)
    render = DashboardState(load_dashboard(dashboard), table).initial_queries()
    counting = CountingEngine(create_engine("vectorstore"))
    counting.load_table(table)

    BatchExecutor(
        counting, ExecutionPolicy(multiplan=False)
    ).run(list(render))
    per_class_scans = counting.base_scans()

    counting.reset()
    BatchExecutor(counting, ExecutionPolicy(multiplan=True)).run(list(render))
    combined_scans = counting.base_scans()
    counting.close()

    assert per_class_scans == _RENDER_SCANS[dashboard] <= len(render)
    assert combined_scans == 1


def test_multiplan_off_is_the_exact_preexisting_path():
    """multiplan=False matches the default executor in results *and*
    statistics, and never reaches the evaluator at all."""
    queries = _queries()
    plain = create_engine("vectorstore")
    plain.load_table(_events_table())
    reference = BatchExecutor(plain).run(list(queries))
    assert reference.stats.multiplan_groups == 0
    assert reference.stats.multiplan_plans == 0
    executor = ScanGroupExecutor(
        plain, ExecutionPolicy(workers=1, shards=1, multiplan=False)
    )
    off = executor.run(list(queries))
    _assert_identical(
        [t.result for t in reference.results], off.results, "multiplan=False"
    )
    for field in (
        "queries", "groups", "base_scans", "shared_scans", "fused_queries",
        "cache_hits", "fallbacks", "sharded_groups", "shard_scans",
        "multiplan_groups", "multiplan_plans",
    ):
        assert getattr(off.stats, field) == getattr(
            reference.stats, field
        ), field
    executor.close()
    plain.close()


def test_ineligible_classes_ride_along_per_class():
    """ORDER BY/DISTINCT shapes in an unfiltered group still execute
    individually while the eligible classes share the combined pass."""
    counting = CountingEngine(create_engine("rowstore"))
    counting.load_table(_events_table())
    queries = [
        parse_query(sql)
        for sql in (_SUITE[0], _SUITE[2], _SUITE[7], _SUITE[8])
    ]
    sequential = [counting.inner.execute(q) for q in queries]
    counting.reset()
    result = BatchExecutor(
        counting, ExecutionPolicy(multiplan=True)
    ).run(list(queries))
    _assert_identical(sequential, result.results, "mixed group")
    # One combined pass for the two eligible classes + one scan each
    # for ORDER BY and DISTINCT.
    assert counting.base_scans() == 3
    assert result.stats.multiplan_plans == 2
    counting.close()


def test_no_temp_relation_survives_the_combined_pass():
    engine = create_engine("rowstore")
    engine.load_table(_events_table())
    BatchExecutor(engine, ExecutionPolicy(multiplan=True)).run(
        [parse_query(sql) for sql in _SUITE[:5]]
    )
    assert not [
        name
        for name in engine._db.table_names
        if name.startswith(TEMP_PREFIX)
    ]
    engine.close()


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", ENGINES)
def test_empty_table_global_and_grouped_plans(engine_name):
    """A cold render over an empty table: grouped plans yield zero
    rows; global aggregates still owe the engine's one-row result."""
    schema = _events_table().schema
    empty = Table.from_columns(
        "events", {c.name: [] for c in schema}, schema=schema
    )
    engine = create_engine(engine_name)
    engine.load_table(empty)
    queries = _queries()
    sequential = [engine.execute(q) for q in queries]
    for workers, shards in [(1, 1), (2, 3)]:
        batched = engine.execute_batch(
            list(queries),
            ExecutionPolicy(workers=workers, shards=shards, multiplan=True),
        )
        _assert_identical(
            sequential, batched, f"empty {engine_name} s={shards}"
        )
    engine.close()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_all_global_plans_combine(engine_name):
    """A group holding only global aggregates (no GROUP BY anywhere)
    runs as one keyless combined pass — one row in, N rows out."""
    queries = [
        parse_query("SELECT COUNT(*) AS n FROM events"),
        parse_query("SELECT SUM(latency) AS s, MIN(latency) AS lo "
                    "FROM events"),
        parse_query("SELECT AVG(priority) AS ap FROM events"),
    ]
    engine = create_engine(engine_name)
    engine.load_table(_events_table())
    sequential = [engine.execute(q) for q in queries]
    counting = CountingEngine(create_engine(engine_name))
    counting.load_table(_events_table())
    batched = BatchExecutor(
        counting, ExecutionPolicy(multiplan=True)
    ).run(list(queries))
    _assert_identical(sequential, batched.results, engine_name)
    assert counting.base_scans() == 1
    engine.close()
    counting.close()


def test_duplicate_queries_fuse_then_combine():
    """Repeated identical queries dedup in fusion before the combined
    pass; positional alignment must survive."""
    queries = [
        parse_query(_SUITE[0]),
        parse_query(_SUITE[2]),
        parse_query(_SUITE[0]),
    ]
    engine = create_engine("matstore")
    engine.load_table(_events_table())
    sequential = [engine.execute(q) for q in queries]
    result = BatchExecutor(
        engine, ExecutionPolicy(multiplan=True)
    ).run(list(queries))
    _assert_identical(sequential, result.results, "duplicates")
    assert result.stats.fused_queries == 1
    assert result.stats.multiplan_plans == 2
    engine.close()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_dashboard_initial_render_is_identical(engine_name):
    """The motivating workload: a cold six-chart render, byte-identical
    with the combined pass on integer measures and temporal keys."""
    spec = load_dashboard("customer_service")
    table = generate_dataset("customer_service", 400, seed=11)
    state = DashboardState(spec, table)
    queries = state.initial_queries()
    engine = create_engine(engine_name)
    engine.load_table(table)
    sequential = [engine.execute(q) for q in queries]
    refreshed = state.refresh(engine, policy=ExecutionPolicy(multiplan=True))
    batched = [refreshed[v] for v in sorted(state.visualizations)]
    _assert_identical(sequential, batched, engine_name)
    engine.close()


# ---------------------------------------------------------------------------
# Cache interaction
# ---------------------------------------------------------------------------


def test_cached_engine_serves_repeat_renders_without_scans():
    counting = CountingEngine(create_engine("vectorstore"))
    engine = CachedEngine(counting)
    engine.load_table(_events_table())
    queries = _queries()
    first = engine.execute_batch(
        list(queries), ExecutionPolicy(multiplan=True)
    )
    scans_after_first = counting.base_scans()
    assert scans_after_first > 0
    second = engine.execute_batch(
        list(queries), ExecutionPolicy(multiplan=True)
    )
    _assert_identical([t.result for t in first], second, "warm repeat")
    assert counting.base_scans() == scans_after_first  # zero new work
    # The per-plan results were cached under their own SQL, so a
    # non-multiplan repeat is served from the same entries.
    third = engine.execute_batch(
        list(queries), ExecutionPolicy(multiplan=False)
    )
    _assert_identical([t.result for t in first], third, "cross-mode repeat")
    assert counting.base_scans() == scans_after_first
    engine.close()


def test_load_table_invalidates_multiplan_cache_entries():
    counting = CountingEngine(create_engine("vectorstore"))
    engine = CachedEngine(counting)
    engine.load_table(_events_table())
    queries = _queries()
    engine.execute_batch(list(queries), ExecutionPolicy(multiplan=True))
    scans_cold = counting.base_scans()

    engine.load_table(_events_table(seed=9))  # mutate the base table
    fresh_sequential = [counting.inner.execute(q) for q in queries]
    recomputed = engine.execute_batch(
        list(queries), ExecutionPolicy(multiplan=True)
    )
    _assert_identical(fresh_sequential, recomputed, "post-invalidation")
    assert counting.base_scans() > scans_cold  # really recomputed
    engine.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_cached_engine_multiplan_with_workers_and_shards(shards):
    counting = CountingEngine(create_engine("sqlite"))
    engine = CachedEngine(counting)
    engine.load_table(_events_table())
    queries = _queries()
    sequential = [counting.inner.execute(q) for q in queries]
    batched = engine.execute_batch(
        list(queries),
        ExecutionPolicy(workers=4, shards=shards, multiplan=True),
    )
    _assert_identical(sequential, batched, f"cached shards={shards}")
    repeat = engine.execute_batch(
        list(queries),
        ExecutionPolicy(workers=4, shards=shards, multiplan=True),
    )
    _assert_identical(sequential, repeat, f"cached repeat shards={shards}")
    engine.close()


# ---------------------------------------------------------------------------
# Sharded composition details
# ---------------------------------------------------------------------------


def test_sharded_multiplan_keeps_per_shard_scan_shape():
    """multiplan does not change how many range scans sharding issues —
    it removes the per-class partial queries, not the shard scans."""
    counting = CountingEngine(create_engine("vectorstore"))
    counting.load_table(_events_table())
    unfiltered = [parse_query(sql) for sql in _SUITE[:5]]  # one group
    executor = ScanGroupExecutor(
        counting, ExecutionPolicy(workers=1, shards=4, multiplan=True)
    )
    result = executor.run(list(unfiltered))
    executor.close()
    assert result.stats.sharded_groups == 1
    assert result.stats.shard_scans == 4
    assert result.stats.multiplan_groups == 1
    assert result.stats.multiplan_plans == 4
    assert counting.shard_scans.get("events") == 4
    assert counting.scans.get("events") == 4  # nothing else reads base
    counting.close()


def test_session_and_benchmark_configs_carry_the_flag():
    from repro.harness.config import BenchmarkConfig
    from repro.simulation.session import SessionConfig

    assert SessionConfig().policy.multiplan is False
    assert BenchmarkConfig().policy.multiplan is False
    config = BenchmarkConfig(policy=ExecutionPolicy(multiplan=True))
    assert config.session.policy.multiplan is True  # default session follows
    explicit = BenchmarkConfig(
        session=SessionConfig(
            policy=ExecutionPolicy(multiplan=True), run_to_max=True
        )
    )
    # The session remains the source of truth.
    assert explicit.session.policy.multiplan is True


def test_cli_parsers_accept_the_toggle():
    from repro.harness.cli import build_parser as harness_parser
    from repro.logs.cli import build_parser as logs_parser

    args = harness_parser().parse_args(["--batch", "--multiplan"])
    assert args.multiplan is True
    args = harness_parser().parse_args(["--batch", "--no-multiplan"])
    assert args.multiplan is False
    args = logs_parser().parse_args(
        ["replay", "log.jsonl", "--batch", "--multiplan"]
    )
    assert args.multiplan is True
