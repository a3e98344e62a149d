"""Equivalence tests for the shared-scan batch executor.

The contract under test: ``engine.execute_batch(queries)`` returns
results **byte-identical** to executing each query sequentially with
``engine.execute`` — same column names, same rows, same row order — on
every engine, while performing strictly fewer base-table scans on
dashboard-shaped workloads. Randomized query mixes exercise grouping,
fusion, shared-scan materialization, and every fallback path.
"""

from __future__ import annotations

import random

import pytest

from repro.dashboard.library import DASHBOARD_NAMES, load_dashboard
from repro.dashboard.state import DashboardState, InteractionKind
from repro.engine.batch import (
    TEMP_PREFIX,
    BatchExecutor,
    group_queries,
    temp_table_name,
)
from repro.engine.instrument import CountingEngine
from repro.engine.registry import create_engine
from repro.engine.table import Table
from repro.execution import ExecutionPolicy
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    FuncCall,
    InList,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    Star,
    TableRef,
)
from repro.workload.datasets import generate_dataset

ENGINES = ["rowstore", "vectorstore", "matstore", "sqlite"]


def _assert_identical(sequential, batched, context: str) -> None:
    assert len(sequential) == len(batched), context
    for i, (seq, timed) in enumerate(zip(sequential, batched)):
        assert seq.columns == timed.result.columns, f"{context} [{i}] columns"
        assert seq.rows == timed.result.rows, f"{context} [{i}] rows"


# ---------------------------------------------------------------------------
# Randomized query mixes over a synthetic table
# ---------------------------------------------------------------------------


def _mix_table() -> Table:
    rng = random.Random(7)
    rows = 400
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


def _random_filter(rng: random.Random):
    choices = [
        None,
        InList(Column("queue"), (Literal("a"), Literal("b"))),
        BinaryOp("=", Column("status"), Literal("open")),
        Between(Column("priority"), Literal(2), Literal(4)),
        BinaryOp(
            "AND",
            BinaryOp("=", Column("status"), Literal("open")),
            BinaryOp(">", Column("latency"), Literal(30.0)),
        ),
    ]
    return rng.choice(choices)


def _random_query(rng: random.Random) -> Query:
    dims = rng.sample(["queue", "status", "priority"], k=rng.randint(0, 2))
    measures = rng.sample(
        [
            FuncCall("COUNT", (Star(),)),
            FuncCall("SUM", (Column("latency"),)),
            FuncCall("AVG", (Column("latency"),)),
            FuncCall("MIN", (Column("priority"),)),
            FuncCall("MAX", (Column("latency"),)),
            FuncCall("COUNT", (Column("status"),)),
        ],
        k=rng.randint(1, 3),
    )
    select = [SelectItem(Column(d)) for d in dims]
    select += [
        SelectItem(m, f"m{i}_{m.name.lower()}") for i, m in enumerate(measures)
    ]
    query = Query(
        select=tuple(select),
        from_table=TableRef("events"),
        where=_random_filter(rng),
        group_by=tuple(Column(d) for d in dims),
    )
    shape = rng.random()
    if shape < 0.15:  # unfusable: ordered and limited
        query = query.__class__(
            select=query.select,
            from_table=query.from_table,
            where=query.where,
            group_by=query.group_by,
            order_by=(OrderItem(Column(select[-1].alias), descending=True),),
            limit=rng.randint(1, 5),
        )
    elif shape < 0.25:  # plain projection, occasionally DISTINCT
        query = Query(
            select=(SelectItem(Column("queue")), SelectItem(Column("status"))),
            from_table=TableRef("events"),
            where=_random_filter(rng),
            distinct=rng.random() < 0.5,
        )
    return query


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_mix_matches_sequential(engine_name, seed):
    rng = random.Random(seed)
    engine = create_engine(engine_name)
    engine.load_table(_mix_table())
    queries = [_random_query(rng) for _ in range(18)]
    sequential = [engine.execute(q) for q in queries]
    batched = engine.execute_batch(queries)
    _assert_identical(sequential, batched, f"{engine_name} seed={seed}")


@pytest.mark.parametrize("engine_name", ENGINES)
def test_duplicate_queries_fuse_and_match(engine_name):
    engine = create_engine(engine_name)
    engine.load_table(_mix_table())
    base = Query(
        select=(
            SelectItem(Column("queue")),
            SelectItem(FuncCall("COUNT", (Star(),)), "count_all"),
        ),
        from_table=TableRef("events"),
        where=BinaryOp("=", Column("status"), Literal("open")),
        group_by=(Column("queue"),),
    )
    sibling = Query(
        select=(
            SelectItem(Column("queue")),
            SelectItem(FuncCall("AVG", (Column("latency"),)), "avg_latency"),
        ),
        from_table=TableRef("events"),
        where=BinaryOp("=", Column("status"), Literal("open")),
        group_by=(Column("queue"),),
    )
    queries = [base, sibling, base]
    sequential = [engine.execute(q) for q in queries]
    batched = engine.execute_batch(queries)
    _assert_identical(sequential, batched, engine_name)


# ---------------------------------------------------------------------------
# All six library dashboards: render + interaction walks
# ---------------------------------------------------------------------------


def _interaction_walk(state: DashboardState, rng: random.Random, steps: int):
    """Yield each step's emitted queries along a random interaction walk."""
    yield state.initial_queries()
    for _ in range(steps):
        actions = state.available_interactions()
        preferred = [
            a
            for a in actions
            if a.kind
            in (InteractionKind.WIDGET_TOGGLE, InteractionKind.WIDGET_SET)
        ] or actions
        yield state.apply(rng.choice(preferred))


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("dashboard", DASHBOARD_NAMES)
def test_dashboard_refreshes_match_sequential(engine_name, dashboard):
    spec = load_dashboard(dashboard)
    table = generate_dataset(dashboard, 300, seed=11)
    engine = create_engine(engine_name)
    engine.load_table(table)
    state = DashboardState(spec, table)
    rng = random.Random(23)
    for step, queries in enumerate(_interaction_walk(state, rng, steps=3)):
        sequential = [engine.execute(q) for q in queries]
        batched = engine.execute_batch(queries)
        _assert_identical(
            sequential, batched, f"{engine_name}/{dashboard} step {step}"
        )


def test_refresh_api_matches_sequential_refresh():
    spec = load_dashboard("customer_service")
    table = generate_dataset("customer_service", 300, seed=3)
    engine = create_engine("vectorstore")
    engine.load_table(table)
    batch_state = DashboardState(spec, table)
    seq_state = DashboardState(spec, table)
    batched = batch_state.refresh(engine, policy=ExecutionPolicy())
    sequential = seq_state.refresh(engine, policy=ExecutionPolicy.serial())
    assert batched.keys() == sequential.keys()
    for viz_id in batched:
        assert batched[viz_id].result == sequential[viz_id].result, viz_id

    action = next(
        a
        for a in batch_state.available_interactions()
        if a.kind is InteractionKind.WIDGET_TOGGLE
    )
    batched = batch_state.apply_and_refresh(
        action, engine, policy=ExecutionPolicy()
    )
    sequential = seq_state.apply_and_refresh(
        action, engine, policy=ExecutionPolicy.serial()
    )
    assert batched.keys() == sequential.keys()
    for viz_id in batched:
        assert batched[viz_id].result == sequential[viz_id].result, viz_id


# ---------------------------------------------------------------------------
# Scan sharing: the optimization itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", ["rowstore", "vectorstore", "sqlite"])
def test_filtered_refresh_uses_one_base_scan(engine_name):
    spec = load_dashboard("customer_service")
    table = generate_dataset("customer_service", 300, seed=5)
    counting = CountingEngine(create_engine(engine_name))
    counting.load_table(table)
    state = DashboardState(spec, table)
    action = next(
        a
        for a in state.available_interactions()
        if a.kind is InteractionKind.WIDGET_TOGGLE
    )
    emitted = state.apply(action)
    assert len(emitted) >= 2

    counting.reset()
    for query in emitted:
        counting.execute(query)
    sequential_scans = counting.base_scans()

    counting.reset()
    BatchExecutor(counting).run(emitted)
    batch_scans = counting.base_scans()

    assert batch_scans == 1
    assert sequential_scans == len(emitted)
    assert sequential_scans >= 2 * batch_scans


#: Base scans of a six-step filtering walk per library dashboard:
#: (sequential, batched). Batched is one per refresh; the totals are
#: 138 -> 36. The counts are the same at 300 and 2,000 rows.
_WALK_SCANS = {
    "circulation": (12, 6),
    "customer_service": (30, 6),
    "it_monitor": (18, 6),
    "myride": (12, 6),
    "supply_chain": (36, 6),
    "ubc_energy": (30, 6),
}


@pytest.mark.parametrize("dashboard", DASHBOARD_NAMES)
def test_interaction_walk_uses_one_base_scan_per_refresh(dashboard):
    table = generate_dataset(dashboard, 300, seed=17)
    state = DashboardState(load_dashboard(dashboard), table)
    _, *refreshes = _interaction_walk(state, random.Random(41), steps=6)
    counting = CountingEngine(create_engine("vectorstore"))
    counting.load_table(table)

    sequential = [[counting.execute(q) for q in qs] for qs in refreshes]
    sequential_scans = counting.base_scans()

    counting.reset()
    executor = BatchExecutor(counting)
    batched = [
        [t.result for t in executor.run(qs).results] for qs in refreshes
    ]
    batch_scans = counting.base_scans()
    counting.close()

    assert batched == sequential
    assert (sequential_scans, batch_scans) == _WALK_SCANS[dashboard]


def test_temp_relation_is_unloaded_after_batch():
    engine = create_engine("rowstore")
    engine.load_table(_mix_table())
    predicate = BinaryOp("=", Column("status"), Literal("open"))
    queries = [
        Query(
            select=(
                SelectItem(Column(dim)),
                SelectItem(FuncCall("COUNT", (Star(),)), "n"),
            ),
            from_table=TableRef("events"),
            where=predicate,
            group_by=(Column(dim),),
        )
        for dim in ("queue", "status", "priority")
    ]
    result = BatchExecutor(engine).run(queries)
    assert result.stats.shared_scans == 1
    groups = group_queries(queries)
    stem = temp_table_name(
        groups[0].signature.table, groups[0].signature.predicate_key
    )
    assert stem.startswith(TEMP_PREFIX)
    # No temp relation survives the batch (names carry a unique suffix
    # per execution, so check the engine's whole table set).
    assert not [
        name
        for name in engine._db.table_names
        if name.startswith(TEMP_PREFIX)
    ]


def test_join_queries_fall_back_to_direct_execution():
    from repro.sql.parser import parse_query

    engine = create_engine("rowstore")
    engine.load_table(_mix_table())
    engine.load_table(
        Table.from_columns(
            "queues",
            {"name": ["a", "b", "c", "d"], "region": ["x", "x", "y", "y"]},
        )
    )
    join = parse_query(
        "SELECT region, COUNT(*) AS n FROM events "
        "JOIN queues ON events.queue = queues.name GROUP BY region"
    )
    plain = parse_query("SELECT COUNT(*) AS n FROM events")
    sequential = [engine.execute(join), engine.execute(plain)]
    batched = engine.execute_batch([join, plain])
    _assert_identical(sequential, batched, "join fallback")
    stats = BatchExecutor(engine).run([join, plain]).stats
    assert stats.fallbacks == 1


def test_empty_filter_group_matches_sequential():
    engine = create_engine("sqlite")
    engine.load_table(_mix_table())
    predicate = BinaryOp("=", Column("status"), Literal("no_such_status"))
    queries = [
        Query(
            select=(SelectItem(FuncCall("COUNT", (Star(),)), "n"),),
            from_table=TableRef("events"),
            where=predicate,
        ),
        Query(
            select=(
                SelectItem(Column("queue")),
                SelectItem(FuncCall("SUM", (Column("latency"),)), "s"),
            ),
            from_table=TableRef("events"),
            where=predicate,
            group_by=(Column("queue"),),
        ),
    ]
    sequential = [engine.execute(q) for q in queries]
    batched = engine.execute_batch(queries)
    _assert_identical(sequential, batched, "empty filter")


@pytest.mark.parametrize("engine_name", ENGINES)
def test_qualified_columns_survive_shared_scan(engine_name):
    from repro.sql.parser import parse_query

    engine = create_engine(engine_name)
    engine.load_table(_mix_table())
    queries = [
        parse_query(
            "SELECT events.queue, COUNT(*) AS n FROM events "
            "WHERE events.priority = 2 GROUP BY events.queue"
        ),
        parse_query(
            "SELECT events.status, MAX(events.latency) AS hi FROM events "
            "WHERE events.priority = 2 GROUP BY events.status"
        ),
    ]
    sequential = [engine.execute(q) for q in queries]
    batched = engine.execute_batch(queries)
    _assert_identical(sequential, batched, f"{engine_name} qualified")


@pytest.mark.parametrize("engine_name", ENGINES)
def test_from_aliased_queries_fall_back_and_match(engine_name):
    from repro.sql.parser import parse_query

    engine = create_engine(engine_name)
    engine.load_table(_mix_table())
    queries = [
        parse_query(
            "SELECT e.queue, COUNT(*) AS n FROM events AS e "
            "WHERE e.priority = 2 GROUP BY e.queue"
        ),
        parse_query(
            "SELECT e.status, COUNT(*) AS n FROM events AS e "
            "WHERE e.priority = 2 GROUP BY e.status"
        ),
    ]
    sequential = [engine.execute(q) for q in queries]
    batched = engine.execute_batch(queries)
    _assert_identical(sequential, batched, f"{engine_name} FROM alias")
    stats = BatchExecutor(engine).run(queries).stats
    assert stats.fallbacks == 2  # aliased FROM cannot share the scan


@pytest.mark.parametrize("engine_name", ENGINES)
def test_unaliased_aggregates_keep_engine_column_names(engine_name):
    from repro.sql.parser import parse_query

    engine = create_engine(engine_name)
    engine.load_table(_mix_table())
    # No aliases: engines name these columns differently (SQLite keeps
    # the SQL text's casing), so they must not fuse into a merged query
    # that would rename them.
    queries = [
        parse_query("SELECT COUNT(*) FROM events WHERE priority = 2"),
        parse_query("SELECT MIN(latency) FROM events WHERE priority = 2"),
    ]
    sequential = [engine.execute(q) for q in queries]
    batched = engine.execute_batch(queries)
    _assert_identical(sequential, batched, f"{engine_name} unaliased")


def test_cached_batch_fallbacks_use_per_query_cache():
    from repro.engine.cache import CachedEngine
    from repro.sql.parser import parse_query

    cached = CachedEngine(create_engine("rowstore"))
    cached.load_table(_mix_table())
    cached.load_table(
        Table.from_columns(
            "queues",
            {"name": ["a", "b", "c", "d"], "region": ["x", "x", "y", "y"]},
        )
    )
    join = parse_query(
        "SELECT region, COUNT(*) AS n FROM events "
        "JOIN queues ON events.queue = queues.name GROUP BY region"
    )
    cached.execute_batch([join])
    cached.execute_batch([join])
    assert cached.hits == 1  # repeated fallback served from the LRU


@pytest.mark.parametrize("engine_name", ["rowstore", "matstore"])
def test_materialize_over_indexed_table_drops_stale_indexes(engine_name):
    from repro.sql.parser import parse_expression, parse_query

    engine = create_engine(engine_name)
    engine.load_table(_mix_table())
    engine.load_table(
        Table.from_columns(
            "dst",
            {"queue": ["a"] * 8, "priority": [1, 2, 3, 4, 1, 2, 3, 4]},
        )
    )
    engine.create_index("dst", "priority")
    assert engine.materialize_filtered(
        "dst", "events", parse_expression("priority = 3")
    )
    result = engine.execute(
        parse_query("SELECT COUNT(*) AS n FROM dst WHERE priority = 3")
    )
    expected = engine.execute(
        parse_query("SELECT COUNT(*) AS n FROM events WHERE priority = 3")
    )
    assert result.rows == expected.rows  # stale index would crash/corrupt


def test_batch_durations_and_metadata_populated():
    engine = create_engine("vectorstore")
    engine.load_table(_mix_table())
    queries = [
        Query(
            select=(SelectItem(FuncCall("COUNT", (Star(),)), "n"),),
            from_table=TableRef("events"),
        ),
        Query(
            select=(
                SelectItem(Column("queue")),
                SelectItem(FuncCall("COUNT", (Star(),)), "n"),
            ),
            from_table=TableRef("events"),
            group_by=(Column("queue"),),
        ),
    ]
    for timed, query in zip(engine.execute_batch(queries), queries):
        assert timed.engine == "vectorstore"
        assert timed.duration_ms >= 0.0
        assert timed.rows_returned == len(timed.result)
        assert timed.sql == str(query)
