"""Goal-relevant Oracle scoring takes the decisions exhaustive scoring takes.

``GoalTracker`` never executes a candidate query whose output columns
hold no uncovered goal value, keeps each result's cell sets beside the
result, and scores queries ``DashboardState.query_for`` hands back from
its table with their SQL already rendered. ``tests/reference_scoring.py``
does none of that. Whole sessions are run both ways and compared step
by step; a property test checks the pruning rule itself.
"""

from __future__ import annotations

import functools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.simulation.session as session_module
from repro.dashboard.library import DASHBOARD_NAMES, load_dashboard
from repro.dashboard.state import DashboardState
from repro.engine import create_engine
from repro.equivalence.results import ResultCache
from repro.simulation import SessionConfig, SessionSimulator, get_workflow
from repro.simulation.goals import GoalTracker, _may_cover
from repro.simulation.oracle import OracleModel
from repro.simulation.workflows import WORKFLOWS
from repro.sql.formatter import format_query
from repro.sql.parser import parse_query
from repro.workload import generate_dataset
from repro.workloadgen import (
    SCHEMA_NAMES,
    generate_dashboard,
    generate_table,
    workload_schema,
)
from tests.reference_scoring import (
    ExhaustiveCache,
    ExhaustiveGoalTracker,
    ExhaustiveOracle,
    unmemoised_query_for,
)

SEEDS = (0, 1, 2)


@functools.lru_cache(maxsize=None)
def _loaded(dashboard: str):
    table = generate_dataset(dashboard, 200, seed=5)
    engine = create_engine("vectorstore")
    engine.load_table(table)
    return load_dashboard(dashboard), table, engine


def _recording(cls, made: list):
    """``cls`` whose instances are appended to ``made`` as they are built."""

    class Recording(cls):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    return Recording


def _run(monkeypatch, dashboard, goals, seed, lookahead, exhaustive):
    """One short session; everything a decision could show up in."""
    spec, table, engine = _loaded(dashboard)
    oracles: list[OracleModel] = []
    with monkeypatch.context() as patch:
        patch.setattr(
            session_module, "OracleModel",
            _recording(ExhaustiveOracle if exhaustive else OracleModel, oracles),
        )
        if exhaustive:
            patch.setattr(session_module, "GoalTracker", ExhaustiveGoalTracker)
            patch.setattr(session_module, "ResultCache", ExhaustiveCache)
            patch.setattr(DashboardState, "query_for", unmemoised_query_for)
        log = SessionSimulator(
            spec, table, goals,
            measured_engine=engine, reference_engine=engine,
            # Mostly the Oracle's turn, with some Markov steps between;
            # depth 2 scores ~100 plans per beam entry, so fewer steps.
            config=SessionConfig(
                seed=seed, lookahead=lookahead, p_markov_initial=0.4,
                max_steps_per_goal=8 // lookahead,
                max_total_steps=16 // lookahead ** 2,
            ),
        ).run()
    return {
        "steps": [
            (r.step, r.goal_index, r.model, r.interaction, r.progress_after)
            for r in log.records
        ],
        "sql": log.queries(),
        "goals_completed": log.goals_completed,
        "plans_evaluated": [oracle.plans_evaluated for oracle in oracles],
        "rng_after": [oracle.rng.random() for oracle in oracles],
    }


#: Every pair a workflow can target (not MyRide x the correlation workflows, §6.2.3).
_PAIRS = [
    (dashboard, workflow)
    for dashboard in DASHBOARD_NAMES
    for workflow in sorted(WORKFLOWS)
    if get_workflow(workflow).is_applicable_to_dashboard(
        load_dashboard(dashboard)
    )
]


@pytest.mark.parametrize("lookahead", (1, 2))
@pytest.mark.parametrize("dashboard,workflow", _PAIRS)
def test_sessions_match_exhaustive_scoring(
    monkeypatch, dashboard, workflow, lookahead
):
    spec, _, _ = _loaded(dashboard)
    planned = 0
    for seed in SEEDS:
        goals = [
            goal.query
            for goal in get_workflow(workflow).instantiate_for_dashboard(
                spec, random.Random(f"{dashboard}:{workflow}:{seed}")
            )
        ]
        pruned = _run(monkeypatch, dashboard, goals, seed, lookahead, False)
        exhaustive = _run(monkeypatch, dashboard, goals, seed, lookahead, True)
        assert pruned == exhaustive
        planned += sum(pruned["plans_evaluated"])
    if dashboard == "customer_service":
        # Some dashboards cover a whole goal set with their first render.
        assert planned  # here the Oracle has to be consulted


class _CountingCache(ResultCache):
    """Records which queries reach the reference engine."""

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.executed: list[str] = []

    def execute(self, query):
        self.executed.append(format_query(query))
        return super().execute(query)


class TestPruningRule:
    GOAL = "SELECT queue, SUM(lostCalls) AS lost FROM customer_service GROUP BY queue"

    def _tracker(self):
        _, _, engine = _loaded("customer_service")
        cache = _CountingCache(engine)
        tracker = GoalTracker([parse_query(self.GOAL)], cache)
        cache.executed.clear()
        return tracker, cache

    def test_disjoint_names_are_never_executed(self):
        tracker, cache = self._tracker()
        other = parse_query(
            "SELECT hour, COUNT(*) AS n FROM customer_service GROUP BY hour"
        )
        assert tracker.gain([other]) == 0
        assert tracker.observe([other]) == 0
        assert cache.executed == []
        assert tracker.gain([other]) == 0  # observed all the same

    def test_shared_name_is_executed(self):
        tracker, cache = self._tracker()
        sharing = parse_query(
            "SELECT queue, COUNT(*) AS n FROM customer_service GROUP BY queue"
        )
        assert tracker.gain([sharing]) > 0
        assert cache.executed == [format_query(sharing)]

    def test_columns_of_complete_goals_stop_counting(self):
        tracker, cache = self._tracker()
        tracker.observe([parse_query(self.GOAL)])
        assert tracker.complete
        cache.executed.clear()
        assert tracker.gain(
            [parse_query("SELECT queue FROM customer_service")]
        ) == 0
        assert cache.executed == []

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM customer_service",
        "SELECT hour + 1 FROM customer_service",
    ])
    def test_names_the_text_does_not_give_fall_back_to_executing(self, sql):
        tracker, cache = self._tracker()
        candidate = parse_query(sql)
        assert _may_cover(candidate, set())
        tracker.gain([candidate])
        assert cache.executed == [format_query(candidate)]

    def test_select_star_goal_is_covered_by_a_star_candidate(self):
        _, _, engine = _loaded("customer_service")
        goal = parse_query("SELECT * FROM customer_service WHERE hour = 9")
        tracker = GoalTracker([goal], ResultCache(engine))
        assert tracker.gain([parse_query("SELECT * FROM customer_service")]) > 0
        tracker.observe([parse_query("SELECT * FROM customer_service")])
        assert tracker.complete

    @pytest.mark.parametrize(
        "engine_name", ["rowstore", "vectorstore", "matstore", "sqlite"]
    )
    def test_every_engine_names_prunable_columns_as_the_text_does(
        self, engine_name
    ):
        """The rule reads names off the query; engines must agree."""
        _, table, _ = _loaded("customer_service")
        engine = create_engine(engine_name)
        engine.load_table(table)
        query = parse_query(
            "SELECT queue, customer_service.shift, COUNT(*), SUM(calls), "
            "COUNT(DISTINCT repID), BIN(hour, 4), AVG(duration) AS mean "
            "FROM customer_service "
            "GROUP BY queue, customer_service.shift, BIN(hour, 4)"
        )
        try:
            names = [name.lower() for name in engine.execute(query).columns]
        finally:
            engine.close()
        assert names == [name.lower() for name in query.output_names()]
        for name in names:
            assert _may_cover(query, {name})
        assert not _may_cover(query, {"hour", "calls", "repid"})


@settings(max_examples=25, deadline=None)
@given(
    schema_name=st.sampled_from(SCHEMA_NAMES),
    index=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=50),
    picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
)
def test_every_pruned_query_gains_nothing_when_executed(
    schema_name, index, seed, picks
):
    """Over generated dashboards: pruned ⇒ exhaustive gain is 0, and the
    two trackers agree on every gain and on what observing covers."""
    schema = workload_schema(schema_name)
    spec = generate_dashboard(schema, index=index, seed=seed)
    table = generate_table(schema, 120, seed=seed)
    engine = create_engine("vectorstore")
    engine.load_table(table)
    state = DashboardState(spec, table)
    initial = state.initial_queries()
    goal = initial[picks[0] % len(initial)]
    pruned = GoalTracker([goal], ResultCache(engine))
    exhaustive = ExhaustiveGoalTracker([goal], ExhaustiveCache(engine))
    for pick in picks:
        actions = state.available_interactions()
        if not actions:
            break
        pending = pruned._pending_names()
        emitted = state.apply(actions[pick % len(actions)])
        for query in emitted:
            if not _may_cover(query, pending):
                assert exhaustive.gain([query]) == 0
            assert pruned.gain([query]) == exhaustive.gain([query])
        assert pruned.observe(emitted) == exhaustive.observe(emitted)
        assert pruned.progress == exhaustive.progress
    engine.close()
