"""Exhaustive goal scoring, kept as the reference the real one is tested against.

This is the scoring path as it was before static goal-relevance
pruning: every candidate query is executed on the reference engine,
every key is rendered from the AST again, every row is normalized for
every goal on every score, every candidate query is built from scratch,
and depth 2 has its own copy of the scoring loop. It exists only so
that ``tests/test_goal_pruning.py`` can assert the pruned, memoised
path takes byte-identical decisions; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.dashboard.datalayer import filtered_query
from repro.dashboard.state import DashboardState
from repro.engine.interface import ResultSet, normalize_value
from repro.equivalence.results import ResultCache
from repro.simulation.oracle import OracleModel, PlannedStep
from repro.sql.ast import Query, referenced_columns
from repro.sql.formatter import _render_query


class ExhaustiveCache(ResultCache):
    """Result cache keyed by a fresh rendering of every query."""

    def execute(self, query: Query) -> ResultSet:
        key = _render_query(query)
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        result = self._engine.execute(query)
        self._cache[key] = result
        return result


class _ExhaustiveCoverage:
    def __init__(self, goal: Query, result: ResultSet) -> None:
        self.goal = goal
        self.uncovered: dict[str, set[object]] = {}
        self.total_cells = 0
        for index, name in enumerate(result.columns):
            values = {normalize_value(row[index]) for row in result.rows}
            self.uncovered[name.lower()] = values
            self.total_cells += len(values)
        self.covered_cells = 0

    @property
    def complete(self) -> bool:
        return all(not values for values in self.uncovered.values())

    @property
    def fraction(self) -> float:
        if self.total_cells == 0:
            return 1.0
        return self.covered_cells / self.total_cells

    def gain_from(self, observed: ResultSet) -> int:
        gain = 0
        for index, name in enumerate(observed.columns):
            pending = self.uncovered.get(name.lower())
            if not pending:
                continue
            observed_values = {
                normalize_value(row[index]) for row in observed.rows
            }
            gain += len(pending & observed_values)
        return gain

    def absorb(self, observed: ResultSet) -> int:
        gain = 0
        for index, name in enumerate(observed.columns):
            pending = self.uncovered.get(name.lower())
            if not pending:
                continue
            observed_values = {
                normalize_value(row[index]) for row in observed.rows
            }
            matched = pending & observed_values
            gain += len(matched)
            pending -= matched
        self.covered_cells += gain
        return gain


class ExhaustiveGoalTracker:
    """``GoalTracker`` that executes and absorbs every query it is shown."""

    def __init__(self, goal_queries: list[Query], cache: ResultCache) -> None:
        self._cache = cache
        self.goals = [
            _ExhaustiveCoverage(goal, cache.execute(goal))
            for goal in goal_queries
        ]
        self._seen_queries: set[str] = set()

    @property
    def complete(self) -> bool:
        return all(goal.complete for goal in self.goals)

    @property
    def progress(self) -> float:
        if not self.goals:
            return 1.0
        return sum(goal.fraction for goal in self.goals) / len(self.goals)

    def pending_columns(self) -> set[str]:
        columns: set[str] = set()
        for goal in self.goals:
            if not goal.complete:
                columns |= referenced_columns(goal.goal)
        return columns

    def gain(self, queries: list[Query]) -> int:
        total = 0
        for query in queries:
            if _render_query(query) in self._seen_queries:
                continue
            result = self._cache.execute(query)
            for goal in self.goals:
                total += goal.gain_from(result)
        return total

    def observe(self, queries: list[Query]) -> int:
        total = 0
        for query in queries:
            result = self._cache.execute(query)
            self._seen_queries.add(_render_query(query))
            for goal in self.goals:
                total += goal.absorb(result)
        return total

    def has_seen(self, query: Query) -> bool:
        return _render_query(query) in self._seen_queries


class ExhaustiveOracle(OracleModel):
    """``OracleModel`` with the two hand-written scoring loops."""

    def _score_candidates(self, state: DashboardState) -> list[PlannedStep]:
        steps: list[PlannedStep] = []
        for interaction in self._relevant_interactions(state):
            candidate = state.copy()
            emitted = candidate.apply(interaction)
            fresh = [q for q in emitted if not self.tracker.has_seen(q)]
            gain = self.tracker.gain(fresh) if fresh else 0
            self.plans_evaluated += 1
            steps.append(PlannedStep(interaction, gain))
        return steps

    def _deepen(
        self, state: DashboardState, candidates: list[PlannedStep]
    ) -> list[PlannedStep]:
        candidates = sorted(
            candidates, key=lambda step: step.gain, reverse=True
        )
        deepened: list[PlannedStep] = []
        for step in candidates[: self.beam_width]:
            candidate = state.copy()
            candidate.apply(step.interaction)
            follow_up = 0
            for second in candidate.available_interactions():
                second_state = candidate.copy()
                second_emitted = second_state.apply(second)
                fresh = [
                    q for q in second_emitted
                    if not self.tracker.has_seen(q)
                ]
                gain = self.tracker.gain(fresh) if fresh else 0
                self.plans_evaluated += 1
                follow_up = max(follow_up, gain)
            deepened.append(
                PlannedStep(step.interaction, step.gain + follow_up)
            )
        return deepened


def unmemoised_query_for(state: DashboardState, viz_id: str) -> Query:
    """``DashboardState.query_for`` building a new ``Query`` every call."""
    return filtered_query(
        state.visualizations[viz_id].spec,
        state.spec,
        state.filters_for(viz_id),
    )
