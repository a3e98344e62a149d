"""Incremental goal-coverage tracking.

:class:`GoalTracker` maintains, for each goal query, the set of result
cells still uncovered. The Oracle planner asks "how many new goal cells
would this candidate interaction cover?" hundreds of times per step, so
the tracker computes *gains* without re-unioning all observed results
(the naive ``∪R_g ⊆ ∪R_i`` test of §4.1.2, which it implements
incrementally).

Observed cells are matched to goal cells by lower-cased output column
name only, so a query none of whose output columns still has uncovered
goal values covers nothing, whatever its rows are. Such a query is
never executed on the reference engine: its gain is 0 by construction.
"""

from __future__ import annotations

from repro.equivalence.results import Cells, ResultCache
from repro.sql.ast import Column, FuncCall, Query, referenced_columns
from repro.sql.formatter import format_query


class _GoalCoverage:
    """Uncovered cells of one goal query, keyed by lower-cased column."""

    def __init__(self, goal: Query, cells: Cells) -> None:
        self.goal = goal
        #: Table columns the goal mentions (the Oracle's action pruning).
        self.columns = referenced_columns(goal)
        self.uncovered: dict[str, set[object]] = {}
        self.total_cells = 0
        for name, values in cells:
            self.uncovered[name] = set(values)
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

    def gain_from(self, observed: Cells) -> int:
        """How many uncovered cells this observed result would cover."""
        gain = 0
        for name, values in observed:
            pending = self.uncovered.get(name)
            if pending:
                gain += len(pending & values)
        return gain

    def absorb(self, observed: Cells) -> int:
        """Permanently cover cells present in ``observed``; return gain."""
        gain = 0
        for name, values in observed:
            pending = self.uncovered.get(name)
            if pending:
                matched = pending & values
                gain += len(matched)
                pending -= matched
        self.covered_cells += gain
        return gain


def _may_cover(query: Query, pending: set[str]) -> bool:
    """False only when no output column of ``query`` is named in ``pending``.

    Decided from the query text. Where the text does not give the
    result's column names the answer is True (execute and see):
    ``SELECT *`` takes them from the table, and engines name an
    unaliased expression other than a column or a function call each
    in their own way.
    """
    for item in query.select:
        if not item.alias and not isinstance(item.expr, (Column, FuncCall)):
            return True
        if item.output_name().lower() in pending:
            return True
    return False


class GoalTracker:
    """Tracks coverage of a goal set by a stream of observed queries."""

    def __init__(self, goal_queries: list[Query], cache: ResultCache) -> None:
        self._cache = cache
        self.goals = [
            _GoalCoverage(goal, cache.cells(goal)) for goal in goal_queries
        ]
        self._seen_queries: set[str] = set()

    @property
    def complete(self) -> bool:
        """True when every goal's result set is fully covered."""
        return all(goal.complete for goal in self.goals)

    @property
    def progress(self) -> float:
        """Mean coverage fraction across goals (the θ heuristic's scale)."""
        if not self.goals:
            return 1.0
        return sum(goal.fraction for goal in self.goals) / len(self.goals)

    def pending_columns(self) -> set[str]:
        """Table columns referenced by the goals not yet complete."""
        columns: set[str] = set()
        for goal in self.goals:
            if not goal.complete:
                columns |= goal.columns
        return columns

    def _pending_names(self) -> set[str]:
        """Result column names that still have uncovered goal values."""
        return {
            name
            for goal in self.goals
            for name, values in goal.uncovered.items()
            if values
        }

    def gain(self, queries: list[Query]) -> int:
        """Total new cells the given queries would cover (no commit).

        Duplicate queries (already observed) contribute nothing — the
        same query re-emitted covers no new ground, which also steers
        the Oracle away from repeating itself.
        """
        pending = self._pending_names()
        total = 0
        for query in queries:
            if format_query(query) in self._seen_queries:
                continue
            if not _may_cover(query, pending):
                continue
            cells = self._cache.cells(query)
            for goal in self.goals:
                total += goal.gain_from(cells)
        return total

    def observe(self, queries: list[Query]) -> int:
        """Commit observed queries; return total newly covered cells."""
        pending = self._pending_names()
        total = 0
        for query in queries:
            if _may_cover(query, pending):
                cells = self._cache.cells(query)
                for goal in self.goals:
                    total += goal.absorb(cells)
            self._seen_queries.add(format_query(query))
        return total
