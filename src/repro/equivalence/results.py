"""Result equivalence, subsumption, and overlap (Oracle heuristic θ).

The paper (§4.1.2) defines:

- **goal completion**: the union of goal result sets is covered by the
  union of observed result sets — ``∪ R_g ⊆ ∪ R_i``;
- **progress**: the size of the overlap ``|R_g ∩ R(s)|`` — the more goal
  cells a candidate interaction's results cover, the better.

Coverage is tested at *cell* granularity: every (column, value) pair of
the goal result must appear in the observed results. Column matching is
name-based after alias normalization; when a goal column name is absent
from the observed results, we fall back to matching any observed column
whose value set covers the goal column's (dashboards routinely alias
the same aggregate differently).
"""

from __future__ import annotations

from repro.engine.interface import Engine, ResultSet, normalize_value
from repro.sql.ast import Query
from repro.sql.formatter import format_query


#: One result as the goal bookkeeping reads it: a (lower-cased column
#: name, normalized value set) pair per output column, in column order.
Cells = tuple[tuple[str, frozenset[object]], ...]


class ResultCache:
    """Memoizes query execution on a reference engine.

    The Oracle planner evaluates many candidate interactions per step;
    caching keeps goal-completion testing from dominating simulation
    time (queries are keyed by their formatted SQL). Beside each result
    it keeps the result's cell sets, so scoring a candidate against a
    goal intersects ready-made sets instead of normalizing every row
    again.
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._cache: dict[str, ResultSet] = {}
        self._cells: dict[str, Cells] = {}
        self.hits = 0
        self.misses = 0

    def execute(self, query: Query) -> ResultSet:
        key = format_query(query)
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        result = self._engine.execute(query)
        self._cache[key] = result
        return result

    def cells(self, query: Query) -> Cells:
        """The cell sets of ``query``'s result; counts as a lookup."""
        result = self.execute(query)
        key = format_query(query)
        cells = self._cells.get(key)
        if cells is None:
            cells = self._cells[key] = tuple(
                (name.lower(), frozenset(_column_values(result, index)))
                for index, name in enumerate(result.columns)
            )
        return cells

    def clear(self) -> None:
        self._cache.clear()
        self._cells.clear()
        self.hits = 0
        self.misses = 0


def _column_values(result: ResultSet, index: int) -> set[object]:
    return {normalize_value(row[index]) for row in result.rows}


def _observed_cells(results: list[ResultSet]) -> dict[str, set[object]]:
    """Merge observed results into {column name -> set of values}."""
    merged: dict[str, set[object]] = {}
    for result in results:
        for i, name in enumerate(result.columns):
            merged.setdefault(name.lower(), set()).update(
                _column_values(result, i)
            )
    return merged


def covers(goal: ResultSet, observed: list[ResultSet]) -> bool:
    """True when every goal cell appears in the observed results."""
    return coverage_fraction(goal, observed) >= 1.0


def coverage_fraction(goal: ResultSet, observed: list[ResultSet]) -> float:
    """Fraction of the goal's cells covered by the observed results.

    Returns 1.0 for an empty goal result (nothing to cover). This is
    the quantity the Oracle maximizes as θ.
    """
    if not goal.rows:
        return 1.0
    merged = _observed_cells(observed)
    total = 0
    covered = 0
    for index, name in enumerate(goal.columns):
        goal_values = _column_values(goal, index)
        total += len(goal_values)
        observed_values = merged.get(name.lower())
        if observed_values is None:
            observed_values = _best_value_match(goal_values, merged)
        if observed_values:
            covered += len(goal_values & observed_values)
    if total == 0:
        return 1.0
    return covered / total


def _best_value_match(
    goal_values: set[object], merged: dict[str, set[object]]
) -> set[object]:
    """Fallback column matching by value overlap (alias-insensitive)."""
    best: set[object] = set()
    best_score = 0
    for values in merged.values():
        score = len(goal_values & values)
        if score > best_score:
            best_score = score
            best = values
    return best


def result_subsumes(goal: ResultSet, candidate: ResultSet) -> bool:
    """True when the candidate result covers the whole goal result."""
    return covers(goal, [candidate])


def result_equal(a: ResultSet, b: ResultSet) -> bool:
    """Mutual coverage: the two results contain the same cells."""
    return covers(a, [b]) and covers(b, [a])


def goal_set_covered(
    goal_queries: list[Query],
    observed_queries: list[Query],
    cache: ResultCache,
) -> bool:
    """The paper's completion test: ``∪ R_g ⊆ ∪ R_i``."""
    observed_results = [cache.execute(q) for q in observed_queries]
    for goal in goal_queries:
        if not covers(cache.execute(goal), observed_results):
            return False
    return True


def goal_set_overlap(
    goal_queries: list[Query],
    observed_queries: list[Query],
    cache: ResultCache,
) -> float:
    """Mean coverage fraction across the goal set (progress measure)."""
    if not goal_queries:
        return 1.0
    observed_results = [cache.execute(q) for q in observed_queries]
    fractions = [
        coverage_fraction(cache.execute(goal), observed_results)
        for goal in goal_queries
    ]
    return sum(fractions) / len(fractions)
