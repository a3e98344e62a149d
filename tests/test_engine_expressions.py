"""Unit tests for row-wise and vectorized expression evaluation."""

import datetime as dt
import math

import numpy as np
import pytest

from repro.engine.expressions import (
    VectorContext,
    apply_scalar_function,
    evaluate_mask,
    evaluate_row,
    evaluate_values,
    like_match,
    make_accumulator,
)
from repro.engine.table import Table
from repro.errors import ExecutionError, TypeMismatchError
from repro.sql.ast import FuncCall, Star
from repro.sql.parser import parse_expression


ROW = {
    "a": 5,
    "b": 2.5,
    "q": "A",
    "none": None,
    "flag": True,
    "d": dt.datetime(2024, 3, 15, 14, 30),
}


def ev(text, row=None):
    return evaluate_row(parse_expression(text), row or ROW)


class TestRowEvaluation:
    def test_column_and_literal(self):
        assert ev("a") == 5
        assert ev("7") == 7

    def test_arithmetic(self):
        assert ev("a + 1") == 6
        assert ev("a * b") == 12.5
        assert ev("a - 10") == -5

    def test_division_by_zero_is_null(self):
        assert ev("a / 0") is None

    def test_modulo(self):
        assert ev("a % 2") == 1

    def test_comparisons(self):
        assert ev("a > 4") is True
        assert ev("a > 5") is False
        assert ev("q = 'A'") is True
        assert ev("q != 'A'") is False

    def test_null_propagates_through_comparison(self):
        assert ev("none > 1") is None

    def test_null_propagates_through_arithmetic(self):
        assert ev("none + 1") is None

    def test_kleene_and(self):
        assert ev("none > 1 AND a > 100") is False  # False wins
        assert ev("none > 1 AND a > 1") is None

    def test_kleene_or(self):
        assert ev("none > 1 OR a > 1") is True  # True wins
        assert ev("none > 1 OR a > 100") is None

    def test_not_of_null_is_null(self):
        assert ev("NOT none > 1") is None

    def test_in_list(self):
        assert ev("q IN ('A', 'B')") is True
        assert ev("q IN ('X')") is False
        assert ev("q NOT IN ('X')") is True

    def test_in_with_null_member_and_no_match_is_null(self):
        assert ev("q IN ('X', NULL)") is None

    def test_between(self):
        assert ev("a BETWEEN 1 AND 10") is True
        assert ev("a BETWEEN 6 AND 10") is False
        assert ev("a NOT BETWEEN 6 AND 10") is True

    def test_like(self):
        assert ev("q LIKE 'A'") is True
        assert ev("q LIKE 'a'") is False  # case sensitive

    def test_is_null(self):
        assert ev("none IS NULL") is True
        assert ev("a IS NULL") is False
        assert ev("a IS NOT NULL") is True

    def test_unknown_column_raises(self):
        with pytest.raises(ExecutionError):
            ev("zzz")

    def test_aggregate_outside_group_raises(self):
        with pytest.raises(ExecutionError):
            ev("COUNT(a)")

    def test_negate_string_raises(self):
        with pytest.raises(TypeMismatchError):
            ev("-q")


class TestScalarFunctions:
    def test_temporal_extraction(self):
        assert ev("YEAR(d)") == 2024
        assert ev("MONTH(d)") == 3
        assert ev("DAY(d)") == 15
        assert ev("HOUR(d)") == 14
        assert ev("MINUTE(d)") == 30

    def test_dow(self):
        assert ev("DOW(d)") == dt.date(2024, 3, 15).weekday()

    def test_bin(self):
        assert ev("BIN(a, 2)") == 4
        assert apply_scalar_function("BIN", [7.5, 2.5]) == 7.5

    def test_bin_requires_positive_width(self):
        with pytest.raises(ExecutionError):
            ev("BIN(a, 0)")

    def test_abs_round(self):
        assert ev("ABS(0 - a)") == 5
        assert ev("ROUND(b)") == 2.0

    def test_string_functions(self):
        assert ev("LOWER(q)") == "a"
        assert ev("UPPER(q)") == "A"
        assert ev("LENGTH(q)") == 1

    def test_coalesce(self):
        assert ev("COALESCE(none, a)") == 5
        assert apply_scalar_function("COALESCE", [None, None]) is None

    def test_null_in_null_out(self):
        assert ev("YEAR(none)") is None

    def test_temporal_from_iso_string(self):
        assert apply_scalar_function("YEAR", ["2023-05-01"]) == 2023

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            apply_scalar_function("FROBNICATE", [1])


class TestLikeMatch:
    @pytest.mark.parametrize(
        "value,pattern,expected",
        [
            ("callback", "c%", True),
            ("callback", "%back", True),
            ("callback", "c_llback", True),
            ("callback", "x%", False),
            ("a.b", "a.b", True),  # dot is literal, not regex
            ("axb", "a.b", False),
            ("", "%", True),
        ],
    )
    def test_patterns(self, value, pattern, expected):
        assert like_match(value, pattern) is expected


class TestVectorEvaluation:
    @pytest.fixture()
    def ctx(self):
        return VectorContext(
            {
                "x": np.array([1.0, 2.0, np.nan, 4.0]),
                "q": np.array(["A", "B", "A", None], dtype=object),
            },
            4,
        )

    def test_numeric_mask(self, ctx):
        mask = evaluate_mask(parse_expression("x > 1"), ctx)
        assert mask.tolist() == [False, True, False, True]

    def test_nan_never_matches(self, ctx):
        mask = evaluate_mask(parse_expression("x != 2"), ctx)
        assert mask.tolist() == [True, False, False, True]

    def test_string_equality(self, ctx):
        mask = evaluate_mask(parse_expression("q = 'A'"), ctx)
        assert mask.tolist() == [True, False, True, False]

    def test_in_list(self, ctx):
        mask = evaluate_mask(parse_expression("q IN ('A', 'B')"), ctx)
        assert mask.tolist() == [True, True, True, False]

    def test_not_in_excludes_nulls(self, ctx):
        mask = evaluate_mask(parse_expression("q NOT IN ('A')"), ctx)
        assert mask.tolist() == [False, True, False, False]

    def test_between(self, ctx):
        mask = evaluate_mask(parse_expression("x BETWEEN 2 AND 4"), ctx)
        assert mask.tolist() == [False, True, False, True]

    def test_is_null(self, ctx):
        mask = evaluate_mask(parse_expression("q IS NULL"), ctx)
        assert mask.tolist() == [False, False, False, True]
        mask = evaluate_mask(parse_expression("x IS NULL"), ctx)
        assert mask.tolist() == [False, False, True, False]

    def test_like(self, ctx):
        mask = evaluate_mask(parse_expression("q LIKE 'A%'"), ctx)
        assert mask.tolist() == [True, False, True, False]

    def test_boolean_connectives(self, ctx):
        mask = evaluate_mask(
            parse_expression("x > 1 AND q = 'B'"), ctx
        )
        assert mask.tolist() == [False, True, False, False]
        mask = evaluate_mask(parse_expression("x > 3 OR q = 'A'"), ctx)
        assert mask.tolist() == [True, False, True, True]

    def test_arithmetic_values(self, ctx):
        values = evaluate_values(parse_expression("x * 2"), ctx)
        assert values[0] == 2.0
        assert np.isnan(values[2])

    def test_division_by_zero_is_nan(self, ctx):
        values = evaluate_values(parse_expression("x / 0"), ctx)
        assert np.isnan(values[0])

    def test_bin_vectorized(self, ctx):
        values = evaluate_values(parse_expression("BIN(x, 2)"), ctx)
        assert values[1] == 2.0
        assert values[3] == 4.0


class TestVectorEvaluationOverCodes(TestVectorEvaluation):
    """The same cases with a table behind the context, so string
    predicates compare the table's dictionary codes."""

    @pytest.fixture()
    def ctx(self):
        table = Table.from_columns(
            "t", {"x": [1.0, 2.0, None, 4.0], "q": ["A", "B", "A", None]}
        )
        return VectorContext(
            {n: table.array(n) for n in table.schema.names}, 4, table
        )


class TestAccumulators:
    def agg(self, name, values, distinct=False, star=False):
        call = FuncCall(
            name, (Star(),) if star else (parse_expression("x"),), distinct
        )
        accumulator = make_accumulator(call)
        for value in values:
            accumulator.add(value)
        return accumulator.result()

    def test_count_skips_nulls(self):
        assert self.agg("COUNT", [1, None, 2]) == 2

    def test_count_star_counts_everything(self):
        assert self.agg("COUNT", [1, None, 2], star=True) == 3

    def test_count_distinct(self):
        assert self.agg("COUNT", [1, 1, 2, None], distinct=True) == 2

    def test_sum(self):
        assert self.agg("SUM", [1, 2, 3]) == 6

    def test_sum_of_empty_is_null(self):
        assert self.agg("SUM", []) is None
        assert self.agg("SUM", [None]) is None

    def test_sum_distinct(self):
        assert self.agg("SUM", [2, 2, 3], distinct=True) == 5

    def test_avg(self):
        assert self.agg("AVG", [1, 2, 3]) == 2.0

    def test_avg_of_empty_is_null(self):
        assert self.agg("AVG", []) is None

    def test_min_max(self):
        assert self.agg("MIN", [3, 1, 2]) == 1
        assert self.agg("MAX", [3, 1, 2]) == 3

    def test_min_of_strings(self):
        call = FuncCall("MIN", (parse_expression("q"),))
        accumulator = make_accumulator(call)
        for value in ["b", "a", None]:
            accumulator.add(value)
        assert accumulator.result() == "a"

    def test_sum_rejects_strings(self):
        with pytest.raises(TypeMismatchError):
            self.agg("SUM", ["x"])

    def test_unknown_aggregate_raises(self):
        with pytest.raises(ExecutionError):
            make_accumulator(FuncCall("MEDIAN", (parse_expression("x"),)))
