"""Unit tests for SQL formatting and text normalization."""

import copy
import dataclasses
import datetime as dt
import pickle

import pytest

from repro.sql.ast import SQL_MEMO, BinaryOp, Column, Literal, replace_query
from repro.sql.formatter import (
    _render_query,
    format_expression,
    format_literal,
    format_query,
    normalize_sql,
)
from repro.sql.parser import parse_expression, parse_query


class TestFormatLiteral:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, "NULL"),
            (True, "TRUE"),
            (False, "FALSE"),
            (5, "5"),
            (2.5, "2.5"),
            ("x", "'x'"),
            ("it's", "'it''s'"),
            (dt.date(2024, 3, 1), "'2024-03-01'"),
            (dt.datetime(2024, 3, 1, 12, 30), "'2024-03-01 12:30:00'"),
        ],
    )
    def test_values(self, value, expected):
        assert format_literal(value) == expected


class TestFormatQuery:
    def test_full_clause_order(self):
        text = (
            "SELECT queue, COUNT(*) AS n FROM cs WHERE hour > 1 "
            "GROUP BY queue HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 3"
        )
        assert format_query(parse_query(text)) == text

    def test_distinct(self):
        assert format_query(parse_query("SELECT DISTINCT a FROM t")) == (
            "SELECT DISTINCT a FROM t"
        )

    def test_table_alias(self):
        assert "FROM t AS x" in format_query(parse_query("SELECT a FROM t x"))

    def test_qualified_column(self):
        assert "t.a" in format_query(parse_query("SELECT t.a FROM t"))


class TestRenderedOnce:
    """``format_query`` keeps its text on the instance and nowhere else."""

    TEXT = "SELECT queue, COUNT(*) AS n FROM cs WHERE hour > 1 GROUP BY queue"

    def test_second_call_returns_the_kept_text(self):
        query = parse_query(self.TEXT)
        first = format_query(query)
        assert format_query(query) is first
        assert str(query) is first
        assert first == _render_query(query) == self.TEXT

    def test_derived_queries_render_their_own_text(self):
        query = parse_query(self.TEXT)
        format_query(query)  # rendered before every derivation below
        extra = parse_expression("shift = 'day'")
        derived = [
            query.with_where(None),
            query.with_where(extra),
            query.and_where(extra),
            replace_query(query, limit=3),
            replace_query(query, select=list(query.select[:1]), group_by=[]),
            dataclasses.replace(query, distinct=True),
        ]
        for other in derived:
            assert SQL_MEMO not in vars(other)
            assert format_query(other) == _render_query(other) != self.TEXT
        assert format_query(query) == self.TEXT

    def test_equality_and_hash_ignore_the_kept_text(self):
        rendered, fresh = parse_query(self.TEXT), parse_query(self.TEXT)
        before = hash(rendered)
        format_query(rendered)
        assert rendered == fresh and fresh == rendered
        assert hash(rendered) == hash(fresh) == before
        assert {rendered: 1}[fresh] == 1
        assert dataclasses.asdict(rendered) == dataclasses.asdict(fresh)
        assert [f.name for f in dataclasses.fields(rendered)] == [
            "select", "from_table", "where", "group_by", "having",
            "order_by", "limit", "distinct", "joins",
        ]

    def test_pickle_and_copy_carry_fields_only(self):
        rendered, fresh = parse_query(self.TEXT), parse_query(self.TEXT)
        format_query(rendered)
        assert pickle.dumps(rendered) == pickle.dumps(fresh)
        for clone in (
            pickle.loads(pickle.dumps(rendered)),
            copy.copy(rendered),
            copy.deepcopy(rendered),
        ):
            assert clone == rendered
            assert SQL_MEMO not in vars(clone)
            assert format_query(clone) == self.TEXT

    def test_shard_jobs_ship_the_same_bytes(self):
        from repro.concurrency.procpool import ShardJob

        def job(queries):
            return ShardJob(
                export_id="e", version=1, table="cs", shard=0, start=0,
                stop=10, temp="tmp", queries=queries, predicate=None,
            )

        rendered, fresh = parse_query(self.TEXT), parse_query(self.TEXT)
        format_query(rendered)
        assert pickle.dumps(job((rendered,))) == pickle.dumps(job((fresh,)))
        shipped = pickle.loads(pickle.dumps(job((rendered,))))
        assert shipped.queries == (fresh,)


class TestFormatExpression:
    def test_no_redundant_parens_for_and_chain(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        assert format_expression(expr) == "a = 1 AND b = 2 AND c = 3"

    def test_or_inside_and_is_parenthesized(self):
        expr = parse_expression("(a = 1 OR b = 2) AND c = 3")
        text = format_expression(expr)
        assert text.startswith("(")
        assert parse_expression(text) == expr

    def test_arithmetic_precedence_preserved(self):
        expr = parse_expression("(a + b) * c")
        text = format_expression(expr)
        assert parse_expression(text) == expr

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert format_expression(expr) == "NOT a = 1"

    def test_in_list(self):
        expr = parse_expression("q IN ('A', 'B')")
        assert format_expression(expr) == "q IN ('A', 'B')"

    def test_between(self):
        expr = parse_expression("h BETWEEN 1 AND 5")
        assert format_expression(expr) == "h BETWEEN 1 AND 5"

    def test_negative_literal(self):
        expr = BinaryOp(">", Column("a"), Literal(-3))
        assert format_expression(expr) == "a > -3"


class TestRoundTrip:
    QUERIES = [
        "SELECT * FROM t",
        "SELECT a, b AS bee FROM t WHERE a != 2",
        "SELECT COUNT(DISTINCT a) FROM t",
        "SELECT q, SUM(x) AS s FROM t WHERE q NOT IN ('A') GROUP BY q",
        "SELECT a FROM t WHERE note IS NOT NULL ORDER BY a DESC LIMIT 1",
        "SELECT BIN(x, 5), COUNT(*) FROM t GROUP BY BIN(x, 5)",
        "SELECT a FROM t WHERE name LIKE 'c%' AND h BETWEEN 2 AND 4",
        "SELECT a FROM t WHERE NOT (a = 1 OR b = 2)",
        "SELECT HOUR(ts), AVG(x) FROM t GROUP BY HOUR(ts)",
        "SELECT a + b * c - 1 FROM t",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_parse_format_parse_fixpoint(self, text):
        query = parse_query(text)
        formatted = format_query(query)
        assert parse_query(formatted) == query


class TestNormalizeSql:
    def test_collapses_whitespace(self):
        assert normalize_sql("SELECT   a\n FROM  t") == "SELECT A FROM T"

    def test_uppercases_outside_strings(self):
        assert normalize_sql("select a from t") == "SELECT A FROM T"

    def test_preserves_string_literals(self):
        normalized = normalize_sql("SELECT a FROM t WHERE q = 'Ab c'")
        assert "'Ab c'" in normalized

    def test_strips_spaces_around_punctuation(self):
        assert normalize_sql("f( a , b )") == "F(A,B)"

    def test_strips_spaces_around_comparisons(self):
        assert normalize_sql("a  =  1") == "A=1"

    def test_equal_queries_normalize_identically(self):
        a = normalize_sql("SELECT a,b FROM t WHERE x=1")
        b = normalize_sql("select  a , b  from t where x = 1")
        assert a == b
