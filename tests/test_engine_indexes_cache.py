"""Secondary indexes and the LRU result cache.

Indexes are pre-filters, so the load-bearing property is *transparency*:
for any query, an indexed engine must return exactly what the unindexed
engine returns. The cache has the same property plus LRU/invalidat­ion
behaviour of its own.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine import CachedEngine, create_engine
from repro.engine.indexes import (
    HashIndex,
    RangeIndex,
    TableIndexes,
    candidate_indices,
)
from repro.engine.table import Table
from repro.errors import ConfigError, ExecutionError, SchemaError
from repro.sql.parser import parse_expression, parse_query

INDEXED_ENGINES = ["rowstore", "matstore", "sqlite"]


@pytest.fixture(scope="module")
def table():
    rows = [
        {
            "id": i,
            "queue": "ABCD"[i % 4],
            "hour": i % 24,
            "score": float(i % 7) if i % 11 else None,
        }
        for i in range(500)
    ]
    return Table.from_rows("events", rows)


class TestHashIndex:
    def test_lookup_returns_matching_positions(self):
        index = HashIndex(["a", "b", "a", None, "a"])
        assert list(index.lookup("a")) == [0, 2, 4]

    def test_lookup_missing_value_is_empty(self):
        index = HashIndex(["a", "b"])
        assert index.lookup("z").size == 0

    def test_null_probe_matches_nothing(self):
        index = HashIndex([None, None, "a"])
        assert index.lookup(None).size == 0

    def test_lookup_many_unions_and_sorts(self):
        index = HashIndex(["a", "b", "a", "c"])
        assert list(index.lookup_many(["c", "a"])) == [0, 2, 3]

    def test_distinct_count_excludes_null(self):
        index = HashIndex(["a", None, "b", "a"])
        assert index.distinct_count == 2

    def test_int_float_probe_equivalence(self):
        index = HashIndex([1, 2, 3])
        assert list(index.lookup(2.0)) == [1]


class TestRangeIndex:
    def test_closed_range(self):
        index = RangeIndex([5, 1, 3, 2, 4])
        assert sorted(index.range(2, 4)) == [2, 3, 4]  # values 3, 2, 4

    def test_open_ended_low(self):
        index = RangeIndex([5, 1, 3])
        assert sorted(index.range(None, 3)) == [1, 2]

    def test_exclusive_bounds(self):
        index = RangeIndex([1, 2, 3])
        assert list(index.range(1, 3, include_low=False, include_high=False)) == [1]

    def test_nulls_excluded(self):
        index = RangeIndex([1, None, 2])
        assert sorted(index.range(None, None)) == [0, 2]

    def test_empty_range(self):
        index = RangeIndex([1, 2, 3])
        assert index.range(10, 20).size == 0


class TestCandidateIndices:
    @pytest.fixture()
    def indexes(self, table):
        built = TableIndexes(table)
        built.create("queue")
        built.create("hour")
        return built

    def test_equality_conjunct(self, table, indexes):
        vector = candidate_indices(indexes, parse_expression("queue = 'A'"))
        assert vector is not None
        assert all(table.column("queue")[i] == "A" for i in vector)

    def test_reversed_comparison_flips(self, table, indexes):
        vector = candidate_indices(indexes, parse_expression("5 > hour"))
        assert vector is not None
        assert all(table.column("hour")[i] < 5 for i in vector)

    def test_in_list_conjunct(self, table, indexes):
        vector = candidate_indices(
            indexes, parse_expression("queue IN ('A', 'C')")
        )
        assert vector is not None
        assert all(table.column("queue")[i] in {"A", "C"} for i in vector)

    def test_between_conjunct(self, table, indexes):
        vector = candidate_indices(
            indexes, parse_expression("hour BETWEEN 9 AND 17")
        )
        assert vector is not None
        assert all(9 <= table.column("hour")[i] <= 17 for i in vector)

    def test_unindexed_column_returns_none(self, indexes):
        assert candidate_indices(indexes, parse_expression("id = 1")) is None

    def test_negated_in_not_accelerated(self, indexes):
        predicate = parse_expression("queue NOT IN ('A')")
        assert candidate_indices(indexes, predicate) is None

    def test_column_to_column_not_accelerated(self, indexes):
        predicate = parse_expression("queue = hour")
        assert candidate_indices(indexes, predicate) is None

    def test_exactness_of_range_candidates(self, table, indexes):
        """Range candidates must be exact, not a superset (matstore
        intersects them without re-checking)."""
        vector = candidate_indices(indexes, parse_expression("hour >= 20"))
        expected = [
            i for i, h in enumerate(table.column("hour")) if h >= 20
        ]
        assert sorted(vector) == expected


class TestIndexedEngines:
    QUERIES = [
        "SELECT id FROM events WHERE queue = 'B' ORDER BY id",
        "SELECT queue, COUNT(*) AS n FROM events WHERE hour BETWEEN 8 AND 10 "
        "GROUP BY queue ORDER BY queue",
        "SELECT id FROM events WHERE queue IN ('A', 'D') AND hour < 3 "
        "ORDER BY id",
        "SELECT COUNT(*) AS n FROM events WHERE queue = 'A' AND score > 2",
        "SELECT id FROM events WHERE hour >= 23 ORDER BY id",
    ]

    @pytest.mark.parametrize("engine_name", INDEXED_ENGINES)
    @pytest.mark.parametrize("sql", QUERIES)
    def test_indexed_matches_unindexed(self, table, engine_name, sql):
        plain = create_engine(engine_name)
        plain.load_table(table)
        indexed = create_engine(engine_name)
        indexed.load_table(table)
        indexed.create_index("events", "queue")
        indexed.create_index("events", "hour")
        query = parse_query(sql)
        assert (
            indexed.execute(query).sorted_rows()
            == plain.execute(query).sorted_rows()
        )

    @pytest.mark.parametrize("engine_name", INDEXED_ENGINES)
    def test_reload_invalidates_index(self, table, engine_name):
        engine = create_engine(engine_name)
        engine.load_table(table)
        engine.create_index("events", "queue")
        # Replace the data: the old index must not leak stale positions.
        replacement = Table.from_rows(
            "events",
            [{"id": 0, "queue": "Z", "hour": 1, "score": 1.0}],
        )
        engine.load_table(replacement)
        result = engine.execute(
            parse_query("SELECT id FROM events WHERE queue = 'Z'")
        )
        assert result.column("id") == [0]

    def test_vectorstore_refuses_indexes(self, table):
        engine = create_engine("vectorstore")
        engine.load_table(table)
        assert not engine.supports_indexes
        with pytest.raises(ExecutionError):
            engine.create_index("events", "queue")

    def test_indexing_unknown_column_rejected(self, table):
        engine = create_engine("rowstore")
        engine.load_table(table)
        with pytest.raises(SchemaError):
            engine.create_index("events", "nosuch")

    def test_index_unused_for_joined_queries(self, table):
        """Joins rebuild row positions, so base-table indexes must not
        be consulted — this exercises the guard."""
        dim = Table.from_rows(
            "queues", [{"queue": q, "rank": i} for i, q in enumerate("ABCD")]
        )
        for name in ("rowstore", "matstore"):
            engine = create_engine(name)
            engine.load_table(table)
            engine.load_table(dim)
            engine.create_index("events", "queue")
            result = engine.execute(
                parse_query(
                    "SELECT rank, COUNT(*) AS n FROM events "
                    "JOIN queues ON events.queue = queues.queue "
                    "WHERE queue = 'A' GROUP BY rank"
                )
            )
            assert result.rows == [(0, 125)]


class TestCachedEngine:
    def _engine(self, table, capacity=8):
        cached = CachedEngine(create_engine("vectorstore"), capacity=capacity)
        cached.load_table(table)
        return cached

    def test_repeat_query_hits_cache(self, table):
        engine = self._engine(table)
        query = parse_query("SELECT COUNT(*) AS n FROM events")
        first = engine.execute(query)
        second = engine.execute(query)
        assert first.rows == second.rows
        assert (engine.hits, engine.misses) == (1, 1)

    def test_cache_returns_fresh_result_objects(self, table):
        engine = self._engine(table)
        query = parse_query("SELECT COUNT(*) AS n FROM events")
        first = engine.execute(query)
        second = engine.execute(query)
        assert first is not second
        assert first.rows == second.rows

    def test_different_queries_do_not_collide(self, table):
        engine = self._engine(table)
        a = engine.execute(parse_query("SELECT COUNT(*) AS n FROM events"))
        b = engine.execute(
            parse_query("SELECT COUNT(*) AS n FROM events WHERE hour = 1")
        )
        assert a.rows != b.rows
        assert engine.misses == 2

    def test_load_table_invalidates(self, table):
        engine = self._engine(table)
        query = parse_query("SELECT COUNT(*) AS n FROM events")
        engine.execute(query)
        engine.load_table(table)
        engine.execute(query)
        assert engine.misses == 2 and engine.hits == 0

    def test_lru_eviction(self, table):
        engine = self._engine(table, capacity=2)
        q1 = parse_query("SELECT COUNT(*) AS a FROM events")
        q2 = parse_query("SELECT COUNT(*) AS b FROM events")
        q3 = parse_query("SELECT COUNT(*) AS c FROM events")
        engine.execute(q1)
        engine.execute(q2)
        engine.execute(q1)  # q1 becomes most recent
        engine.execute(q3)  # evicts q2
        engine.execute(q1)
        assert engine.hits == 2
        engine.execute(q2)  # must miss: it was evicted
        assert engine.misses == 4

    def test_hit_rate(self, table):
        engine = self._engine(table)
        query = parse_query("SELECT COUNT(*) AS n FROM events")
        assert engine.hit_rate == 0.0
        engine.execute(query)
        engine.execute(query)
        assert engine.hit_rate == 0.5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            CachedEngine(create_engine("vectorstore"), capacity=0)

    def test_invalidate_keeps_counters(self, table):
        engine = self._engine(table)
        query = parse_query("SELECT COUNT(*) AS n FROM events")
        engine.execute(query)
        engine.invalidate()
        assert engine.size == 0 and engine.misses == 1

    def test_name_reflects_inner_engine(self, table):
        engine = self._engine(table)
        assert engine.name == "cached(vectorstore)"

    def test_create_index_forwards(self, table):
        cached = CachedEngine(create_engine("rowstore"))
        cached.load_table(table)
        assert cached.supports_indexes
        cached.create_index("events", "queue")
        result = cached.execute(
            parse_query("SELECT COUNT(*) AS n FROM events WHERE queue = 'A'")
        )
        assert result.rows == [(125,)]

    def test_invalidation_is_per_table(self, table):
        engine = self._engine(table)
        query = parse_query("SELECT COUNT(*) AS n FROM events")
        engine.execute(query)
        engine.load_table(
            Table.from_rows("other", [{"k": 1}, {"k": 2}])
        )
        engine.execute(query)
        assert engine.hits == 1  # unrelated load left the entry alive
        engine.load_table(table)
        engine.execute(query)
        assert engine.misses == 2  # same-table load dropped it


class TestScanGroupCacheInvalidation:
    """Batch scan groups must never serve stale reads after mutation."""

    def _queries(self):
        return [
            parse_query(
                "SELECT queue, COUNT(*) AS n FROM events "
                "WHERE hour = 1 GROUP BY queue"
            ),
            parse_query(
                "SELECT hour, COUNT(*) AS n FROM events "
                "WHERE hour = 1 GROUP BY hour"
            ),
            parse_query(
                "SELECT queue, MIN(score) AS lo FROM events "
                "WHERE hour = 1 GROUP BY queue"
            ),
        ]

    def test_repeated_batch_hits_scan_group_cache(self, table):
        engine = CachedEngine(create_engine("rowstore"))
        engine.load_table(table)
        queries = self._queries()
        first = engine.execute_batch(queries)
        second = engine.execute_batch(queries)
        assert engine.batch_stats.cache_hits == len(queries)
        assert engine.scan_groups.size >= 1
        for a, b in zip(first, second):
            assert a.result == b.result

    def test_table_mutation_invalidates_batch_scan_groups(self, table):
        engine = CachedEngine(create_engine("rowstore"))
        engine.load_table(table)
        queries = self._queries()
        stale = engine.execute_batch(queries)

        # Mutate: replace the table with hour-1 rows requeued to 'Z'.
        mutated_rows = [
            {
                "id": i,
                "queue": "Z" if i % 24 == 1 else "ABCD"[i % 4],
                "hour": i % 24,
                "score": float(i % 7) if i % 11 else None,
            }
            for i in range(500)
        ]
        engine.load_table(Table.from_rows("events", mutated_rows))
        assert engine.scan_groups.size == 0  # groups dropped with the data

        fresh = engine.execute_batch(queries)
        sequential = [
            engine.inner.execute(q) for q in queries
        ]  # ground truth from the raw engine
        for timed, expected in zip(fresh, sequential):
            assert timed.result == expected
        # The stale pre-mutation answer must be gone, not re-served.
        assert fresh[0].result.rows != stale[0].result.rows

    def test_unload_table_invalidates_both_caches(self, table):
        engine = CachedEngine(create_engine("rowstore"))
        engine.load_table(table)
        query = parse_query("SELECT COUNT(*) AS n FROM events")
        engine.execute(query)
        engine.execute_batch(self._queries())
        engine.unload_table("events")
        assert engine.scan_groups.size == 0
        with pytest.raises(SchemaError):
            engine.execute(query)  # must reach the engine, not the cache

    def test_solo_batch_queries_share_the_per_query_cache(self, table):
        engine = CachedEngine(create_engine("rowstore"))
        engine.load_table(table)
        query = parse_query("SELECT COUNT(*) AS n FROM events")
        engine.execute(query)  # warm the LRU sequentially
        timed = engine.execute_batch([query])
        assert engine.hits == 1  # batch solo path consulted the LRU
        assert timed[0].result.rows == [(500,)]

    def test_scan_group_member_count_is_bounded(self):
        from repro.engine import ResultSet
        from repro.engine.cache import ScanGroupCache

        cache = ScanGroupCache(lambda table: 1)  # "t" stays at version 1
        cap = ScanGroupCache.MAX_MEMBERS_PER_GROUP
        for i in range(cap + 10):
            cache.store(
                "t", "p", {f"SELECT {i}": ResultSet(["a"], [(i,)])}, 1
            )
        entry = cache.lookup("t", "p", 1)
        assert len(entry) == cap
        assert f"SELECT {cap + 9}" in entry  # newest kept
        assert "SELECT 0" not in entry  # oldest evicted

    def test_unrelated_table_load_keeps_scan_groups(self, table):
        engine = CachedEngine(create_engine("rowstore"))
        engine.load_table(table)
        queries = self._queries()
        engine.execute_batch(queries)
        engine.load_table(Table.from_rows("other", [{"k": 1}]))
        assert engine.scan_groups.size >= 1
        engine.execute_batch(queries)
        assert engine.batch_stats.cache_hits == len(queries)


# ---------------------------------------------------------------------------
# Property: index transparency over random predicates (rowstore + matstore)
# ---------------------------------------------------------------------------


@st.composite
def _predicate(draw):
    clauses = []
    if draw(st.booleans()):
        value = draw(st.sampled_from(["A", "B", "C", "D"]))
        clauses.append(f"queue = '{value}'")
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=23))
        high = draw(st.integers(min_value=0, max_value=23))
        clauses.append(f"hour BETWEEN {min(low, high)} AND {max(low, high)}")
    if draw(st.booleans()):
        bound = draw(st.integers(min_value=0, max_value=6))
        clauses.append(f"score <= {bound}")
    if not clauses:
        clauses.append("hour >= 0")
    return " AND ".join(clauses)


@given(_predicate(), st.sampled_from(["rowstore", "matstore"]))
@settings(max_examples=40, deadline=None)
def test_index_transparency_property(predicate, engine_name):
    rows = [
        {
            "id": i,
            "queue": "ABCD"[i % 4],
            "hour": i % 24,
            "score": float(i % 7) if i % 11 else None,
        }
        for i in range(200)
    ]
    data = Table.from_rows("events", rows)
    plain = create_engine(engine_name)
    plain.load_table(data)
    indexed = create_engine(engine_name)
    indexed.load_table(data)
    for column in ("queue", "hour", "score"):
        indexed.create_index("events", column)
    query = parse_query(f"SELECT id FROM events WHERE {predicate}")
    assert (
        indexed.execute(query).sorted_rows()
        == plain.execute(query).sorted_rows()
    )
