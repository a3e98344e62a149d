"""Dictionary-encoded grouping and predicates in the vectorized store.

The encoded kernel is held to the per-row hash loop it replaced
(``tests/reference_grouping.py``): identical group ids and key tuples,
key values of identical types, for every key shape — on the fly, from
a table's cached codes, from codes a filtered table inherited, and with
cardinalities large enough to force re-densifying before the
mixed-radix combine.
"""

from __future__ import annotations

import datetime as dt
import math
import sqlite3

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine import create_engine
from repro.engine.columnstore import _assign_group_ids, filtered_table
from repro.engine.encoding import Encoding, canonical_key, encode
from repro.engine.expressions import VectorContext, evaluate_mask
from repro.engine.sqlite_engine import _SQLITE_TYPES, _to_sqlite
from repro.engine.table import ColumnDef, Schema, Table
from repro.engine.types import DataType
from repro.sql.parser import parse_expression, parse_query
from tests.reference_grouping import _assign_group_ids as reference_group_ids
from tests.reference_grouping import sentinel_collides

ENGINES = ("sqlite", "rowstore", "vectorstore", "matstore")

_FLOATS = [
    None, math.nan, 0.0, -0.0, 1.0, -3.0, 2.5, 7.0,
    2.0**60, 5 * 2.0**60, -(2.0**60), 1e300,
]
_OBJECTS = [
    None, math.nan, 0.0, -0.0, 0, 1, 1.0, True, False, 2.5, 2**60,
    2.0**60, "a", "b", "", dt.date(2024, 1, 2), dt.date(2024, 1, 3),
    dt.datetime(2024, 1, 2, 3, 4),
]


@st.composite
def key_columns(draw):
    """1-3 key columns (float64 or object) of one length, 0-30 rows."""
    rows = draw(st.integers(0, 30))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        is_float = draw(st.booleans())
        pool = _FLOATS if is_float else _OBJECTS
        # A narrow pool makes repeats (and all-NULL columns) common.
        pool = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        values = draw(st.lists(st.sampled_from(pool), min_size=rows,
                               max_size=rows))
        columns.append((DataType.FLOAT if is_float else DataType.STRING,
                        values))
    return columns


def _table(columns) -> Table:
    schema = Schema(
        [ColumnDef(f"k{i}", dtype) for i, (dtype, _) in enumerate(columns)]
    )
    data = {f"k{i}": values for i, (_, values) in enumerate(columns)}
    return Table("t", schema, data)


def _inflate(encoding: Encoding) -> Encoding:
    """The same partition under a cardinality whose product with any
    other wraps int64 (``2**32 * 2**32``) unless re-densified first."""
    stride = 1 << 32
    return Encoding(encoding.codes * stride, encoding.cardinality * stride)


def _typed(keys):
    return [tuple((type(v), v) for v in key) for key in keys]


def _expected(key_arrays):
    """The reference's ids and keys, with its NULL-merging defect fixed."""
    if len(key_arrays) == 1 and key_arrays[0].dtype == np.float64:
        values = key_arrays[0]
        if not sentinel_collides(values):
            return reference_group_ids(key_arrays, len(values))
        # The hash loop's groups, in the single-float path's order:
        # NULL first, then ascending.
        gids, keys = reference_group_ids(
            [np.array(values.tolist(), dtype=object)], len(values)
        )
        order = sorted(
            range(len(keys)),
            key=lambda g: (keys[g][0] is not None, keys[g][0] or 0),
        )
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return rank[gids], [keys[g] for g in order]
    return reference_group_ids(key_arrays, len(key_arrays[0]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(columns=key_columns(), data=st.data())
def test_encoded_grouping_matches_hash_loop(columns, data):
    table = _table(columns)
    rows = data.draw(st.lists(st.integers(0, max(table.num_rows - 1, 0)),
                              max_size=table.num_rows))
    relation = data.draw(st.sampled_from(
        ["table", "filtered"] if table.num_rows else ["table"]
    ))
    if relation == "filtered":
        table = table.take("tmp", np.array(rows, dtype=np.int64))
    names = table.schema.names
    key_arrays = [table.array(n) for n in names]
    encodings = []
    for name in names:
        source = data.draw(st.sampled_from(["fly", "cached", "inflated"]))
        if source == "fly":
            encodings.append(None)
        elif source == "cached":
            encodings.append(table.encoding(name))
        else:
            encodings.append(_inflate(table.encoding(name)))

    gids, keys = _assign_group_ids(key_arrays, encodings)
    want_gids, want_keys = _expected(key_arrays)

    assert gids.dtype == np.int64
    assert gids.tolist() == want_gids.tolist()
    assert _typed(keys) == _typed(want_keys)


@settings(max_examples=200, deadline=None)
@given(columns=key_columns())
def test_codes_equal_exactly_when_canonical_values_equal(columns):
    for _, values in columns:
        codes = encode(_table([(DataType.STRING, values)]).array("k0")).codes
        canon = [canonical_key(v) for v in values]
        for i in range(len(values)):
            assert (codes[i] == 0) == (canon[i] is None)
            for j in range(i):
                assert (codes[i] == codes[j]) == (canon[i] == canon[j])


def test_single_float_key_orders_null_first_then_ascending():
    values = np.array([3.0, np.nan, -1.0, 3.0, np.nan])
    gids, keys = _assign_group_ids([values])
    assert keys == [(None,), (-1,), (3,)]
    assert gids.tolist() == [2, 0, 1, 2, 0]


# -- the NULL-group regression, on every engine -------------------------------


@pytest.mark.parametrize("engine_name", ENGINES)
def test_null_group_stays_apart_from_huge_minimum(engine_name):
    """The single-float path used to put NULL in the smallest key's group
    once ``|min| >= 2**53`` (its sentinel ``min - 1.0`` equalled min)."""
    table = Table.from_columns(
        "t", {"k": [2**60, None, 2**60, 5 * 2**60]}
    )
    engine = create_engine(engine_name)
    engine.load_table(table)
    result = engine.execute(
        parse_query("SELECT k, COUNT(*) AS n FROM t GROUP BY k")
    )
    assert sorted(result.rows, key=lambda r: (r[0] is not None, r[0] or 0)) \
        == [(None, 1), (2**60, 2), (5 * 2**60, 1)]
    if engine_name == "vectorstore":
        assert result.rows == [(None, 1), (2**60, 2), (5 * 2**60, 1)]


# -- codes across tables --------------------------------------------------------


def _calls(num_rows=60, offset=0) -> Table:
    queues = ["A", "B", None, "C"]
    return Table.from_columns(
        "calls",
        {
            "queue": [queues[(i + offset) % 4] for i in range(num_rows)],
            "rep": [(i * 7 + offset) % 5 for i in range(num_rows)],
            "day": [dt.date(2024, 1, 1 + (i + offset) % 3)
                    for i in range(num_rows)],
        },
    )


@pytest.mark.parametrize("row_range", [None, (10, 47)])
def test_filtered_temp_inherits_codes_that_group_like_fresh_ones(row_range):
    base = _calls()
    predicate = parse_expression("queue IN ('A', 'C') OR rep = 3")
    temp = filtered_table(base, "__tmp", predicate, row_range)
    names = ["queue", "day", "rep"]
    arrays = [temp.array(n) for n in names]
    inherited = [temp.encoding(n) for n in names]
    rows = temp.origin[1]
    for name, encoding in zip(names, inherited):
        assert encoding.codes.tolist() == \
            base.encoding(name).codes[rows].tolist()
    got_gids, got_keys = _assign_group_ids(arrays, inherited)
    fresh_gids, fresh_keys = _assign_group_ids(arrays)
    assert got_gids.tolist() == fresh_gids.tolist()
    assert _typed(got_keys) == _typed(fresh_keys)


def test_reloaded_table_never_sees_stale_codes():
    engine = create_engine("vectorstore")
    reference = create_engine("rowstore")
    query = parse_query(
        "SELECT queue, day, COUNT(*) AS n FROM calls "
        "WHERE queue != 'B' GROUP BY queue, day"
    )
    for offset in (0, 1, 2):
        table = _calls(num_rows=50 + offset, offset=offset)
        engine.load_table(table)
        reference.load_table(table)
        assert engine.execute(query).rows == reference.execute(query).rows
        assert engine.materialize_filtered(
            "__tmp_calls", "calls", parse_expression("rep < 3")
        )
        on_temp = parse_query(
            "SELECT queue, COUNT(*) AS n FROM __tmp_calls GROUP BY queue"
        )
        on_base = parse_query(
            "SELECT queue, COUNT(*) AS n FROM calls WHERE rep < 3 "
            "GROUP BY queue"
        )
        assert engine.execute(on_temp).rows == \
            reference.execute(on_base).rows


# -- predicates over codes ------------------------------------------------------


_PREDICATES = [
    "k0 IN ({members})", "k0 NOT IN ({members})", "k0 = {first}",
    "k0 != {first}", "{first} = k0", "k0 IS NULL", "k0 IS NOT NULL",
]
_LITERALS = ["'a'", "'b'", "''", "0", "1", "1.0", "2.5", "TRUE", "FALSE",
             "1152921504606846976", "1152921504606846977", "NULL"]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.sampled_from(_OBJECTS), max_size=25),
    template=st.sampled_from(_PREDICATES),
    members=st.lists(st.sampled_from(_LITERALS), min_size=1, max_size=4),
    cut=st.booleans(),
)
def test_code_predicates_match_elementwise_evaluation(
    values, template, members, cut
):
    table = _table([(DataType.STRING, values)])
    rows = None
    if cut and values:
        rows = np.arange(0, len(values), 2)
        table = table.take("tmp", rows)
    arrays = {"k0": table.array("k0")}
    predicate = parse_expression(
        template.format(members=", ".join(members), first=members[0])
    )
    plain = evaluate_mask(predicate, VectorContext(arrays, table.num_rows))
    coded = evaluate_mask(
        predicate, VectorContext(arrays, table.num_rows, table)
    )
    assert coded.tolist() == plain.tolist()


# -- sqlite load_table -----------------------------------------------------------


def test_sqlite_column_storage_unchanged_by_columnwise_load():
    table = Table.from_columns(
        "mixed",
        {
            "i": [1, None, 3, 2**60],
            "f": [1.5, 2.0, None, -0.0],
            "s": ["x", None, "y", "z"],
            "b": [True, False, None, True],
            "d": [dt.date(2024, 1, 2), None, dt.date(2023, 5, 6),
                  dt.date(2024, 1, 2)],
            "ts": [dt.datetime(2024, 1, 2, 3, 4), None,
                   dt.datetime(2024, 1, 2), dt.datetime(2020, 2, 2, 2, 2)],
            # Inferred STRING from mixed bool + int: stores 1, not True.
            "bi": [True, 2, None, False],
            "mix": [dt.date(2024, 1, 1), "a", 3, 1.5],
        },
    )
    assert table.schema.dtype("bi") is DataType.STRING
    engine = create_engine("sqlite")
    engine.load_table(table)

    expected = sqlite3.connect(":memory:")
    columns_sql = ", ".join(
        f'"{c.name}" {_SQLITE_TYPES[c.dtype]}' for c in table.schema
    )
    expected.execute(f'CREATE TABLE "mixed" ({columns_sql})')
    names = table.schema.names
    expected.executemany(
        f'INSERT INTO "mixed" VALUES ({", ".join("?" for _ in names)})',
        [
            tuple(_to_sqlite(table.column(n)[i]) for n in names)
            for i in range(table.num_rows)
        ],
    )
    for name in names:
        sql = f'SELECT typeof("{name}"), quote("{name}") FROM "mixed"'
        assert engine._connection().execute(sql).fetchall() == \
            expected.execute(sql).fetchall(), name
    expected.close()
    engine.close()
