"""Unit tests for the in-memory table storage."""

import numpy as np
import pytest

from repro.engine.table import ColumnDef, Database, Schema, Table
from repro.engine.types import DataType
from repro.errors import SchemaError


@pytest.fixture()
def simple_table():
    return Table.from_columns(
        "t",
        {
            "q": ["A", "B", "A", None],
            "x": [1, 2, 3, 4],
            "y": [1.5, None, 2.5, 0.0],
        },
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([ColumnDef("a", DataType.INTEGER)] * 2)

    def test_lookup(self):
        schema = Schema([ColumnDef("a", DataType.FLOAT)])
        assert schema.dtype("a") is DataType.FLOAT

    def test_unknown_column_raises(self):
        schema = Schema([ColumnDef("a", DataType.FLOAT)])
        with pytest.raises(SchemaError):
            schema.column("b")

    def test_contains(self):
        schema = Schema([ColumnDef("a", DataType.FLOAT)])
        assert "a" in schema
        assert "b" not in schema

    def test_role_partitions(self):
        schema = Schema(
            [
                ColumnDef("s", DataType.STRING),
                ColumnDef("i", DataType.INTEGER),
                ColumnDef("d", DataType.DATE),
            ]
        )
        assert schema.categorical_columns() == ["s"]
        assert schema.numeric_columns() == ["i"]
        assert schema.temporal_columns() == ["d"]


class TestTableConstruction:
    def test_from_rows_infers_schema(self):
        table = Table.from_rows("t", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert table.schema.dtype("a") is DataType.INTEGER
        assert table.schema.dtype("b") is DataType.STRING
        assert table.num_rows == 2

    def test_from_rows_with_schema_coerces(self):
        schema = Schema([ColumnDef("a", DataType.FLOAT)])
        table = Table.from_rows("t", [{"a": 1}], schema)
        assert isinstance(table.column("a")[0], float)

    def test_from_rows_empty_without_schema_raises(self):
        with pytest.raises(SchemaError):
            Table.from_rows("t", [])

    def test_ragged_columns_rejected(self):
        schema = Schema(
            [ColumnDef("a", DataType.INTEGER), ColumnDef("b", DataType.INTEGER)]
        )
        with pytest.raises(SchemaError):
            Table("t", schema, {"a": [1, 2], "b": [1]})

    def test_missing_column_rejected(self):
        schema = Schema([ColumnDef("a", DataType.INTEGER)])
        with pytest.raises(SchemaError):
            Table("t", schema, {})


class TestTableAccess:
    def test_len(self, simple_table):
        assert len(simple_table) == 4

    def test_column_values(self, simple_table):
        assert simple_table.column("x") == [1, 2, 3, 4]

    def test_unknown_column_raises(self, simple_table):
        with pytest.raises(SchemaError):
            simple_table.column("zzz")

    def test_row(self, simple_table):
        assert simple_table.row(0) == {"q": "A", "x": 1, "y": 1.5}

    def test_iter_rows(self, simple_table):
        rows = list(simple_table.iter_rows())
        assert len(rows) == 4
        assert rows[3]["q"] is None

    def test_head(self, simple_table):
        assert len(simple_table.head(2)) == 2

    def test_distinct_values_skip_nulls_and_sort(self, simple_table):
        assert simple_table.distinct_values("q") == ["A", "B"]

    def test_distinct_values_memo_hands_out_fresh_lists(self, simple_table):
        first = simple_table.distinct_values("q")
        first.reverse()
        first.append("Z")
        second = simple_table.distinct_values("q")
        assert second == ["A", "B"]
        assert second is not simple_table.distinct_values("q")

    def test_column_extent(self, simple_table):
        assert simple_table.column_extent("x") == (1, 4)

    def test_column_extent_empty(self):
        table = Table.from_columns(
            "t",
            {"a": [None, None]},
            Schema([ColumnDef("a", DataType.INTEGER)]),
        )
        assert table.column_extent("a") == (None, None)


class TestArrays:
    def test_numeric_array_has_nan_for_null(self, simple_table):
        array = simple_table.array("y")
        assert array.dtype == np.float64
        assert np.isnan(array[1])

    def test_string_array_is_object(self, simple_table):
        assert simple_table.array("q").dtype == object

    def test_array_is_cached(self, simple_table):
        assert simple_table.array("x") is simple_table.array("x")


class TestDatabase:
    def test_add_and_lookup(self, simple_table):
        db = Database([simple_table])
        assert db.table("t") is simple_table
        assert "t" in db

    def test_unknown_table_raises(self):
        with pytest.raises(SchemaError):
            Database().table("nope")

    def test_table_names(self, simple_table):
        assert Database([simple_table]).table_names == ["t"]
