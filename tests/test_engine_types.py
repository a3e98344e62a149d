"""Unit tests for data types and coercion."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.types import DataType, coerce, infer_type, sort_key


class TestDataType:
    def test_numeric_flags(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.STRING.is_numeric

    def test_temporal_flags(self):
        assert DataType.DATE.is_temporal
        assert DataType.TIMESTAMP.is_temporal
        assert not DataType.INTEGER.is_temporal

    def test_categorical_flags(self):
        assert DataType.STRING.is_categorical
        assert DataType.BOOLEAN.is_categorical
        assert not DataType.FLOAT.is_categorical


class TestCoerce:
    def test_none_passes_through(self):
        for dtype in DataType:
            assert coerce(None, dtype) is None

    def test_integer_from_string(self):
        assert coerce("42", DataType.INTEGER) == 42

    def test_integer_from_integral_float(self):
        assert coerce(3.0, DataType.INTEGER) == 3

    def test_integer_rejects_fractional_float(self):
        with pytest.raises(ValueError):
            coerce(3.5, DataType.INTEGER)

    def test_float_from_int(self):
        value = coerce(3, DataType.FLOAT)
        assert value == 3.0
        assert isinstance(value, float)

    def test_string_from_anything(self):
        assert coerce(12, DataType.STRING) == "12"

    def test_boolean_from_int(self):
        assert coerce(1, DataType.BOOLEAN) is True
        assert coerce(0, DataType.BOOLEAN) is False

    def test_boolean_from_string(self):
        assert coerce("true", DataType.BOOLEAN) is True

    def test_boolean_rejects_other_ints(self):
        with pytest.raises(ValueError):
            coerce(2, DataType.BOOLEAN)

    def test_date_from_iso_string(self):
        assert coerce("2024-03-01", DataType.DATE) == dt.date(2024, 3, 1)

    def test_date_from_datetime_truncates(self):
        assert coerce(
            dt.datetime(2024, 3, 1, 10), DataType.DATE
        ) == dt.date(2024, 3, 1)

    def test_timestamp_from_date(self):
        assert coerce(dt.date(2024, 3, 1), DataType.TIMESTAMP) == dt.datetime(
            2024, 3, 1
        )

    def test_timestamp_from_iso(self):
        assert coerce(
            "2024-03-01T10:30:00", DataType.TIMESTAMP
        ) == dt.datetime(2024, 3, 1, 10, 30)


class TestInferType:
    def test_all_ints(self):
        assert infer_type([1, 2, 3]) is DataType.INTEGER

    def test_ints_and_floats_widen(self):
        assert infer_type([1, 2.5]) is DataType.FLOAT

    def test_bools(self):
        assert infer_type([True, False]) is DataType.BOOLEAN

    def test_strings(self):
        assert infer_type(["a", "b"]) is DataType.STRING

    def test_dates(self):
        assert infer_type([dt.date(2024, 1, 1)]) is DataType.DATE

    def test_dates_and_datetimes_widen(self):
        assert (
            infer_type([dt.date(2024, 1, 1), dt.datetime(2024, 1, 1)])
            is DataType.TIMESTAMP
        )

    def test_nones_ignored(self):
        assert infer_type([None, 5, None]) is DataType.INTEGER

    def test_all_none_defaults_to_string(self):
        assert infer_type([None]) is DataType.STRING

    def test_mixed_defaults_to_string(self):
        assert infer_type([1, "a"]) is DataType.STRING


def _infer_per_value(values):
    """Reference: the per-value isinstance chain ``infer_type`` replaced."""
    seen = set()
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            seen.add(DataType.BOOLEAN)
        elif isinstance(value, int):
            seen.add(DataType.INTEGER)
        elif isinstance(value, float):
            seen.add(DataType.FLOAT)
        elif isinstance(value, dt.datetime):
            seen.add(DataType.TIMESTAMP)
        elif isinstance(value, dt.date):
            seen.add(DataType.DATE)
        else:
            seen.add(DataType.STRING)
    if not seen:
        return DataType.STRING
    if seen == {DataType.INTEGER}:
        return DataType.INTEGER
    if seen <= {DataType.INTEGER, DataType.FLOAT}:
        return DataType.FLOAT
    if seen == {DataType.BOOLEAN}:
        return DataType.BOOLEAN
    if seen == {DataType.DATE}:
        return DataType.DATE
    if seen <= {DataType.DATE, DataType.TIMESTAMP}:
        return DataType.TIMESTAMP
    if len(seen) == 1:
        return seen.pop()
    return DataType.STRING


_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.dates(),
    st.datetimes(),
    st.text(max_size=3),
)


class TestInferTypeMatchesPerValueChain:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_CELLS, max_size=12))
    def test_random_columns(self, values):
        assert infer_type(values) is _infer_per_value(values)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [None, None],
            [True, None, False],
            [1, 2, None],
            [1.5, None],
            [np.float64(1.5), np.float64(2.0)],
            [1, np.float64(2.5)],
            [True, 1],
            [dt.date(2024, 1, 1)],
            [dt.datetime(2024, 1, 1, 9)],
            [dt.date(2024, 1, 1), dt.datetime(2024, 1, 1, 9)],
            ["a", None],
            [1, "a", dt.date(2024, 1, 1)],
            [np.int64(3)],
        ],
    )
    def test_each_class(self, values):
        assert infer_type(values) is _infer_per_value(values)

    def test_float_subclass_is_float(self):
        assert infer_type([np.float64(0.25), 1]) is DataType.FLOAT


class TestSortKey:
    def test_none_sorts_first(self):
        values = [3, None, 1]
        assert sorted(values, key=sort_key) == [None, 1, 3]

    def test_mixed_numeric(self):
        values = [2.5, 1, 3]
        assert sorted(values, key=sort_key) == [1, 2.5, 3]

    def test_strings_after_numbers(self):
        values = ["a", 1]
        assert sorted(values, key=sort_key) == [1, "a"]

    def test_dates_sort_chronologically(self):
        a, b = dt.date(2024, 1, 2), dt.date(2024, 1, 10)
        assert sorted([b, a], key=sort_key) == [a, b]

    def test_total_order_never_raises(self):
        values = [None, True, 2, "x", dt.date(2024, 1, 1), 3.5]
        sorted(values, key=sort_key)  # must not raise
