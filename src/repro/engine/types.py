"""Column data types and value coercion shared by all engines."""

from __future__ import annotations

import datetime as _dt
from enum import Enum


class DataType(Enum):
    """Logical column types understood by the engines.

    The benchmark's datasets only need these six; they map directly onto
    the Categorical (STRING/BOOLEAN), Quantitative (INTEGER/FLOAT), and
    Temporal (DATE/TIMESTAMP) attribute classes of the paper's Table 2.
    """

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"
    DATE = "date"
    TIMESTAMP = "timestamp"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)

    @property
    def is_temporal(self) -> bool:
        return self in (DataType.DATE, DataType.TIMESTAMP)

    @property
    def is_categorical(self) -> bool:
        return self in (DataType.STRING, DataType.BOOLEAN)


def coerce(value: object, dtype: DataType) -> object:
    """Coerce a raw Python value to the canonical form for ``dtype``.

    ``None`` passes through unchanged (SQL NULL). Raises :class:`ValueError`
    when the value cannot be represented in the target type.
    """
    if value is None:
        return None
    if dtype is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            return int(value)
        raise ValueError(f"cannot coerce {value!r} to INTEGER")
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            return float(value)
        raise ValueError(f"cannot coerce {value!r} to FLOAT")
    if dtype is DataType.STRING:
        if isinstance(value, str):
            return value
        return str(value)
    if dtype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ValueError(f"cannot coerce {value!r} to BOOLEAN")
    if dtype is DataType.DATE:
        if isinstance(value, _dt.datetime):
            return value.date()
        if isinstance(value, _dt.date):
            return value
        if isinstance(value, str):
            return _dt.date.fromisoformat(value)
        raise ValueError(f"cannot coerce {value!r} to DATE")
    if dtype is DataType.TIMESTAMP:
        if isinstance(value, _dt.datetime):
            return value
        if isinstance(value, _dt.date):
            return _dt.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            return _dt.datetime.fromisoformat(value)
        raise ValueError(f"cannot coerce {value!r} to TIMESTAMP")
    raise ValueError(f"unknown data type {dtype!r}")


def _classify(cls: type) -> DataType:
    """The :class:`DataType` of one non-null value's Python type.

    Subclasses classify as their base (``numpy.float64`` is a float);
    bool is tested before int and datetime before date, since each is a
    subclass of the other.
    """
    if issubclass(cls, bool):
        return DataType.BOOLEAN
    if issubclass(cls, int):
        return DataType.INTEGER
    if issubclass(cls, float):
        return DataType.FLOAT
    if issubclass(cls, _dt.datetime):
        return DataType.TIMESTAMP
    if issubclass(cls, _dt.date):
        return DataType.DATE
    return DataType.STRING


def infer_type(values: list[object]) -> DataType:
    """Infer the narrowest :class:`DataType` covering non-null ``values``.

    Used by :meth:`repro.engine.table.Table.from_rows` when no schema is
    supplied. Falls back to STRING when values are heterogeneous. Each
    distinct Python type is classified once, so a long column costs one
    C-level pass over its values.
    """
    seen = {
        _classify(cls)
        for cls in set(map(type, values))
        if cls is not type(None)
    }
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


def parse_cell(text: str) -> object:
    """Parse one CSV cell into the narrowest fitting Python value.

    Empty text is NULL. Otherwise tries, in order: int, float, boolean
    (``true``/``false``, case-insensitive), ISO date, ISO timestamp;
    anything else stays a string.
    """
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return _dt.date.fromisoformat(text)
    except ValueError:
        pass
    try:
        return _dt.datetime.fromisoformat(text)
    except ValueError:
        pass
    return text


def sort_key(value: object) -> tuple[int, object]:
    """Total-order key that tolerates NULLs and mixed types.

    NULLs sort first (SQL ``NULLS FIRST`` for ascending order); values of
    different types sort by type name to keep the order deterministic.
    """
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, _dt.datetime):
        return (3, value.isoformat())
    if isinstance(value, _dt.date):
        return (3, value.isoformat())
    return (4, str(value))
