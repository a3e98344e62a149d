"""In-memory columnar tables shared by the pure-Python engines.

A :class:`Table` stores data column-major (one Python list per column,
with numpy views and dictionary encodings materialized lazily for the
vectorized engine). The same ``Table`` instance can be loaded into any
engine; the SQLite wrapper copies it into a real database.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from repro.engine.encoding import Encoding, encode
from repro.engine.types import DataType, coerce, infer_type
from repro.errors import SchemaError


@dataclass(frozen=True)
class ColumnDef:
    """One column of a schema: a name plus a logical type."""

    name: str
    dtype: DataType


class Schema:
    """An ordered collection of :class:`ColumnDef` with name lookup."""

    def __init__(self, columns: list[ColumnDef]) -> None:
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._columns = list(columns)
        self._by_name = {c.name: c for c in columns}

    @property
    def columns(self) -> list[ColumnDef]:
        return list(self._columns)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self._columns]

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def column(self, name: str) -> ColumnDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; available: {self.names}"
            ) from None

    def dtype(self, name: str) -> DataType:
        return self.column(name).dtype

    def numeric_columns(self) -> list[str]:
        return [c.name for c in self._columns if c.dtype.is_numeric]

    def categorical_columns(self) -> list[str]:
        return [c.name for c in self._columns if c.dtype.is_categorical]

    def temporal_columns(self) -> list[str]:
        return [c.name for c in self._columns if c.dtype.is_temporal]

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self._columns)
        return f"Schema({cols})"


class Table:
    """A named, typed, column-major in-memory relation."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        columns: dict[str, list[object]],
    ) -> None:
        missing = [c for c in schema.names if c not in columns]
        if missing:
            raise SchemaError(f"table {name!r} missing column data: {missing}")
        lengths = {len(columns[c]) for c in schema.names}
        if len(lengths) > 1:
            raise SchemaError(
                f"table {name!r} has ragged columns (lengths {sorted(lengths)})"
            )
        self.name = name
        self.schema = schema
        self._columns = {c: list(columns[c]) for c in schema.names}
        self._num_rows = lengths.pop() if lengths else 0
        self._arrays: dict[str, np.ndarray] = {}
        self._encodings: dict[str, Encoding] = {}
        #: ``(base table, row positions)`` for a table built by
        #: :meth:`take`, whose cached arrays and encodings are the base
        #: table's at those rows; ``None`` otherwise.
        self.origin: tuple[Table, np.ndarray] | None = None
        self._distinct: dict[str, list[object]] = {}
        self._extents: dict[str, tuple[object, object]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: list[dict[str, object]],
        schema: Schema | None = None,
    ) -> "Table":
        """Build a table from a list of row dictionaries.

        Without an explicit schema, column order follows first-row key
        order and types are inferred from the data.
        """
        if schema is None:
            if not rows:
                raise SchemaError("cannot infer a schema from zero rows")
            names = list(rows[0].keys())
            columns = {n: [row.get(n) for row in rows] for n in names}
            schema = Schema(
                [ColumnDef(n, infer_type(columns[n])) for n in names]
            )
        else:
            columns = {
                c.name: [
                    coerce(row.get(c.name), c.dtype) for row in rows
                ]
                for c in schema
            }
        return cls(name, schema, columns)

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: dict[str, list[object]],
        schema: Schema | None = None,
    ) -> "Table":
        """Build a table directly from column lists."""
        if schema is None:
            schema = Schema(
                [ColumnDef(n, infer_type(v)) for n, v in columns.items()]
            )
        return cls(name, schema, columns)

    @classmethod
    def from_csv(
        cls,
        name: str,
        path: object,
        schema: Schema | None = None,
    ) -> "Table":
        """Load a table from a CSV file (header row required).

        Without a schema, cell text is parsed into the narrowest fitting
        type (int, float, bool, ISO date/timestamp, string; empty cells
        become NULL) and the column types are then inferred. With a
        schema, every cell is coerced to its declared type instead.
        """
        import csv as _csv
        from pathlib import Path

        from repro.engine.types import parse_cell

        with Path(path).open("r", encoding="utf-8", newline="") as handle:
            reader = _csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"CSV file {path} is empty") from None
            raw_rows = list(reader)
        for row_number, row in enumerate(raw_rows, start=2):
            if len(row) != len(header):
                raise SchemaError(
                    f"CSV file {path} line {row_number}: expected "
                    f"{len(header)} cells, found {len(row)}"
                )
        if schema is None:
            columns = {
                column: [parse_cell(row[i]) for row in raw_rows]
                for i, column in enumerate(header)
            }
            schema = Schema(
                [ColumnDef(n, infer_type(columns[n])) for n in header]
            )
            return cls(name, schema, columns)
        missing = [c for c in header if c not in schema]
        if missing:
            raise SchemaError(
                f"CSV file {path} has columns not in the schema: {missing}"
            )
        columns = {
            column: [
                coerce(parse_cell(row[i]), schema.dtype(column))
                for row in raw_rows
            ]
            for i, column in enumerate(header)
        }
        return cls(name, schema, columns)

    def to_csv(self, path: object) -> None:
        """Write the table as CSV (header row, empty cells for NULL).

        Note the inherent CSV ambiguity: an empty *string* value is
        indistinguishable from NULL in the file, so it reads back as
        NULL. Use the JSONL log format when that distinction matters.
        """
        import csv as _csv
        from pathlib import Path

        names = self.schema.names
        with Path(path).open("w", encoding="utf-8", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(names)
            columns = [self._columns[n] for n in names]
            for i in range(self._num_rows):
                writer.writerow(
                    [
                        "" if column[i] is None else _csv_cell(column[i])
                        for column in columns
                    ]
                )

    # -- access ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def column(self, name: str) -> list[object]:
        """Column values as a Python list (the storage itself; do not mutate)."""
        if name not in self._columns:
            raise SchemaError(
                f"unknown column {name!r} in table {self.name!r}"
            )
        return self._columns[name]

    def array(self, name: str) -> np.ndarray:
        """Column values as a cached numpy array.

        Numeric columns become float64 (NULL -> NaN) so that vectorized
        predicates and aggregates work uniformly; everything else becomes
        an object array.
        """
        if name not in self._arrays:
            dtype = self.schema.dtype(name)
            values = self.column(name)
            if self.origin is not None:
                base, rows = self.origin
                arr = base.array(name)[rows]
            elif dtype.is_numeric:
                arr = np.array(
                    [np.nan if v is None else float(v) for v in values],
                    dtype=np.float64,
                )
            elif dtype is DataType.BOOLEAN:
                arr = np.array(
                    [np.nan if v is None else float(v) for v in values],
                    dtype=np.float64,
                )
            else:
                arr = np.array(values, dtype=object)
            self._arrays[name] = arr
        return self._arrays[name]

    def encoding(self, name: str) -> Encoding:
        """Dictionary encoding of :meth:`array`, cached like it."""
        if name not in self._encodings:
            if self.origin is not None:
                base, rows = self.origin
                self._encodings[name] = base.encoding(name).take(rows)
            else:
                self._encodings[name] = encode(self.array(name))
        return self._encodings[name]

    def take(self, name: str, rows: np.ndarray) -> "Table":
        """The rows at positions ``rows``, in that order, as table ``name``.

        The new table's :attr:`origin` is this table and ``rows``, so
        its arrays and encodings are sliced from this table's instead of
        built from its own copy of the values.
        """
        table = Table(name, self.schema, take_columns(self, rows.tolist()))
        table.origin = (self, rows)
        return table

    def row(self, index: int) -> dict[str, object]:
        """Materialize one row as a dict (used by the row-store engine)."""
        return {n: self._columns[n][index] for n in self.schema.names}

    def iter_rows(self):
        """Yield rows as dicts, tuple-at-a-time."""
        names = self.schema.names
        cols = [self._columns[n] for n in names]
        for i in range(self._num_rows):
            yield {n: c[i] for n, c in zip(names, cols)}

    def head(self, count: int = 5) -> list[dict[str, object]]:
        """First ``count`` rows, for debugging and examples."""
        return [self.row(i) for i in range(min(count, self._num_rows))]

    def distinct_values(self, name: str) -> list[object]:
        """Sorted distinct non-null values of a column.

        Dashboard widgets use this to enumerate their options (checkbox
        members, slider extents). Computed once per column; each call
        returns a fresh list the caller may reorder or slice.
        """
        from repro.engine.types import sort_key

        if name not in self._distinct:
            values = {v for v in self.column(name) if v is not None}
            self._distinct[name] = sorted(values, key=sort_key)
        return list(self._distinct[name])

    def column_extent(self, name: str) -> tuple[object, object]:
        """(min, max) of the non-null values of a column (computed once)."""
        if name not in self._extents:
            values = [v for v in self.column(name) if v is not None]
            self._extents[name] = (
                (min(values), max(values)) if values else (None, None)
            )
        return self._extents[name]

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self.schema)} cols, {self._num_rows} rows)"


class Database:
    """A named collection of tables, the unit an engine loads.

    Every ``add``/``remove`` advances a per-database monotonic counter
    and stamps the touched name with it, so :meth:`version` answers
    "has this table changed since I looked?" — the generation handle
    process-backed execution keys its shared-memory exports on
    (:mod:`repro.concurrency.procpool`).
    """

    def __init__(self, tables: list[Table] | None = None) -> None:
        self._tables: dict[str, Table] = {}
        self._version_clock = 0
        self._versions: dict[str, int] = {}
        for table in tables or []:
            self.add(table)

    def _bump(self, name: str) -> None:
        self._version_clock += 1
        self._versions[name] = self._version_clock

    def add(self, table: Table) -> None:
        self._tables[table.name] = table
        self._bump(table.name)

    def remove(self, name: str) -> None:
        """Drop a table; missing names are ignored (idempotent)."""
        if self._tables.pop(name, None) is not None:
            self._bump(name)

    def version(self, name: str) -> int | None:
        """Monotonic version of a loaded table (``None`` when absent).

        A re-added table gets a strictly larger version than any it had
        before, so a cached export keyed on ``(name, version)`` can
        never be served for reloaded data.
        """
        if name not in self._tables:
            return None
        return self._versions[name]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(
                f"unknown table {name!r}; available: {sorted(self._tables)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)


def take_columns(table: Table, indices: list[int]) -> dict[str, list[object]]:
    """Slice every column of ``table`` to ``indices``, preserving order.

    The engines use this to materialize shared-scan row subsets without
    shuttling values through result sets — the sliced lists hold the
    original Python objects, so downstream execution is byte-identical
    to filtering inline. Sliced via ``itemgetter`` for C-level speed.
    """
    from operator import itemgetter

    if not indices:
        return {n: [] for n in table.schema.names}
    if len(indices) == 1:
        return {n: [table.column(n)[indices[0]]] for n in table.schema.names}
    getter = itemgetter(*indices)
    return {n: list(getter(table.column(n))) for n in table.schema.names}


def _csv_cell(value: object) -> str:
    """Render one non-null value for CSV output."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, _dt.datetime):
        return value.isoformat(sep=" ")
    if isinstance(value, _dt.date):
        return value.isoformat()
    return str(value)


def timestamp_to_ordinal(value: object) -> float:
    """Map a temporal value to a float for numpy-side arithmetic."""
    if isinstance(value, _dt.datetime):
        return value.timestamp()
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day).timestamp()
    raise ValueError(f"not a temporal value: {value!r}")
