"""Secondary indexes for the pure-Python engines.

The paper runs every DBMS cold: "Datasets were denormalized and no
indexing or caching was applied" (§6.2.2). The expert feedback in §6.4
pulls the other way — E5 wants to "mock [indexing] ahead of time" from
simulated workloads. This module supplies the mechanism so that choice
can be ablated: hash indexes accelerate the equality/membership filters
checkbox-style widgets emit, and range indexes accelerate the
``BETWEEN``/comparison filters sliders and brushes emit.

Indexes are *pre-filters*: an engine uses them to shrink the candidate
row set for one or more WHERE conjuncts, then still evaluates the full
predicate over the candidates. Correctness therefore never depends on
index coverage.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.engine.table import Table
from repro.engine.types import sort_key
from repro.errors import SchemaError
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    Expression,
    InList,
    Literal,
)

__all__ = ["HashIndex", "RangeIndex", "TableIndexes", "candidate_indices"]

#: Comparison spellings flipped when the literal is on the left.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class HashIndex:
    """Equality index: value -> sorted row positions."""

    def __init__(self, values: list[object]) -> None:
        buckets: dict[object, list[int]] = {}
        for position, value in enumerate(values):
            if value is None:
                continue  # SQL equality never matches NULL.
            buckets.setdefault(value, []).append(position)
        self._buckets = {
            value: np.array(positions, dtype=np.int64)
            for value, positions in buckets.items()
        }

    def lookup(self, value: object) -> np.ndarray:
        """Row positions whose column equals ``value`` (sorted)."""
        if value is None:
            return np.empty(0, dtype=np.int64)
        return self._buckets.get(value, np.empty(0, dtype=np.int64))

    def lookup_many(self, values: list[object]) -> np.ndarray:
        """Union of row positions over several probe values (sorted)."""
        parts = [self.lookup(v) for v in values]
        nonempty = [p for p in parts if p.size]
        if not nonempty:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(nonempty))

    @property
    def distinct_count(self) -> int:
        return len(self._buckets)


class RangeIndex:
    """Ordered index: supports range and one-sided comparison probes."""

    def __init__(self, values: list[object]) -> None:
        pairs = sorted(
            ((sort_key(v), i) for i, v in enumerate(values) if v is not None),
        )
        self._keys = [k for k, _ in pairs]
        self._positions = np.array(
            [i for _, i in pairs], dtype=np.int64
        )

    def range(
        self,
        low: object | None,
        high: object | None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> np.ndarray:
        """Sorted row positions with values in the given (closed) range.

        ``None`` bounds are open-ended on that side.
        """
        lo = 0
        hi = len(self._keys)
        if low is not None:
            key = sort_key(low)
            lo = (
                bisect.bisect_left(self._keys, key)
                if include_low
                else bisect.bisect_right(self._keys, key)
            )
        if high is not None:
            key = sort_key(high)
            hi = (
                bisect.bisect_right(self._keys, key)
                if include_high
                else bisect.bisect_left(self._keys, key)
            )
        if lo >= hi:
            return np.empty(0, dtype=np.int64)
        return np.sort(self._positions[lo:hi])


class TableIndexes:
    """All indexes built on one table, keyed by column name."""

    def __init__(self, table: Table) -> None:
        self._table = table
        self._hash: dict[str, HashIndex] = {}
        self._range: dict[str, RangeIndex] = {}

    def create(self, column: str) -> None:
        """Build both a hash and a range index on ``column``."""
        if column not in self._table.schema:
            raise SchemaError(
                f"cannot index unknown column {column!r} of table "
                f"{self._table.name!r}"
            )
        values = self._table.column(column)
        self._hash[column] = HashIndex(values)
        self._range[column] = RangeIndex(values)

    def hash_index(self, column: str) -> HashIndex | None:
        return self._hash.get(column)

    def range_index(self, column: str) -> RangeIndex | None:
        return self._range.get(column)


def candidate_indices(
    indexes: TableIndexes, predicate: Expression
) -> np.ndarray | None:
    """Row positions matching one WHERE conjunct via an index.

    Returns ``None`` when the conjunct is not index-accelerable (wrong
    shape, negated, or the column is not indexed); the caller falls back
    to a scan for that conjunct.
    """
    if isinstance(predicate, BinaryOp) and predicate.op in {
        "=", "<", "<=", ">", ">=",
    }:
        column, literal, op = _column_literal_sides(predicate)
        if column is None:
            return None
        if op == "=":
            index = indexes.hash_index(column)
            return None if index is None else index.lookup(literal)
        rindex = indexes.range_index(column)
        if rindex is None or literal is None:
            return None
        if op == "<":
            return rindex.range(None, literal, include_high=False)
        if op == "<=":
            return rindex.range(None, literal)
        if op == ">":
            return rindex.range(literal, None, include_low=False)
        return rindex.range(literal, None)
    if (
        isinstance(predicate, InList)
        and not predicate.negated
        and isinstance(predicate.expr, Column)
        and all(isinstance(v, Literal) for v in predicate.values)
    ):
        index = indexes.hash_index(predicate.expr.name)
        if index is None:
            return None
        return index.lookup_many(
            [v.value for v in predicate.values]  # type: ignore[union-attr]
        )
    if (
        isinstance(predicate, Between)
        and not predicate.negated
        and isinstance(predicate.expr, Column)
        and isinstance(predicate.low, Literal)
        and isinstance(predicate.high, Literal)
    ):
        rindex = indexes.range_index(predicate.expr.name)
        if rindex is None:
            return None
        if predicate.low.value is None or predicate.high.value is None:
            return None
        return rindex.range(predicate.low.value, predicate.high.value)
    return None


def _column_literal_sides(
    predicate: BinaryOp,
) -> tuple[str | None, object, str]:
    """Split ``col op lit`` / ``lit op col`` into (column, literal, op)."""
    left, right = predicate.left, predicate.right
    if isinstance(left, Column) and isinstance(right, Literal):
        return left.name, right.value, predicate.op
    if isinstance(left, Literal) and isinstance(right, Column):
        flipped = _FLIPPED.get(predicate.op, predicate.op)
        return right.name, left.value, flipped
    return None, None, predicate.op
