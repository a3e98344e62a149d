"""Derived temporal columns for the column engines.

Real column stores extract date parts (hour, day, month, ...) with
vectorized kernels; a pure-Python loop per query would mischaracterize
their performance profile. Instead, each Table caches the extracted
part array per (function, column) the first time it is needed, and the
column engines rewrite ``HOUR(ts)``-style calls into references to the
cached derived column before execution — the moral equivalent of a
dictionary-encoded date-part projection.
"""

from __future__ import annotations

import numpy as np

from repro.engine.expressions import apply_scalar_function
from repro.engine.table import Table
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Like,
    OrderItem,
    Query,
    SelectItem,
    UnaryOp,
)

#: Functions with cached derived columns.
DERIVABLE = frozenset({"YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "DOW"})

_CACHE_ATTR = "_derived_arrays"


def derived_name(func: str, column: str) -> str:
    return f"__{func.lower()}__{column}"


def derived_array(table: Table, func: str, column: str) -> np.ndarray:
    """Full-length extracted-part array, cached on the table (for a
    :meth:`Table.take` table, sliced from its base table's).

    ``func == "EPOCH"`` yields seconds since the Unix epoch, used to
    turn temporal range predicates into float comparisons.
    """
    cache: dict[str, np.ndarray] = getattr(table, _CACHE_ATTR, None)  # type: ignore[assignment]
    if cache is None:
        cache = {}
        setattr(table, _CACHE_ATTR, cache)
    key = derived_name(func, column)
    if key not in cache:
        values = table.column(column)
        if table.origin is not None:
            base, rows = table.origin
            cache[key] = derived_array(base, func, column)[rows]
        elif func == "EPOCH":
            cache[key] = np.array(
                [np.nan if v is None else _epoch(v) for v in values],
                dtype=np.float64,
            )
        else:
            cache[key] = np.array(
                [
                    np.nan
                    if v is None
                    else float(apply_scalar_function(func, [v]))
                    for v in values
                ],
                dtype=np.float64,
            )
    return cache[key]


def _epoch(value: object) -> float:
    import datetime as _dt

    if isinstance(value, _dt.datetime):
        return value.timestamp()
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day).timestamp()
    raise TypeError(f"not a temporal value: {value!r}")


def rewrite_query(
    query: Query, table: Table, extra_arrays: dict[str, np.ndarray]
) -> Query:
    """Replace derivable calls with derived-column references.

    Populates ``extra_arrays`` with the backing arrays (full length, to
    be filtered alongside the base columns).
    """

    import datetime as _dt

    from repro.sql.ast import Literal

    def _is_temporal_column(expr: Expression) -> bool:
        return (
            isinstance(expr, Column)
            and expr.name in table.schema
            and table.schema.dtype(expr.name).is_temporal
        )

    def _epoch_operand(column: Column) -> Column:
        key = derived_name("EPOCH", column.name)
        extra_arrays[key] = derived_array(table, "EPOCH", column.name)
        return Column(key)

    def _temporal_literal(expr: Expression) -> Literal | None:
        if isinstance(expr, Literal) and isinstance(expr.value, _dt.date):
            return Literal(_epoch(expr.value))
        return None

    def rewrite(expr: Expression) -> Expression:
        # Temporal range/order predicates become float comparisons over
        # a cached epoch column.
        if (
            isinstance(expr, Between)
            and _is_temporal_column(expr.expr)
        ):
            low = _temporal_literal(expr.low)
            high = _temporal_literal(expr.high)
            if low is not None and high is not None:
                return Between(
                    _epoch_operand(expr.expr), low, high, expr.negated
                )
        if (
            isinstance(expr, BinaryOp)
            and expr.is_comparison
            and _is_temporal_column(expr.left)
        ):
            bound = _temporal_literal(expr.right)
            if bound is not None:
                return BinaryOp(expr.op, _epoch_operand(expr.left), bound)
        if (
            isinstance(expr, FuncCall)
            and expr.name in DERIVABLE
            and len(expr.args) == 1
            and isinstance(expr.args[0], Column)
            and expr.args[0].name in table.schema
            and table.schema.dtype(expr.args[0].name).is_temporal
        ):
            column = expr.args[0].name
            key = derived_name(expr.name, column)
            extra_arrays[key] = derived_array(table, expr.name, column)
            return Column(key)
        if isinstance(expr, FuncCall):
            return FuncCall(
                expr.name, tuple(rewrite(a) for a in expr.args), expr.distinct
            )
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, InList):
            return InList(
                rewrite(expr.expr),
                tuple(rewrite(v) for v in expr.values),
                expr.negated,
            )
        if isinstance(expr, Between):
            return Between(
                rewrite(expr.expr),
                rewrite(expr.low),
                rewrite(expr.high),
                expr.negated,
            )
        if isinstance(expr, Like):
            return Like(rewrite(expr.expr), expr.pattern, expr.negated)
        if isinstance(expr, IsNull):
            return IsNull(rewrite(expr.expr), expr.negated)
        return expr

    from dataclasses import replace

    return replace(
        query,
        # Pin each item's output name before rewriting so the result
        # schema is identical to unrewritten execution (goal-coverage
        # bookkeeping matches columns by name).
        select=tuple(
            SelectItem(
                rewrite(item.expr),
                item.alias or item.output_name(position),
            )
            for position, item in enumerate(query.select)
        ),
        where=rewrite(query.where) if query.where is not None else None,
        group_by=tuple(rewrite(e) for e in query.group_by),
        having=rewrite(query.having) if query.having is not None else None,
        order_by=tuple(
            OrderItem(rewrite(o.expr), o.descending) for o in query.order_by
        ),
    )
