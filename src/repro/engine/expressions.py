"""Expression evaluation: row-at-a-time and vectorized.

Two evaluators over the same AST:

- :func:`evaluate_row` — interprets an expression against one row dict,
  with SQL-style NULL propagation and Kleene three-valued AND/OR. Used
  by the Volcano-style row store.
- :func:`evaluate_mask` / :func:`evaluate_values` — numpy batch
  evaluation against whole columns. Used by the vectorized and
  materializing column engines.

Aggregate *accumulators* for the row engine also live here so all three
pure-Python engines agree on aggregate semantics (e.g. ``SUM`` of zero
rows is NULL, ``COUNT`` of zero rows is 0, NULLs are skipped).
"""

from __future__ import annotations

import datetime as _dt
import fnmatch
import math
import re

import numpy as np

from repro.engine.encoding import NULL_CODE, Encoding, canonical_key
from repro.errors import ExecutionError, TypeMismatchError
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
)

# ---------------------------------------------------------------------------
# Row-at-a-time evaluation
# ---------------------------------------------------------------------------


def evaluate_row(expr: Expression, row: dict[str, object]) -> object:
    """Evaluate ``expr`` against one row; NULL-propagating."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Column):
        if expr.name not in row:
            raise ExecutionError(f"unknown column {expr.name!r} in row")
        return row[expr.name]
    if isinstance(expr, Star):
        raise ExecutionError("'*' is only valid inside COUNT()")
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name} evaluated outside GROUP BY context"
            )
        return _scalar_function(expr, row)
    if isinstance(expr, BinaryOp):
        return _binary_row(expr, row)
    if isinstance(expr, UnaryOp):
        return _unary_row(expr, row)
    if isinstance(expr, InList):
        return _in_row(expr, row)
    if isinstance(expr, Between):
        value = evaluate_row(expr.expr, row)
        low = evaluate_row(expr.low, row)
        high = evaluate_row(expr.high, row)
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return (not result) if expr.negated else result
    if isinstance(expr, Like):
        value = evaluate_row(expr.expr, row)
        if value is None:
            return None
        result = like_match(str(value), expr.pattern)
        return (not result) if expr.negated else result
    if isinstance(expr, IsNull):
        value = evaluate_row(expr.expr, row)
        result = value is None
        return (not result) if expr.negated else result
    raise ExecutionError(f"cannot evaluate node {type(expr).__name__}")


def _binary_row(expr: BinaryOp, row: dict[str, object]) -> object:
    if expr.is_boolean:
        left = evaluate_row(expr.left, row)
        right = evaluate_row(expr.right, row)
        return _kleene(expr.op, left, right)
    left = evaluate_row(expr.left, row)
    right = evaluate_row(expr.right, row)
    if left is None or right is None:
        return None
    if expr.is_comparison:
        return _compare(expr.op, left, right)
    if expr.is_arithmetic:
        return _arithmetic(expr.op, left, right)
    raise ExecutionError(f"unknown binary operator {expr.op!r}")


def _unary_row(expr: UnaryOp, row: dict[str, object]) -> object:
    value = evaluate_row(expr.operand, row)
    if expr.op == "NOT":
        if value is None:
            return None
        return not bool(value)
    if expr.op == "-":
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeMismatchError(f"cannot negate {value!r}")
        return -value
    raise ExecutionError(f"unknown unary operator {expr.op!r}")


def _in_row(expr: InList, row: dict[str, object]) -> object:
    value = evaluate_row(expr.expr, row)
    if value is None:
        return None
    members = [evaluate_row(v, row) for v in expr.values]
    found = any(
        m is not None and _compare("=", value, m) for m in members
    )
    if found:
        return not expr.negated
    if any(m is None for m in members):
        # SQL: x IN (..., NULL) is NULL when no member matches.
        return None
    return expr.negated


def _kleene(op: str, left: object, right: object) -> object:
    """Three-valued AND/OR over {True, False, None}."""
    lb = None if left is None else bool(left)
    rb = None if right is None else bool(right)
    if op == "AND":
        if lb is False or rb is False:
            return False
        if lb is None or rb is None:
            return None
        return True
    if lb is True or rb is True:
        return True
    if lb is None or rb is None:
        return None
    return False


def _compare(op: str, left: object, right: object) -> bool:
    left, right = _align_types(left, right)
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise TypeMismatchError(
            f"cannot compare {left!r} {op} {right!r}"
        ) from exc
    raise ExecutionError(f"unknown comparison {op!r}")


def _align_types(left: object, right: object) -> tuple[object, object]:
    """Best-effort cross-type alignment (int vs float, date vs string)."""
    if isinstance(left, bool) or isinstance(right, bool):
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, _dt.datetime) and isinstance(right, _dt.date) and not isinstance(right, _dt.datetime):
        return left, _dt.datetime(right.year, right.month, right.day)
    if isinstance(right, _dt.datetime) and isinstance(left, _dt.date) and not isinstance(left, _dt.datetime):
        return _dt.datetime(left.year, left.month, left.day), right
    if isinstance(left, _dt.date) and isinstance(right, str):
        return left, _parse_temporal(right, like=left)
    if isinstance(right, _dt.date) and isinstance(left, str):
        return _parse_temporal(left, like=right), right
    return left, right


def _parse_temporal(text: str, like: object) -> object:
    if isinstance(like, _dt.datetime):
        return _dt.datetime.fromisoformat(text)
    return _dt.date.fromisoformat(text)


def _arithmetic(op: str, left: object, right: object) -> object:
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise TypeMismatchError(
            f"arithmetic {op} requires numbers, got {left!r}, {right!r}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQL engines differ; we use NULL like SQLite.
        return left / right
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _scalar_function(expr: FuncCall, row: dict[str, object]) -> object:
    args = [evaluate_row(a, row) for a in expr.args]
    return apply_scalar_function(expr.name, args)


def apply_scalar_function(name: str, args: list[object]) -> object:
    """Shared scalar-function semantics for all engines.

    NULL in, NULL out (except COALESCE).
    """
    if name == "COALESCE":
        for arg in args:
            if arg is not None:
                return arg
        return None
    if any(a is None for a in args):
        return None
    if name in ("YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "DOW"):
        value = args[0]
        if isinstance(value, str):
            value = (
                _dt.datetime.fromisoformat(value)
                if len(value) > 10
                else _dt.date.fromisoformat(value)
            )
        if not isinstance(value, _dt.date):
            raise TypeMismatchError(f"{name}() requires a temporal value")
        if name == "YEAR":
            return value.year
        if name == "MONTH":
            return value.month
        if name == "DAY":
            return value.day
        if name == "DOW":
            return value.weekday()
        if not isinstance(value, _dt.datetime):
            return 0
        return value.hour if name == "HOUR" else value.minute
    if name == "BIN":
        if len(args) != 2:
            raise ExecutionError("BIN(value, width) takes two arguments")
        value, width = args
        if not isinstance(value, (int, float)) or not isinstance(width, (int, float)):
            raise TypeMismatchError("BIN() requires numeric arguments")
        if width <= 0:
            raise ExecutionError("BIN() width must be positive")
        return math.floor(value / width) * width
    if name == "ABS":
        return abs(args[0])  # type: ignore[arg-type]
    if name == "ROUND":
        digits = int(args[1]) if len(args) > 1 else 0
        return round(float(args[0]), digits)  # type: ignore[arg-type]
    if name == "LOWER":
        return str(args[0]).lower()
    if name == "UPPER":
        return str(args[0]).upper()
    if name == "LENGTH":
        return len(str(args[0]))
    raise ExecutionError(f"unknown scalar function {name!r}")


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards (case-sensitive)."""
    regex = _like_regex(pattern)
    return regex.match(value) is not None


def _like_regex(pattern: str) -> re.Pattern[str]:
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts) + r"\Z", re.DOTALL)


# ---------------------------------------------------------------------------
# Vectorized evaluation
# ---------------------------------------------------------------------------


class VectorContext:
    """Column arrays available to the vectorized evaluator.

    ``table`` is the :class:`~repro.engine.table.Table` the arrays were
    read from, and ``rows`` the positions in it they hold (``None``: all
    rows, in order). With a table, a bare column's cached dictionary
    encoding is available through :meth:`encoding`.
    """

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        num_rows: int,
        table=None,
        rows=None,
    ) -> None:
        self.arrays = arrays
        self.num_rows = num_rows
        self.table = table
        self.rows = rows

    def column(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            raise ExecutionError(f"unknown column {name!r}")
        return self.arrays[name]

    def encoding(self, expr: Expression) -> Encoding | None:
        """The table's encoding of ``expr`` at this context's rows, when
        ``expr`` is a bare table column; ``None`` otherwise."""
        if (
            self.table is None
            or not isinstance(expr, Column)
            or expr.name not in self.table.schema
        ):
            return None
        encoding = self.table.encoding(expr.name)
        return encoding if self.rows is None else encoding.take(self.rows)


def evaluate_values(expr: Expression, ctx: VectorContext) -> np.ndarray:
    """Evaluate ``expr`` to a value array (float64 or object dtype)."""
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return np.full(ctx.num_rows, float(value), dtype=np.float64)
        return np.full(ctx.num_rows, value, dtype=object)
    if isinstance(expr, Column):
        return ctx.column(expr.name)
    if isinstance(expr, FuncCall):
        return _vector_scalar_function(expr, ctx)
    if isinstance(expr, BinaryOp) and expr.is_arithmetic:
        left = _as_float(evaluate_values(expr.left, ctx))
        right = _as_float(evaluate_values(expr.right, ctx))
        with np.errstate(divide="ignore", invalid="ignore"):
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                out = left / right
                out[np.isinf(out)] = np.nan
                return out
            if expr.op == "%":
                out = np.mod(left, right)
                out[right == 0] = np.nan
                return out
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return -_as_float(evaluate_values(expr.operand, ctx))
    # Predicates used as values (rare): materialize the mask as floats.
    if isinstance(expr, (BinaryOp, UnaryOp, InList, Between, Like, IsNull)):
        return evaluate_mask(expr, ctx).astype(np.float64)
    raise ExecutionError(
        f"cannot vectorize value expression {type(expr).__name__}"
    )


def evaluate_mask(expr: Expression, ctx: VectorContext) -> np.ndarray:
    """Evaluate a predicate to a boolean mask (NULL comparisons -> False)."""
    if isinstance(expr, BinaryOp) and expr.is_boolean:
        left = evaluate_mask(expr.left, ctx)
        right = evaluate_mask(expr.right, ctx)
        return (left & right) if expr.op == "AND" else (left | right)
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        # NOT over a mask loses NULL-ness; acceptable for filtering since
        # rows whose predicate is NULL are dropped either way only when the
        # inner evaluator reported False for them. We additionally mask out
        # NULL inputs below for atomic predicates.
        return ~evaluate_mask(expr.operand, ctx)
    if isinstance(expr, BinaryOp) and expr.is_comparison:
        return _vector_compare(expr, ctx)
    if isinstance(expr, InList):
        if any(not isinstance(v, Literal) for v in expr.values):
            raise ExecutionError("vectorized IN requires literal members")
        members = [v.value for v in expr.values if v.value is not None]
        encoding = _literal_encoding(expr.expr, ctx)
        if encoding is not None:
            # np.isin over codes as one gather from a per-code table.
            member = np.zeros(encoding.cardinality, dtype=bool)
            member[[_code_of(encoding, m) for m in members]] = True
            member[NULL_CODE] = False
            mask = member[encoding.codes]
            notnull = encoding.codes != NULL_CODE
        else:
            values = evaluate_values(expr.expr, ctx)
            notnull = _notnull(values)
            mask = _vector_isin(values, members) & notnull
        return ~mask & notnull if expr.negated else mask
    if isinstance(expr, Between):
        values = evaluate_values(expr.expr, ctx)
        low = _single_literal(expr.low)
        high = _single_literal(expr.high)
        mask = _vector_order(values, ">=", low) & _vector_order(values, "<=", high)
        return (~mask & _notnull(values)) if expr.negated else mask
    if isinstance(expr, Like):
        values = evaluate_values(expr.expr, ctx)
        regex = _like_regex(expr.pattern)
        mask = np.array(
            [
                v is not None and not _is_nan(v) and regex.match(str(v)) is not None
                for v in values
            ],
            dtype=bool,
        )
        return (~mask & _notnull(values)) if expr.negated else mask
    if isinstance(expr, IsNull):
        encoding = _literal_encoding(expr.expr, ctx)
        if encoding is not None:
            nulls = encoding.codes == NULL_CODE
        else:
            nulls = ~_notnull(evaluate_values(expr.expr, ctx))
        return ~nulls if expr.negated else nulls
    if isinstance(expr, Literal):
        return np.full(ctx.num_rows, bool(expr.value), dtype=bool)
    if isinstance(expr, Column):
        values = ctx.column(expr.name)
        return np.array([bool(v) and not _is_nan(v) for v in values], dtype=bool)
    raise ExecutionError(f"cannot vectorize predicate {type(expr).__name__}")


def _vector_compare(expr: BinaryOp, ctx: VectorContext) -> np.ndarray:
    if expr.op in ("=", "!="):
        coded = _coded_equality(expr, ctx)
        if coded is not None:
            equal, valid = coded
            return (equal if expr.op == "=" else ~equal) & valid
    left = evaluate_values(expr.left, ctx)
    right = evaluate_values(expr.right, ctx)
    if left.dtype == np.float64 and right.dtype == np.float64:
        with np.errstate(invalid="ignore"):
            op = expr.op
            if op == "=":
                mask = left == right
            elif op == "!=":
                mask = left != right
            elif op == "<":
                mask = left < right
            elif op == "<=":
                mask = left <= right
            elif op == ">":
                mask = left > right
            else:
                mask = left >= right
        # NaN != NaN is True under numpy; SQL says NULL != x is NULL -> drop.
        mask &= ~np.isnan(left) & ~np.isnan(right)
        return mask
    # Object arrays: equality vectorizes through numpy's elementwise
    # ==; ordering falls back to a null-tolerant loop.
    if expr.op in ("=", "!="):
        with np.errstate(invalid="ignore"):
            equal = left == right
        if not isinstance(equal, np.ndarray):
            equal = np.full(len(left), bool(equal), dtype=bool)
        equal = equal.astype(bool)
        valid = _notnull(left) & _notnull(right)
        if expr.op == "=":
            return equal & valid
        return ~equal & valid
    result = np.zeros(len(left), dtype=bool)
    for i, (lv, rv) in enumerate(zip(left, right)):
        if lv is None or rv is None or _is_nan(lv) or _is_nan(rv):
            continue
        try:
            result[i] = _compare(expr.op, lv, rv)
        except TypeMismatchError:
            result[i] = False
    return result


def _vector_scalar_function(expr: FuncCall, ctx: VectorContext) -> np.ndarray:
    if expr.is_aggregate:
        raise ExecutionError(
            f"aggregate {expr.name} evaluated outside aggregation"
        )
    if expr.name == "BIN":
        values = _as_float(evaluate_values(expr.args[0], ctx))
        width = _single_literal(expr.args[1])
        if not isinstance(width, (int, float)) or width <= 0:
            raise ExecutionError("BIN() width must be a positive number")
        return np.floor(values / float(width)) * float(width)
    if expr.name == "ABS":
        return np.abs(_as_float(evaluate_values(expr.args[0], ctx)))
    if expr.name == "ROUND":
        values = _as_float(evaluate_values(expr.args[0], ctx))
        digits = (
            int(_single_literal(expr.args[1])) if len(expr.args) > 1 else 0
        )
        return np.round(values, digits)
    # Temporal and string functions fall back to elementwise application.
    arg_arrays = [evaluate_values(a, ctx) for a in expr.args]
    out = np.empty(ctx.num_rows, dtype=object)
    for i in range(ctx.num_rows):
        args = [_none_if_nan(arr[i]) for arr in arg_arrays]
        out[i] = apply_scalar_function(expr.name, args)
    if all(isinstance(v, (int, float)) or v is None for v in out):
        return np.array(
            [np.nan if v is None else float(v) for v in out], dtype=np.float64
        )
    return out


def _vector_isin(values: np.ndarray, members: list[object]) -> np.ndarray:
    if values.dtype == np.float64:
        numeric = [float(m) for m in members if isinstance(m, (int, float))]
        return np.isin(values, numeric)
    mask = np.zeros(len(values), dtype=bool)
    with np.errstate(invalid="ignore"):
        for member in members:
            hit = values == member
            if isinstance(hit, np.ndarray):
                mask |= hit.astype(bool)
    return mask


def _vector_order(values: np.ndarray, op: str, bound: object) -> np.ndarray:
    if values.dtype == np.float64 and isinstance(bound, (int, float)):
        with np.errstate(invalid="ignore"):
            mask = values >= bound if op == ">=" else values <= bound
        return mask & ~np.isnan(values)
    result = np.zeros(len(values), dtype=bool)
    for i, v in enumerate(values):
        if v is None or _is_nan(v):
            continue
        try:
            result[i] = _compare(op, v, bound)
        except TypeMismatchError:
            result[i] = False
    return result


def _literal_encoding(expr: Expression, ctx: VectorContext) -> Encoding | None:
    """The encoding of an object column whose codes can answer
    comparisons with literals (see :class:`Encoding`), else ``None``."""
    values = ctx.arrays.get(expr.name) if isinstance(expr, Column) else None
    if values is None or values.dtype != object:
        return None
    encoding = ctx.encoding(expr)
    if encoding is None or encoding.lookup is None:
        return None
    return encoding


def _code_of(encoding: Encoding, value: object) -> int:
    """The code of the values equal to ``value`` (NULL_CODE: none)."""
    return encoding.lookup.get(canonical_key(value), NULL_CODE)


def _coded_equality(
    expr: BinaryOp, ctx: VectorContext
) -> tuple[np.ndarray, np.ndarray] | None:
    """``column = literal`` over an encoded object column, as the
    (equal, not-NULL) masks the elementwise comparison would give."""
    for column, other in ((expr.left, expr.right), (expr.right, expr.left)):
        if not isinstance(other, Literal):
            continue
        value = other.value
        encoding = _literal_encoding(column, ctx)
        if encoding is None or value is None or _is_nan(value):
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)  # what evaluate_values makes of it
        # An absent value's NULL_CODE matches only rows the mask drops.
        codes = encoding.codes
        return codes == _code_of(encoding, value), codes != NULL_CODE
    return None


def _notnull(values: np.ndarray) -> np.ndarray:
    if values.dtype == np.float64:
        return ~np.isnan(values)
    return np.not_equal(values, None)


def _as_float(values: np.ndarray) -> np.ndarray:
    if values.dtype == np.float64:
        return values
    return np.array(
        [np.nan if (v is None or _is_nan(v)) else float(v) for v in values],
        dtype=np.float64,
    )


def _single_literal(expr: Expression) -> object:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.op == "-" and isinstance(expr.operand, Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)):
            return -value
    raise ExecutionError("expected a literal value")


def _is_nan(value: object) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _none_if_nan(value: object) -> object:
    return None if (value is None or _is_nan(value)) else value


# ---------------------------------------------------------------------------
# Aggregate accumulators (row engine)
# ---------------------------------------------------------------------------


class Accumulator:
    """Streaming aggregate state; NULL inputs are skipped per SQL."""

    def __init__(self, distinct: bool = False) -> None:
        self._distinct = distinct
        self._seen: set[object] | None = set() if distinct else None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self._add(value)

    def _add(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError


class CountAccumulator(Accumulator):
    """COUNT(expr): number of non-null inputs."""

    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct)
        self._count = 0

    def _add(self, value: object) -> None:
        self._count += 1

    def result(self) -> int:
        return self._count


class CountStarAccumulator(Accumulator):
    """COUNT(*): number of rows, including all-null rows."""

    def __init__(self) -> None:
        super().__init__(False)
        self._count = 0

    def add(self, value: object) -> None:  # value ignored
        self._count += 1

    def result(self) -> int:
        return self._count


class SumAccumulator(Accumulator):
    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct)
        self._sum: float | int | None = None

    def _add(self, value: object) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            if isinstance(value, bool):
                value = int(value)
            else:
                raise TypeMismatchError(f"SUM over non-numeric value {value!r}")
        self._sum = value if self._sum is None else self._sum + value

    def result(self) -> object:
        return self._sum


class AvgAccumulator(Accumulator):
    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct)
        self._sum = 0.0
        self._count = 0

    def _add(self, value: object) -> None:
        if not isinstance(value, (int, float)):
            raise TypeMismatchError(f"AVG over non-numeric value {value!r}")
        self._sum += float(value)
        self._count += 1

    def result(self) -> object:
        if self._count == 0:
            return None
        return self._sum / self._count


class MinAccumulator(Accumulator):
    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct)
        self._min: object = None

    def _add(self, value: object) -> None:
        if self._min is None or value < self._min:  # type: ignore[operator]
            self._min = value

    def result(self) -> object:
        return self._min


class MaxAccumulator(Accumulator):
    def __init__(self, distinct: bool = False) -> None:
        super().__init__(distinct)
        self._max: object = None

    def _add(self, value: object) -> None:
        if self._max is None or value > self._max:  # type: ignore[operator]
            self._max = value

    def result(self) -> object:
        return self._max


def make_accumulator(call: FuncCall) -> Accumulator:
    """Instantiate the accumulator for an aggregate call."""
    if call.name == "COUNT":
        if len(call.args) == 1 and isinstance(call.args[0], Star):
            return CountStarAccumulator()
        return CountAccumulator(call.distinct)
    if call.name == "SUM":
        return SumAccumulator(call.distinct)
    if call.name == "AVG":
        return AvgAccumulator(call.distinct)
    if call.name == "MIN":
        return MinAccumulator(call.distinct)
    if call.name == "MAX":
        return MaxAccumulator(call.distinct)
    raise ExecutionError(f"unknown aggregate function {call.name!r}")
