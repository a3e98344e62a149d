"""AST -> SQL text, plus the text normalization used for string matching.

Two entry points:

- :func:`format_query` renders a :class:`~repro.sql.ast.Query` into the
  canonical single-line SQL dialect shared by all engines;
- :func:`normalize_sql` collapses whitespace/case differences in SQL text,
  which implements the "processing to remove additional whitespace" step
  the paper applies before its >95% string-similarity equivalence check.
"""

from __future__ import annotations

import datetime as _dt
import re

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
    OrderItem,
    Query,
    SQL_MEMO,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
)

#: Binding strength used to decide when parentheses are required.
_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "NOT": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def format_query(query: Query) -> str:
    """Render a query as a single-line SQL string.

    A ``Query`` is frozen, so its text never changes: it is rendered
    once and kept on the instance (:data:`repro.sql.ast.SQL_MEMO`, not
    a dataclass field — equality, hashing, ``replace`` and pickling do
    not see it). Two threads racing here store the same string.
    """
    state = query.__dict__
    text = state.get(SQL_MEMO)
    if text is None:
        text = state[SQL_MEMO] = _render_query(query)
    return text


def _render_query(query: Query) -> str:
    parts = ["SELECT"]
    if query.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_format_select_item(i) for i in query.select))
    parts.append("FROM")
    parts.append(_format_table_ref(query.from_table))
    for join in query.joins:
        keyword = "JOIN" if join.kind == "INNER" else "LEFT JOIN"
        parts.append(
            f"{keyword} {_format_table_ref(join.table)} ON "
            f"{format_expression(join.left_key)} = "
            f"{format_expression(join.right_key)}"
        )
    if query.where is not None:
        parts.append("WHERE")
        parts.append(format_expression(query.where))
    if query.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(format_expression(e) for e in query.group_by))
    if query.having is not None:
        parts.append("HAVING")
        parts.append(format_expression(query.having))
    if query.order_by:
        parts.append("ORDER BY")
        parts.append(", ".join(_format_order_item(o) for o in query.order_by))
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return " ".join(parts)


def format_expression(expr: Expression, parent_precedence: int = 0) -> str:
    """Render an expression, adding parentheses only where precedence needs."""
    if isinstance(expr, Column):
        if expr.table:
            return f"{expr.table}.{expr.name}"
        return expr.name
    if isinstance(expr, Literal):
        return format_literal(expr.value)
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, FuncCall):
        inner = ", ".join(format_expression(a) for a in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, BinaryOp):
        precedence = _PRECEDENCE.get(expr.op, 4)
        left = format_expression(expr.left, precedence)
        # Right side uses precedence + 1 to force parens for same-level
        # right-nested trees, keeping output left-deep and re-parseable.
        right = format_expression(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            inner = format_expression(expr.operand, _PRECEDENCE["NOT"])
            text = f"NOT {inner}"
            if _PRECEDENCE["NOT"] < parent_precedence:
                return f"({text})"
            return text
        return f"-{format_expression(expr.operand, 7)}"
    if isinstance(expr, InList):
        op = "NOT IN" if expr.negated else "IN"
        values = ", ".join(format_expression(v) for v in expr.values)
        text = f"{format_expression(expr.expr, 4)} {op} ({values})"
        return _wrap(text, parent_precedence)
    if isinstance(expr, Between):
        op = "NOT BETWEEN" if expr.negated else "BETWEEN"
        text = (
            f"{format_expression(expr.expr, 4)} {op} "
            f"{format_expression(expr.low, 5)} AND "
            f"{format_expression(expr.high, 5)}"
        )
        return _wrap(text, parent_precedence)
    if isinstance(expr, Like):
        op = "NOT LIKE" if expr.negated else "LIKE"
        text = (
            f"{format_expression(expr.expr, 4)} {op} "
            f"{format_literal(expr.pattern)}"
        )
        return _wrap(text, parent_precedence)
    if isinstance(expr, IsNull):
        op = "IS NOT NULL" if expr.negated else "IS NULL"
        text = f"{format_expression(expr.expr, 4)} {op}"
        return _wrap(text, parent_precedence)
    raise TypeError(f"cannot format expression of type {type(expr).__name__}")


def format_literal(value: object) -> str:
    """Render a literal value in SQL syntax."""
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, _dt.datetime):
        return f"'{value.isoformat(sep=' ')}'"
    if isinstance(value, _dt.date):
        return f"'{value.isoformat()}'"
    if isinstance(value, float):
        # repr keeps round-trip precision; trim trailing ".0" only when the
        # value is integral to keep numeric parse/format stable.
        return repr(value)
    return str(value)


def normalize_sql(text: str) -> str:
    """Normalize SQL text for string comparison.

    Collapses runs of whitespace, strips spaces around punctuation, and
    upper-cases everything outside string literals. This mirrors the
    pre-processing the paper applies before its string-similarity check.
    """
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            end = i + 1
            while end < n:
                if text[end] == "'" and not (end + 1 < n and text[end + 1] == "'"):
                    break
                if text[end] == "'":
                    end += 1  # skip escaped quote pair's first char
                end += 1
            out.append(text[i : min(end + 1, n)])
            i = end + 1
        else:
            out.append(ch.upper())
            i += 1
    collapsed = re.sub(r"\s+", " ", "".join(out)).strip()
    collapsed = re.sub(r"\s*([(),])\s*", r"\1", collapsed)
    collapsed = re.sub(r"\s*(=|!=|<=|>=|<|>)\s*", r"\1", collapsed)
    return collapsed


def _format_select_item(item: SelectItem) -> str:
    text = format_expression(item.expr)
    if item.alias:
        return f"{text} AS {item.alias}"
    return text


def _format_table_ref(ref: TableRef) -> str:
    if ref.alias:
        return f"{ref.name} AS {ref.alias}"
    return ref.name


def _format_order_item(item: OrderItem) -> str:
    text = format_expression(item.expr)
    if item.descending:
        return f"{text} DESC"
    return text


def _wrap(text: str, parent_precedence: int) -> str:
    if parent_precedence > _PRECEDENCE["NOT"]:
        return f"({text})"
    return text
