"""Immutable AST nodes for the analytic SQL subset used by SIMBA.

All nodes are frozen dataclasses, so they are hashable and can be used as
dictionary keys, cached, and structurally compared — properties the
equivalence suite (:mod:`repro.equivalence`) relies on.

The node vocabulary deliberately mirrors what dashboard components emit
(see section 3 of the paper): flat ``SELECT`` queries over one denormalized
table, optionally grouped and aggregated, with conjunctive/disjunctive
filter predicates contributed by interaction widgets.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Iterator, Union

#: Aggregate function names recognized by engines and the canonicalizer.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: Scalar functions recognized by engines: temporal extraction plus binning.
SCALAR_FUNCTIONS = frozenset(
    {"YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "DOW", "BIN", "ABS", "ROUND",
     "LOWER", "UPPER", "LENGTH", "COALESCE"}
)

#: Comparison operators, in canonical spelling.
COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})

#: Arithmetic operators.
ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})

#: Boolean connectives.
BOOLEAN_OPS = frozenset({"AND", "OR"})

#: Python types that may appear inside :class:`Literal`.
LiteralValue = Union[int, float, str, bool, None, _dt.date, _dt.datetime]


class Node:
    """Common base class for every AST node.

    Provides a uniform :meth:`children` iterator used by the generic
    visitors in :mod:`repro.sql.visitors`.
    """

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (default: none)."""
        return iter(())


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expression(Node):
    """Marker base class for value-producing nodes."""


@dataclass(frozen=True)
class Column(Expression):
    """A reference to a column, optionally qualified by a table name."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value (number, string, boolean, date, or NULL)."""

    value: LiteralValue

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Star(Expression):
    """The ``*`` placeholder, valid inside ``COUNT(*)`` and ``SELECT *``."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class FuncCall(Expression):
    """A function application, aggregate or scalar.

    Parameters
    ----------
    name:
        Upper-cased function name, e.g. ``"COUNT"`` or ``"YEAR"``.
    args:
        Argument expressions. ``COUNT(*)`` is represented as
        ``FuncCall("COUNT", (Star(),))``.
    distinct:
        Whether the aggregate applies to distinct values only
        (``COUNT(DISTINCT x)``).
    """

    name: str
    args: tuple[Expression, ...] = ()
    distinct: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.upper())

    @property
    def is_aggregate(self) -> bool:
        """True when this call is one of the five aggregate functions."""
        return self.name in AGGREGATE_FUNCTIONS

    def children(self) -> Iterator[Node]:
        return iter(self.args)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operation: arithmetic, comparison, or boolean connective."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", self.op.upper())

    @property
    def is_comparison(self) -> bool:
        return self.op in COMPARISON_OPS

    @property
    def is_boolean(self) -> bool:
        return self.op in BOOLEAN_OPS

    @property
    def is_arithmetic(self) -> bool:
        return self.op in ARITHMETIC_OPS

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """A unary operation: ``NOT expr`` or arithmetic negation ``-expr``."""

    op: str
    operand: Expression

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", self.op.upper())

    def children(self) -> Iterator[Node]:
        yield self.operand

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class InList(Expression):
    """Membership predicate: ``expr [NOT] IN (v1, v2, ...)``."""

    expr: Expression
    values: tuple[Expression, ...]
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.expr
        yield from self.values

    def __str__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        vals = ", ".join(str(v) for v in self.values)
        return f"({self.expr} {op} ({vals}))"


@dataclass(frozen=True)
class Between(Expression):
    """Range predicate: ``expr [NOT] BETWEEN low AND high`` (inclusive)."""

    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.expr
        yield self.low
        yield self.high

    def __str__(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.expr} {op} {self.low} AND {self.high})"


@dataclass(frozen=True)
class Like(Expression):
    """String pattern predicate: ``expr [NOT] LIKE pattern``.

    Patterns use standard SQL wildcards: ``%`` (any run) and ``_``
    (single character).
    """

    expr: Expression
    pattern: str
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.expr

    def __str__(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.expr} {op} {self.pattern!r})"


@dataclass(frozen=True)
class IsNull(Expression):
    """Null test: ``expr IS [NOT] NULL``."""

    expr: Expression
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.expr

    def __str__(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.expr} {op})"


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    """One entry of the SELECT list: an expression plus an optional alias."""

    expr: Expression
    alias: str | None = None

    def output_name(self, position: int | None = None) -> str:
        """Name this item contributes to the result schema.

        Aliases win; bare columns use their own name; other expressions
        fall back to their canonical text (or ``col_<position>``).
        """
        if self.alias:
            return self.alias
        if isinstance(self.expr, Column):
            return self.expr.name
        if isinstance(self.expr, FuncCall):
            return str(self.expr).lower()
        if position is not None:
            return f"col_{position}"
        return str(self.expr)

    def children(self) -> Iterator[Node]:
        yield self.expr

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass(frozen=True)
class TableRef(Node):
    """A reference to a base table, optionally aliased."""

    name: str
    alias: str | None = None

    def __str__(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


#: Join kinds supported by the analytic subset.
JOIN_KINDS = frozenset({"INNER", "LEFT"})


@dataclass(frozen=True)
class Join(Node):
    """One equi-join clause: ``[INNER|LEFT] JOIN table ON left = right``.

    The paper's data layer joins each visualization's parent tables
    "according to the Database Specification" (§3.0.3). Joins here are
    restricted to single-column equi-joins, which is exactly the
    foreign-key shape a star-schema Database Specification produces.

    Parameters
    ----------
    table:
        The joined (right-side) table.
    left_key:
        Join key on the accumulated left relation. May be qualified.
    right_key:
        Join key on ``table``. May be qualified.
    kind:
        ``"INNER"`` (default) or ``"LEFT"`` (left outer).
    """

    table: TableRef
    left_key: Column
    right_key: Column
    kind: str = "INNER"

    def __post_init__(self) -> None:
        kind = self.kind.upper()
        if kind not in JOIN_KINDS:
            raise ValueError(
                f"unsupported join kind {self.kind!r}; expected one of "
                f"{sorted(JOIN_KINDS)}"
            )
        object.__setattr__(self, "kind", kind)

    def children(self) -> Iterator[Node]:
        yield self.table
        yield self.left_key
        yield self.right_key

    def __str__(self) -> str:
        return f"{self.kind} JOIN {self.table} ON {self.left_key} = {self.right_key}"


@dataclass(frozen=True)
class OrderItem(Node):
    """One ORDER BY key: expression plus direction."""

    expr: Expression
    descending: bool = False

    def children(self) -> Iterator[Node]:
        yield self.expr

    def __str__(self) -> str:
        return f"{self.expr} {'DESC' if self.descending else 'ASC'}"


#: Instance-dict key under which :func:`repro.sql.formatter.format_query`
#: keeps a query's rendered text.
SQL_MEMO = "_sql"


@dataclass(frozen=True)
class Query(Node):
    """A complete SELECT query over one table, optionally joined.

    This is the unit of work throughout the benchmark: dashboards emit
    ``Query`` values, engines execute them, and the equivalence suite
    compares them. Dashboards emit single-table queries; ``joins`` is
    populated when the Database Specification stores a star schema and
    the data layer must reassemble the denormalized view (§3.0.3).
    """

    select: tuple[SelectItem, ...]
    from_table: TableRef
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False
    joins: tuple[Join, ...] = ()

    def children(self) -> Iterator[Node]:
        yield from self.select
        yield self.from_table
        yield from self.joins
        if self.where is not None:
            yield self.where
        yield from self.group_by
        if self.having is not None:
            yield self.having
        yield from self.order_by

    @property
    def is_aggregate(self) -> bool:
        """True when the query groups rows or selects any aggregate."""
        if self.group_by:
            return True
        return any(_contains_aggregate(item.expr) for item in self.select)

    def output_names(self) -> list[str]:
        """Column names of the result relation, in SELECT order."""
        return [item.output_name(i) for i, item in enumerate(self.select)]

    def table_names(self) -> list[str]:
        """Names of every table the query reads, FROM first."""
        return [self.from_table.name] + [j.table.name for j in self.joins]

    def with_where(self, predicate: Expression | None) -> "Query":
        """Return a copy of this query with ``where`` replaced."""
        return replace_query(self, where=predicate)

    def and_where(self, predicate: Expression) -> "Query":
        """Return a copy with ``predicate`` AND-ed into the WHERE clause."""
        if self.where is None:
            return self.with_where(predicate)
        return self.with_where(BinaryOp("AND", self.where, predicate))

    def __getstate__(self) -> dict[str, object]:
        """Pickle and ``copy`` carry the fields, not the rendered text."""
        state = dict(self.__dict__)
        state.pop(SQL_MEMO, None)
        return state

    def __str__(self) -> str:
        # Deferred import keeps the AST module dependency-free.
        from repro.sql.formatter import format_query

        return format_query(self)


def replace_query(query: Query, **updates: object) -> Query:
    """Dataclass ``replace`` wrapper that tolerates tuple coercion."""
    from dataclasses import replace as _replace

    for key in ("select", "group_by", "order_by", "joins"):
        if key in updates and not isinstance(updates[key], tuple):
            updates[key] = tuple(updates[key])  # type: ignore[arg-type]
    return _replace(query, **updates)


def _contains_aggregate(expr: Expression) -> bool:
    """True when any node in ``expr`` is an aggregate function call."""
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return True
    return any(
        isinstance(child, Expression) and _contains_aggregate(child)
        for child in expr.children()
    )


def contains_aggregate(expr: Expression) -> bool:
    """Public alias of :func:`_contains_aggregate`."""
    return _contains_aggregate(expr)


def conjuncts(predicate: Expression | None) -> list[Expression]:
    """Flatten a predicate tree into its top-level AND-ed conjuncts.

    ``None`` flattens to the empty list. OR-trees are kept intact as a
    single conjunct.
    """
    if predicate is None:
        return []
    if isinstance(predicate, BinaryOp) and predicate.op == "AND":
        return conjuncts(predicate.left) + conjuncts(predicate.right)
    return [predicate]


def conjoin(predicates: list[Expression]) -> Expression | None:
    """Re-assemble a list of conjuncts into a left-deep AND tree."""
    if not predicates:
        return None
    result = predicates[0]
    for pred in predicates[1:]:
        result = BinaryOp("AND", result, pred)
    return result


def disjuncts(predicate: Expression | None) -> list[Expression]:
    """Flatten a predicate tree into its top-level OR-ed disjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, BinaryOp) and predicate.op == "OR":
        return disjuncts(predicate.left) + disjuncts(predicate.right)
    return [predicate]


def disjoin(predicates: list[Expression]) -> Expression | None:
    """Re-assemble a list of disjuncts into a left-deep OR tree."""
    if not predicates:
        return None
    result = predicates[0]
    for pred in predicates[1:]:
        result = BinaryOp("OR", result, pred)
    return result


def walk(node: Node) -> Iterator[Node]:
    """Depth-first pre-order traversal of an AST subtree."""
    yield node
    for child in node.children():
        yield from walk(child)


def referenced_columns(node: Node) -> set[str]:
    """All column names referenced anywhere under ``node``."""
    return {n.name for n in walk(node) if isinstance(n, Column)}
