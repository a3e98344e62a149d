"""The data layer: dashboard nodes -> SQL queries (paper §3.0.3).

Each visualization node corresponds to one SQL query. The base query is
derived from the visualization's dimensions and measures; active filters
(from widgets and cross-filtering selections, delivered by the state's
propagation pass) are AND-ed into the WHERE clause.

A dashboard *refresh* — the initial render, or the fan-out after an
interaction — is represented by :class:`RefreshPlan`: the ordered set
of component queries, executable either sequentially or through the
shared-scan batch optimizer (:mod:`repro.engine.batch`). Because every
component queries the same table and shares the same AND-ed filters,
batch mode collapses the refresh into a handful of shared scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.interface import Engine, QueryResult
from repro.dashboard.spec import (
    DashboardSpec,
    DimensionSpec,
    MeasureSpec,
    VisualizationSpec,
)
from repro.engine.types import DataType
from repro.errors import SpecificationError
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    Expression,
    FuncCall,
    InList,
    Literal,
    Query,
    SelectItem,
    Star,
    TableRef,
)

_AGG_SQL = {"count": "COUNT", "sum": "SUM", "avg": "AVG", "min": "MIN", "max": "MAX"}
_TEMPORAL_UNITS = {"year": "YEAR", "month": "MONTH", "day": "DAY", "hour": "HOUR"}


def dimension_expression(
    dim: DimensionSpec, spec: DashboardSpec
) -> Expression:
    """SQL grouping expression for a dimension (column, bin, or unit)."""
    column = Column(dim.column)
    if dim.bin is None:
        return column
    dtype = spec.database.column(dim.column).dtype
    if isinstance(dim.bin, str):
        unit = dim.bin.lower()
        if unit not in _TEMPORAL_UNITS:
            raise SpecificationError(
                f"unknown temporal bin unit {dim.bin!r} on {dim.column!r}"
            )
        if not dtype.is_temporal:
            raise SpecificationError(
                f"temporal bin on non-temporal column {dim.column!r}"
            )
        return FuncCall(_TEMPORAL_UNITS[unit], (column,))
    if not isinstance(dim.bin, (int, float)) or dim.bin <= 0:
        raise SpecificationError(
            f"bin width on {dim.column!r} must be a positive number"
        )
    if not dtype.is_numeric:
        raise SpecificationError(
            f"numeric bin on non-numeric column {dim.column!r}"
        )
    return FuncCall("BIN", (column, Literal(dim.bin)))


def measure_expression(measure: MeasureSpec) -> Expression:
    """SQL aggregate expression for a measure."""
    if measure.column is None:
        if measure.agg != "count":
            raise SpecificationError(
                f"measure {measure.agg!r} requires a column"
            )
        return FuncCall("COUNT", (Star(),))
    return FuncCall(_AGG_SQL[measure.agg], (Column(measure.column),))


def measure_alias(measure: MeasureSpec) -> str:
    if measure.column is None:
        return "count_all"
    return f"{measure.agg}_{measure.column}"


def dimension_alias(dim: DimensionSpec) -> str | None:
    if dim.bin is None:
        return None
    if isinstance(dim.bin, str):
        return f"{dim.bin}_{dim.column}"
    return f"bin_{dim.column}"


def base_query(viz: VisualizationSpec, spec: DashboardSpec) -> Query:
    """The visualization's query with no active filters."""
    select: list[SelectItem] = []
    group_by: list[Expression] = []
    for dim in viz.dimensions:
        expr = dimension_expression(dim, spec)
        select.append(SelectItem(expr, dimension_alias(dim)))
        group_by.append(expr)
    has_measures = bool(viz.measures)
    for measure in viz.measures:
        select.append(
            SelectItem(measure_expression(measure), measure_alias(measure))
        )
    if not select:
        raise SpecificationError(
            f"visualization {viz.id!r} produces an empty query"
        )
    return Query(
        select=tuple(select),
        from_table=TableRef(spec.database.table),
        group_by=tuple(group_by) if has_measures else (),
    )


def filtered_query(
    viz: VisualizationSpec,
    spec: DashboardSpec,
    filters: list[Expression],
) -> Query:
    """The visualization's query with active filters AND-ed in."""
    return with_filters(base_query(viz, spec), filters)


def with_filters(query: Query, filters: list[Expression]) -> Query:
    """``query`` with ``filters`` AND-ed into its WHERE clause.

    Filters are sorted by canonical text so the emitted SQL is stable
    regardless of the order widgets were touched — this keeps query
    logs deterministic and cache-friendly.
    """
    if not filters:
        return query
    from repro.sql.formatter import format_expression

    ordered = sorted(filters, key=format_expression)
    predicate = ordered[0]
    for expr in ordered[1:]:
        predicate = BinaryOp("AND", predicate, expr)
    return query.with_where(predicate)


@dataclass
class RefreshPlan:
    """One dashboard refresh: the ordered fan-out of component queries.

    This is the unit the batch executor consumes — the full set of
    queries a render or interaction re-emits, positionally aligned with
    the visualization ids they feed.
    """

    viz_ids: list[str]
    queries: list[Query]

    def __len__(self) -> int:
        return len(self.queries)

    def execute(
        self, engine: Engine, policy=None, *, batch: bool | None = None,
        workers: int | None = None, shards: int | None = None,
        multiplan: bool | None = None,
    ) -> dict[str, QueryResult]:
        """Run the refresh; returns timed results keyed by viz id.

        ``policy`` (an :class:`~repro.execution.ExecutionPolicy` or
        preset name) picks the strategy; the default routes through
        :meth:`Engine.execute_batch` (shared scans) on one worker. A
        ``batch=False`` policy executes each component query
        independently; ``workers > 1`` overlaps the refresh's
        independent units (scan groups in batch mode, single queries
        otherwise); ``shards``/``multiplan`` split and combine scan
        groups (:mod:`repro.sharding`, :mod:`repro.engine.multiplan`).
        All policies produce identical result sets. The per-knob
        keywords are deprecated and map onto the equivalent policy.
        """
        from repro.execution import ExecutionPolicy, resolve_policy

        policy = resolve_policy(
            policy,
            api="RefreshPlan.execute",
            default=ExecutionPolicy(),
            batch=batch,
            workers=workers,
            shards=shards,
            multiplan=multiplan,
        )
        # The engine dispatches every policy, including the sequential
        # (batch=False) path — one implementation, not a copy per layer.
        timed = engine.execute_batch(self.queries, policy)
        return dict(zip(self.viz_ids, timed))


def build_refresh(state, viz_ids=None) -> RefreshPlan:
    """The refresh plan for a dashboard state (all or selected nodes).

    ``state`` is a :class:`~repro.dashboard.state.DashboardState`
    (duck-typed to avoid a circular import — the state module builds
    its queries through this data layer).
    """
    if viz_ids is None:
        viz_ids = sorted(state.visualizations)
    else:
        viz_ids = list(viz_ids)
    return RefreshPlan(viz_ids, [state.query_for(v) for v in viz_ids])


def membership_filter(column: str, members: list[object]) -> Expression:
    """Categorical widget filter: ``column IN (members)``."""
    if not members:
        raise SpecificationError("membership filter needs at least one member")
    ordered = sorted(members, key=repr)
    return InList(
        Column(column),
        tuple(Literal(m) for m in ordered),  # type: ignore[arg-type]
    )


def range_filter(column: str, low: object, high: object) -> Expression:
    """Range widget filter: ``column BETWEEN low AND high``."""
    return Between(Column(column), Literal(low), Literal(high))  # type: ignore[arg-type]
