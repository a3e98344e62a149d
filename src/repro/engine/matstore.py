"""Operator-at-a-time materializing column store (MonetDB stand-in).

MonetDB executes queries as a sequence of full-column (BAT) operations,
materializing every intermediate. This engine mimics that profile:

- each atomic WHERE conjunct is evaluated over the *entire* column and
  materialized as a candidate index vector, then the vectors are
  intersected (no short-circuiting across predicates);
- every column a later operator needs is materialized with ``take``
  before that operator runs;
- grouping is sort-based over fully materialized key columns.

The resulting behaviour matches MonetDB's: scans and single-filter
aggregations are fast, but filter-heavy queries (the IDEBench workload
shape, Table 4) pay for materializing each predicate separately.
"""

from __future__ import annotations

import numpy as np

from repro.engine.expressions import (
    VectorContext,
    evaluate_mask,
    evaluate_row,
    evaluate_values,
)
from repro.engine.interface import DatabaseBackedEngine, ResultSet
from repro.engine.planner import (
    AggregatePlan,
    ProjectionPlan,
    placeholder_row,
    plan_query,
)
from repro.engine.columnstore import (
    _columns_to_rows,
    _finish_tagged,
    _finish_vector,
    _maybe_int,
    _object_aggregate,
    _distinct_aggregate,
    filtered_table,
)
from repro.engine.encoding import canonical_key
from repro.engine.indexes import TableIndexes, candidate_indices
from repro.engine.table import Table
from repro.sql.ast import FuncCall, Query, Star, conjuncts


class MatStoreEngine(DatabaseBackedEngine):
    """Pure-Python operator-at-a-time engine with full materialization."""

    name = "matstore"
    supports_indexes = True
    # Same float64/pickle export shape as the vectorstore; worker-side
    # shard engines simply have no secondary indexes (results are
    # identical, indexes only change speed).
    supports_process_shards = True
    process_shard_mode = "shm"

    def __init__(self) -> None:
        super().__init__()
        self._indexes: dict[str, TableIndexes] = {}

    def load_table(self, table: Table) -> None:
        super().load_table(table)
        self._indexes.pop(table.name, None)  # stale indexes die with the data

    def unload_table(self, name: str) -> None:
        super().unload_table(name)
        self._indexes.pop(name, None)

    def materialize_filtered(
        self, name, source: str, predicate, row_range=None
    ) -> bool:
        if source not in self._db:
            return False
        # Route through load_table: replacing a table must drop its
        # stale secondary indexes exactly like a load does.
        self.load_table(
            filtered_table(self._db.table(source), name, predicate, row_range)
        )
        return True

    def create_index(self, table: str, column: str) -> None:
        indexes = self._indexes.get(table)
        if indexes is None:
            indexes = TableIndexes(self._db.table(table))
            self._indexes[table] = indexes
        indexes.create(column)

    def execute(self, query: Query) -> ResultSet:
        from repro.engine.derived import rewrite_query

        if query.joins:
            from repro.engine.join import resolve_joins

            table, query = resolve_joins(self._db, query)
            indexes = None  # base-table indexes do not survive the join
        else:
            table = self._db.table(query.from_table.name)
            indexes = self._indexes.get(table.name)
        arrays = {name: table.array(name) for name in table.schema.names}
        query = rewrite_query(query, table, arrays)
        base = VectorContext(arrays, table.num_rows)
        candidates = self._select_candidates(base, query, indexes)
        ctx = VectorContext(
            {name: arr[candidates] for name, arr in base.arrays.items()},
            len(candidates),
        )
        plan = plan_query(query)
        if isinstance(plan, AggregatePlan):
            return self._aggregate(ctx, plan)
        if plan.select_star:
            plan.output_names = list(table.schema.names)
            columns = [ctx.column(n) for n in plan.output_names]
        else:
            columns = [evaluate_values(e, ctx) for e in plan.item_exprs]
        order_columns = [evaluate_values(e, ctx) for e, _ in plan.order_exprs]
        rows = _columns_to_rows(columns, ctx.num_rows)
        return _finish_vector(rows, order_columns, plan)

    def _select_candidates(
        self,
        ctx: VectorContext,
        query: Query,
        indexes: TableIndexes | None = None,
    ) -> np.ndarray:
        """Materialize one candidate vector per conjunct, then intersect."""
        if query.where is None:
            return np.arange(ctx.num_rows, dtype=np.int64)
        candidates: np.ndarray | None = None
        for predicate in conjuncts(query.where):
            vector: np.ndarray | None = None
            if indexes is not None:
                # An index delivers the conjunct's candidate vector
                # directly, skipping the scan for this operator.
                vector = candidate_indices(indexes, predicate)
            if vector is None:
                mask = evaluate_mask(predicate, ctx)
                vector = np.flatnonzero(mask)  # full materialization per conjunct
            if candidates is None:
                candidates = vector
            else:
                candidates = np.intersect1d(
                    candidates, vector, assume_unique=True
                )
        assert candidates is not None
        return candidates

    def _aggregate(
        self, ctx: VectorContext, plan: AggregatePlan
    ) -> ResultSet:
        num_rows = ctx.num_rows
        if plan.is_global:
            boundaries = [(0, num_rows)]
            order = np.arange(num_rows, dtype=np.int64)
            group_keys: list[tuple[object, ...]] = [()]
        else:
            key_columns = [
                [canonical_key(v) for v in evaluate_values(e, ctx)]
                for e in plan.key_exprs
            ]
            order, boundaries, group_keys = _sort_groups(key_columns, num_rows)

        # Materialize each aggregate input column once, in sorted order.
        agg_inputs: list[np.ndarray | None] = []
        for call in plan.agg_calls:
            if call.name == "COUNT" and isinstance(call.args[0], Star):
                agg_inputs.append(None)
            else:
                values = evaluate_values(call.args[0], ctx)
                agg_inputs.append(values[order])

        output: list[tuple[tuple[object, ...], tuple[object, ...]]] = []
        for gid, (start, end) in enumerate(boundaries):
            aggs = [
                _run_aggregate(call, inputs, start, end)
                for call, inputs in zip(plan.agg_calls, agg_inputs)
            ]
            context = placeholder_row(group_keys[gid], aggs)
            if plan.having_expr is not None:
                if evaluate_row(plan.having_expr, context) is not True:
                    continue
            values = tuple(evaluate_row(e, context) for e in plan.item_exprs)
            order_keys = tuple(
                evaluate_row(e, context) for e, _ in plan.order_exprs
            )
            output.append((values, order_keys))
        if not output and plan.is_global and num_rows == 0:
            context = placeholder_row(
                (),
                [
                    _run_aggregate(call, inputs, 0, 0)
                    for call, inputs in zip(plan.agg_calls, agg_inputs)
                ],
            )
            keep = (
                plan.having_expr is None
                or evaluate_row(plan.having_expr, context) is True
            )
            if keep:
                values = tuple(
                    evaluate_row(e, context) for e in plan.item_exprs
                )
                order_keys = tuple(
                    evaluate_row(e, context) for e, _ in plan.order_exprs
                )
                output.append((values, order_keys))
        return _finish_tagged(output, plan)


def _sort_groups(
    key_columns: list[list[object]], num_rows: int
) -> tuple[np.ndarray, list[tuple[int, int]], list[tuple[object, ...]]]:
    """Sort-based grouping: returns (permutation, run boundaries, keys)."""
    from repro.engine.types import sort_key

    indices = sorted(
        range(num_rows),
        key=lambda i: tuple(sort_key(col[i]) for col in key_columns),
    )
    order = np.array(indices, dtype=np.int64)
    boundaries: list[tuple[int, int]] = []
    group_keys: list[tuple[object, ...]] = []
    start = 0
    previous: tuple[object, ...] | None = None
    for position, row_index in enumerate(indices):
        key = tuple(col[row_index] for col in key_columns)
        if previous is None:
            previous = key
        elif key != previous:
            boundaries.append((start, position))
            group_keys.append(previous)
            start = position
            previous = key
    if previous is not None:
        boundaries.append((start, num_rows))
        group_keys.append(previous)
    return order, boundaries, group_keys


def _run_aggregate(
    call: FuncCall, inputs: np.ndarray | None, start: int, end: int
) -> object:
    """Aggregate one sorted run [start, end)."""
    count = end - start
    if inputs is None:  # COUNT(*)
        return count
    values = inputs[start:end]
    if call.distinct:
        return _distinct_aggregate(
            call, values, np.zeros(count, dtype=np.int64), 1
        )[0]
    if values.dtype == np.float64:
        valid = values[~np.isnan(values)]
        if call.name == "COUNT":
            return int(valid.size)
        if valid.size == 0:
            return None
        if call.name == "SUM":
            return _maybe_int(float(valid.sum()))
        if call.name == "AVG":
            return float(valid.mean())
        if call.name == "MIN":
            return _maybe_int(float(valid.min()))
        if call.name == "MAX":
            return _maybe_int(float(valid.max()))
    return _object_aggregate(
        call, values, np.zeros(count, dtype=np.int64), 1
    )[0]
