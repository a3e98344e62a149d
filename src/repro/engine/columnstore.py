"""Vectorized column store (DuckDB execution-model stand-in).

Executes queries as whole-column numpy operations: the WHERE clause
becomes one boolean mask, grouping assigns dense group ids from
dictionary codes (:mod:`repro.engine.encoding`), and aggregates are
computed with ``np.bincount`` / ``np.minimum.at`` style scatter
operations. Per-row Python interpretation is avoided on the hot
path, which is what gives this engine the DuckDB-like profile on
aggregation-heavy dashboard queries.
"""

from __future__ import annotations

import numpy as np

from repro.engine.encoding import Encoding, canonical_key, encode
from repro.engine.expressions import (
    VectorContext,
    evaluate_mask,
    evaluate_row,
    evaluate_values,
    make_accumulator,
)
from repro.engine.interface import DatabaseBackedEngine, ResultSet
from repro.engine.planner import (
    AggregatePlan,
    ProjectionPlan,
    placeholder_row,
    plan_query,
)
from repro.engine.table import Table
from repro.engine.types import sort_key
from repro.sql.ast import FuncCall, Query, SelectItem, Star, TableRef


def filtered_table(table: Table, name: str, predicate, row_range=None) -> Table:
    """Rows of ``table`` satisfying ``predicate``, in base order.

    Shared by the vectorized engines to materialize batch shared-scan
    relations without shuttling rows through result sets: one mask over
    the column arrays, then plain column slicing — the values stay the
    original Python objects, so downstream execution is byte-identical
    to filtering inline. The result is a :meth:`Table.take` of
    ``table``, so it inherits ``table``'s dictionary codes.

    ``row_range`` restricts the scan to a ``(start, stop)`` slice of
    base row positions (sharded execution): the predicate mask is
    evaluated over the sliced arrays only, so each shard's scan cost is
    proportional to its slice. ``predicate=None`` materializes the bare
    slice.
    """
    from repro.engine.derived import rewrite_query

    start, stop = row_range if row_range is not None else (0, table.num_rows)
    if predicate is None:
        return table.take(name, np.arange(start, stop))
    probe = Query(
        select=(SelectItem(Star()),),
        from_table=TableRef(table.name),
        where=predicate,
    )
    arrays = {n: table.array(n) for n in table.schema.names}
    probe = rewrite_query(probe, table, arrays)
    rows = None
    if row_range is not None:
        # Derived arrays are built full-length; slice everything after
        # the rewrite so positions stay aligned.
        rows = slice(start, stop)
        arrays = {n: a[rows] for n, a in arrays.items()}
    ctx = VectorContext(arrays, stop - start, table, rows)
    mask = evaluate_mask(probe.where, ctx)
    return table.take(name, np.flatnonzero(mask) + start)


class VectorStoreEngine(DatabaseBackedEngine):
    """Pure-Python vectorized (batch-at-a-time) engine."""

    name = "vectorstore"
    # Numeric columns already execute through float64 ``Table.array``
    # views, so the shared-memory export's float64 round trip is
    # execution-equivalent; object columns travel as pickle blobs.
    supports_process_shards = True
    process_shard_mode = "shm"

    def materialize_filtered(
        self, name, source: str, predicate, row_range=None
    ) -> bool:
        if source not in self._db:
            return False
        self.load_table(
            filtered_table(self._db.table(source), name, predicate, row_range)
        )
        return True

    def execute(self, query: Query) -> ResultSet:
        from repro.engine.derived import rewrite_query

        if query.joins:
            from repro.engine.join import resolve_joins

            table, query = resolve_joins(self._db, query)
        else:
            table = self._db.table(query.from_table.name)
        arrays = {name: table.array(name) for name in table.schema.names}
        query = rewrite_query(query, table, arrays)
        ctx = VectorContext(arrays, table.num_rows, table)
        if query.where is not None:
            mask = evaluate_mask(query.where, ctx)
            ctx = _filtered_context(ctx, mask)
        plan = plan_query(query)
        if isinstance(plan, AggregatePlan):
            return self._aggregate(ctx, plan, table)
        return self._project(ctx, plan, table)

    # -- projection ------------------------------------------------------------

    def _project(
        self, ctx: VectorContext, plan: ProjectionPlan, table: Table
    ) -> ResultSet:
        if plan.select_star:
            plan.output_names = list(table.schema.names)
            columns = [ctx.column(n) for n in plan.output_names]
        else:
            columns = [evaluate_values(e, ctx) for e in plan.item_exprs]
        order_columns = [
            evaluate_values(e, ctx) for e, _ in plan.order_exprs
        ]
        rows = _columns_to_rows(columns, ctx.num_rows)
        return _finish_vector(rows, order_columns, plan)

    # -- aggregation -------------------------------------------------------------

    def _aggregate(
        self, ctx: VectorContext, plan: AggregatePlan, table: Table
    ) -> ResultSet:
        num_rows = ctx.num_rows
        if plan.is_global:
            group_count = 1
            gids = np.zeros(num_rows, dtype=np.int64)
            group_keys: list[tuple[object, ...]] = [()]
        else:
            key_arrays = [
                evaluate_values(e, ctx) for e in plan.key_exprs
            ]
            gids, group_keys = _assign_group_ids(
                key_arrays, [ctx.encoding(e) for e in plan.key_exprs]
            )
            group_count = len(group_keys)

        agg_columns = [
            self._compute_aggregate(call, ctx, gids, group_count)
            for call in plan.agg_calls
        ]

        output: list[tuple[tuple[object, ...], tuple[object, ...]]] = []
        for gid in range(group_count):
            aggs = [col[gid] for col in agg_columns]
            context = placeholder_row(group_keys[gid], aggs)
            if plan.having_expr is not None:
                if evaluate_row(plan.having_expr, context) is not True:
                    continue
            values = tuple(
                evaluate_row(e, context) for e in plan.item_exprs
            )
            order_keys = tuple(
                evaluate_row(e, context) for e, _ in plan.order_exprs
            )
            output.append((values, order_keys))
        return _finish_tagged(output, plan)

    def _compute_aggregate(
        self,
        call: FuncCall,
        ctx: VectorContext,
        gids: np.ndarray,
        group_count: int,
    ) -> list[object]:
        """One aggregate over all groups at once."""
        if call.name == "COUNT" and isinstance(call.args[0], Star):
            counts = np.bincount(gids, minlength=group_count)
            return [int(c) for c in counts]
        values = evaluate_values(call.args[0], ctx)
        if call.distinct:
            return _distinct_aggregate(call, values, gids, group_count)
        if values.dtype == np.float64:
            notnull = ~np.isnan(values)
            if call.name == "COUNT":
                counts = np.bincount(gids[notnull], minlength=group_count)
                return [int(c) for c in counts]
            if call.name in ("SUM", "AVG"):
                sums = np.bincount(
                    gids[notnull],
                    weights=values[notnull],
                    minlength=group_count,
                )
                counts = np.bincount(gids[notnull], minlength=group_count)
                if call.name == "SUM":
                    return [
                        _maybe_int(s) if c else None
                        for s, c in zip(sums, counts)
                    ]
                return [
                    (s / c) if c else None for s, c in zip(sums, counts)
                ]
            if call.name in ("MIN", "MAX"):
                init = np.inf if call.name == "MIN" else -np.inf
                out = np.full(group_count, init, dtype=np.float64)
                if call.name == "MIN":
                    np.minimum.at(out, gids[notnull], values[notnull])
                else:
                    np.maximum.at(out, gids[notnull], values[notnull])
                return [
                    _maybe_int(v) if np.isfinite(v) else None for v in out
                ]
        # Object-typed values (strings, dates): per-group accumulation.
        return _object_aggregate(call, values, gids, group_count)


def _filtered_context(ctx: VectorContext, mask: np.ndarray) -> VectorContext:
    """The rows of ``ctx`` (a whole table) where ``mask`` holds; their
    positions travel along, so the table's codes are cut to match."""
    rows = np.flatnonzero(mask)
    arrays = {name: arr[rows] for name, arr in ctx.arrays.items()}
    return VectorContext(arrays, len(rows), ctx.table, rows)


#: Largest product of key cardinalities combined into one int64 code.
_MAX_RADIX = 1 << 62


def _assign_group_ids(
    key_arrays: list[np.ndarray],
    encodings: list[Encoding | None] | None = None,
) -> tuple[np.ndarray, list[tuple[object, ...]]]:
    """Dense group ids + the distinct key tuple for each id.

    Every key is dictionary-encoded — ``encodings[i]`` when the caller
    has the table's cached codes for key ``i``, otherwise here — and
    the per-key codes are combined mixed-radix into one int64 per row,
    so ``np.unique`` groups all keys at once. Ids are renumbered by
    first occurrence, the order a hash loop over the rows assigns;
    only a single float key keeps ``np.unique``'s ascending order (its
    codes ascend with the values, NULL first). Key tuples hold the
    canonical values of each group's first row.
    """
    if encodings is None:
        encodings = [None] * len(key_arrays)
    encoded = [
        encoding if encoding is not None else encode(values)
        for encoding, values in zip(encodings, key_arrays)
    ]
    combined, radix = encoded[0].codes, encoded[0].cardinality
    for encoding in encoded[1:]:
        codes, cardinality = encoding.codes, encoding.cardinality
        if radix * cardinality > _MAX_RADIX:
            # Both sides drop to at most num_rows values.
            combined, radix = _densify(combined)
            codes, cardinality = _densify(codes)
        combined = combined * cardinality + codes
        radix *= cardinality
    _, first, gids = np.unique(
        combined, return_index=True, return_inverse=True
    )
    gids = gids.reshape(-1).astype(np.int64, copy=False)
    if len(key_arrays) == 1 and key_arrays[0].dtype == np.float64:
        firsts = key_arrays[0][first].tolist()
        return gids, [(canonical_key(value),) for value in firsts]
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    keys = [
        tuple(canonical_key(values[row]) for values in key_arrays)
        for row in first[order].tolist()
    ]
    return rank[gids], keys


def _densify(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber ``codes`` to ``0..k-1``, keeping their order."""
    unique, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1), len(unique)


def _distinct_aggregate(
    call: FuncCall, values: np.ndarray, gids: np.ndarray, group_count: int
) -> list[object]:
    sets: list[set[object]] = [set() for _ in range(group_count)]
    for gid, value in zip(gids, values):
        if value is None or (isinstance(value, float) and np.isnan(value)):
            continue
        sets[gid].add(canonical_key(value))
    results: list[object] = []
    for members in sets:
        accumulator = make_accumulator(call)
        for member in members:
            accumulator.add(member)
        results.append(accumulator.result())
    return results


def _object_aggregate(
    call: FuncCall, values: np.ndarray, gids: np.ndarray, group_count: int
) -> list[object]:
    accumulators = [make_accumulator(call) for _ in range(group_count)]
    for gid, value in zip(gids, values):
        if isinstance(value, float) and np.isnan(value):
            value = None
        accumulators[gid].add(value)
    return [acc.result() for acc in accumulators]


def _columns_to_rows(
    columns: list[np.ndarray], num_rows: int
) -> list[tuple[object, ...]]:
    pythonized = [_pythonize(col) for col in columns]
    return [
        tuple(col[i] for col in pythonized) for i in range(num_rows)
    ]


def _pythonize(column: np.ndarray) -> list[object]:
    """numpy column -> Python values (NaN -> None, integral floats -> int)."""
    if column.dtype == np.float64:
        return [
            None if np.isnan(v) else _maybe_int(v) for v in column.tolist()
        ]
    return list(column)


def _maybe_int(value: float) -> object:
    if float(value).is_integer() and abs(value) < 1e15:
        return int(value)
    return float(value)


def _finish_vector(
    rows: list[tuple[object, ...]],
    order_columns: list[np.ndarray],
    plan: ProjectionPlan,
) -> ResultSet:
    order_values = [_pythonize(c) for c in order_columns]
    tagged = [
        (row, tuple(col[i] for col in order_values))
        for i, row in enumerate(rows)
    ]
    return _finish_tagged(tagged, plan)


def _finish_tagged(
    tagged: list[tuple[tuple[object, ...], tuple[object, ...]]],
    plan: AggregatePlan | ProjectionPlan,
) -> ResultSet:
    if plan.distinct:
        seen: set[tuple[object, ...]] = set()
        unique = []
        for values, keys in tagged:
            if values not in seen:
                seen.add(values)
                unique.append((values, keys))
        tagged = unique
    if plan.order_exprs:
        for index in range(len(plan.order_exprs) - 1, -1, -1):
            descending = plan.order_exprs[index][1]
            tagged.sort(
                key=lambda pair: sort_key(pair[1][index]),
                reverse=descending,
            )
    rows = [values for values, _ in tagged]
    if plan.limit is not None:
        rows = rows[: plan.limit]
    return ResultSet(plan.output_names, rows)
