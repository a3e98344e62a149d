"""Partial/merge plans for grouped aggregates (grouping sets).

Every optimizer tier that splits an aggregate into mergeable partials
plans it here, and only here: :func:`build_multiplan` turns the merged
queries of one or more fusion classes sharing one scan into a
:class:`MultiPlan` — one *combined* partial query plus one *merge*
query per class. The tiers differ only in where the partial runs:

1. **Multi-plan pass** (``multiplan=True``). The shared-scan optimizer
   (:mod:`repro.engine.batch`) collapses a dashboard refresh into one
   base scan per *fusion class*, but the initial render has no WHERE
   clause to share and every visualization groups by a different key —
   N fusion classes, N full-table scans. :func:`run_multiplan` removes
   that last N: one engine query computes the *finest* grouping — GROUP
   BY the union of every class's key expressions — with every
   aggregate decomposed into mergeable pieces, over the base table
   itself. SQLite evaluates a single grouped SELECT (its one-pass
   sorter/accumulator — grouping-set emulation without the syntax);
   each pure-Python store makes one traversal feeding one accumulator
   map keyed by the combined keys.
2. **Sharded runs** (:mod:`repro.sharding.executor`). The partial runs
   once per contiguous row-range shard: per class (a one-query
   ``MultiPlan``), or for an unfiltered group of several classes as
   one combined pass per shard.

Either way the partial rows — one result, or one per shard in shard
order — load as a temporary relation (``TEMP_PREFIX``-named,
cache-exempt) and each class's result is derived by its merge query
over it (:func:`merge_partials`), re-aggregating the class's own key
subset with one algebra (:func:`decompose_aggregate`): COUNT/SUM
partials via SUM, MIN/MAX via themselves, AVG as
``SUM(sums) * 1.0 / SUM(counts)``. The merge runs *on the engine*, so
arithmetic promotion, NULL handling, group ordering, and output naming
are the engine's own.

Why each merged result is byte-identical to running the class alone:

- **Rows.** The finest grouping partitions exactly the scanned rows,
  and shards are contiguous, disjoint, and cover the table;
  re-aggregating a key subset sees every row's contribution once.
- **Order.** Engines order GROUP BY output either by key value
  (SQLite's sorter, matstore's sort-based grouping, vectorstore's
  ``np.unique`` path) — reproduced because the merge re-groups on the
  same engine — or by first occurrence in scan order (rowstore's dict,
  vectorstore's hash loop), which the partial relation *preserves*. A
  class key value's first containing partial row sits at the position
  of the finest group that first saw it, which is the position of the
  value's first base row; and a key first seen in shard *i* precedes,
  in base order, every key first seen in shard *j > i*, so
  concatenating per-shard partials in shard order keeps that. First
  occurrences over the partial relation therefore replay first
  occurrences over the base table.
- **Values, types, names.** Group-key columns that are bare columns
  keep their base names through the partial relation (the SQLite
  wrapper restores temporal / boolean output types by schema lookup,
  exactly as in direct execution); expression keys and aggregate
  pieces carry internal ``__mkey*`` / ``__mp*`` names that no
  restoration applies to — matching direct execution, where they are
  not schema columns either. A select item named after a column of
  the scanned table that is not that bare column (``MAX(day) AS
  day``) is the one case direct execution restores and a merge could
  not, so :func:`eligible_plan` sends its class down the per-class
  path.

Exactness boundary: the merge re-associates floating-point addition —
per-partial sums are rounded before the final SUM — so SUM/AVG over
arbitrary FLOAT columns agree with direct execution to IEEE-754
rounding (equal after :func:`~repro.engine.interface.normalize_value`),
and are byte-identical for INTEGER/BOOLEAN columns and
dyadic-rational floats. COUNT/MIN/MAX are exact for every type.

Thread-safety contract (the same leaf-granular discipline as
:mod:`repro.engine.batch`, relied on by
:class:`~repro.concurrency.executor.ScanGroupExecutor`):

- :func:`run_multiplan` executes inside one scan-group task and writes
  only that group's member positions in the shared results list; all
  mutable state (the partial rows, ``produced``) is task-local.
- The partial relation carries a :func:`~repro.engine.batch.unique_temp_name`,
  so two executions of the same group overlapping on one engine can
  never replace or drop each other's relation mid-merge, and the
  ``TEMP_PREFIX`` keeps it exempt from result caching and, on SQLite,
  private to the calling thread's connection.
- No lock is held across any engine call; every call goes through the
  executor's (slot-gated) engine, so interleaving with other groups,
  shards, and single-flight leaders is safe.
- Cache stores happen in the caller (:meth:`BatchExecutor._run_group`
  or the sharded runs' shared ``merge`` in :mod:`repro.sharding.executor`)
  under the table generation read before any engine work, so a table
  reloaded mid-compute drops the store instead of caching vanished
  data.

:class:`MultiPlan` itself is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.batch import _NULL, unique_temp_name
from repro.engine.interface import ResultSet
from repro.engine.planner import (
    AGG_PREFIX,
    KEY_PREFIX,
    AggregatePlan,
    plan_query,
)
from repro.engine.table import Schema, Table
from repro.errors import ExecutionError
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
    Query,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
)
from repro.telemetry import trace as _trace

#: Internal column-name stems of the combined partial relation. Group
#: keys that are bare columns keep their own names (required for the
#: SQLite wrapper's output-type restoration to mirror direct
#: execution); expression keys and aggregate pieces get these.
MULTIPLAN_KEY_PREFIX = "__mkey"
MULTIPLAN_AGG_PREFIX = "__mp"


@dataclass(frozen=True)
class PlanMerge:
    """One plan's derivation from the combined partial relation."""

    #: SELECT list of the merge query: the plan's post-aggregation
    #: expressions with each aggregate call replaced by its merge
    #: expression over partial columns, aliased to the original output
    #: names.
    merge_select: tuple[SelectItem, ...]
    #: GROUP BY of the merge query (the plan's key columns, by their
    #: partial-relation names). Empty for global aggregates.
    merge_group_by: tuple[Expression, ...]
    #: Output column names of the plan's final result.
    output_names: tuple[str, ...]

    @property
    def is_global(self) -> bool:
        """True for aggregates without GROUP BY (one output row)."""
        return not self.merge_group_by

    def merge_query(self, relation: str) -> Query:
        """The re-aggregation of this plan over the partial relation."""
        return Query(
            select=self.merge_select,
            from_table=TableRef(relation),
            group_by=self.merge_group_by,
        )

    def empty_result(self) -> ResultSet:
        """The result of a grouped plan over zero qualifying rows."""
        return ResultSet(list(self.output_names), [])


@dataclass(frozen=True)
class MultiPlan:
    """One combined pass plus one merge per plan (grouping sets).

    Built by :func:`build_multiplan` from the merged queries of one or
    more fusion classes sharing one scan. The *combined* query computes
    the finest grouping — GROUP BY the union of every plan's keys —
    with every aggregate decomposed into mergeable pieces; each
    :class:`PlanMerge` then derives one plan's exact result from the
    combined rows.
    """

    #: SELECT list of the combined query: the union of the plans' key
    #: expressions first, then the decomposed aggregate pieces, every
    #: item aliased.
    combined_select: tuple[SelectItem, ...]
    #: GROUP BY of the combined query (the union of key expressions).
    combined_group_by: tuple[Expression, ...]
    #: Column names of the combined partial relation, in SELECT order.
    combined_names: tuple[str, ...]
    #: One merge per input plan, in input order.
    plans: tuple[PlanMerge, ...]

    def combined_query(self, relation: str, alias: str | None = None) -> Query:
        """The single-pass query over ``relation``.

        For the unfiltered path ``relation`` is the base table itself
        — no materialization happens at all. For sharded execution it
        is one shard's temp, aliased back to the base table name so
        table-qualified column references keep resolving (the same
        rewrite the shared scan uses).
        """
        return Query(
            select=self.combined_select,
            from_table=TableRef(relation, alias=alias),
            group_by=self.combined_group_by,
        )

    def partial_query(self, relation: str, base_table: str) -> Query:
        """The combined pass over one shard's temp, aliased to the base."""
        return self.combined_query(relation, alias=base_table)

    def partial_table(self, name: str, partials: list[ResultSet]) -> Table:
        """The merge input: every partial's rows, in input order.

        One element for the unsharded single pass; one per shard — in
        shard order, which preserves first-occurrence order — for
        sharded execution.
        """
        return concat_partials(name, self.combined_names, partials)


def eligible_plan(query: Query, schema: Schema | None) -> AggregatePlan | None:
    """The query's aggregate plan when its aggregates can decompose.

    The single eligibility gate of every partial/merge plan, so no two
    tiers can disagree about what is decomposable. ``schema`` is the
    scanned table's; ``None`` (unknown) makes every query ineligible.
    ``None`` marks queries whose aggregates cannot be re-aggregated
    from partials: non-aggregates (projections concatenate instead),
    HAVING / ORDER BY / LIMIT / DISTINCT (they change row sets or
    ordering in ways that do not commute with re-aggregation),
    DISTINCT aggregates (distinct sets overlap across partitions),
    joins, and select items whose output name a merge cannot
    reproduce: an unaliased expression's name is engine-dependent (the
    same naming restriction
    :func:`~repro.engine.planner.fusion_signature` applies), and an
    item named after a column of the scanned table that is not that
    bare column would lose the output-type restoration direct
    execution applies by name (see the module docstring).
    """
    if (
        schema is None
        or query.joins
        or query.having is not None
        or query.order_by
        or query.limit is not None
        or query.distinct
        or not query.is_aggregate
    ):
        return None
    for position, item in enumerate(query.select):
        expr = item.expr
        if isinstance(expr, Star):
            return None
        if item.alias is None and not isinstance(expr, Column):
            return None  # engine-dependent output name; cannot rebuild
        name = item.output_name(position)
        if name in schema and not (
            isinstance(expr, Column) and expr.name == name
        ):
            return None  # restored by name directly, not after a merge
    try:
        plan = plan_query(query)
    except ExecutionError:
        return None
    assert isinstance(plan, AggregatePlan)
    for call in plan.agg_calls:
        if call.distinct:
            return None
    return plan


def concat_partials(
    name: str, column_names: tuple[str, ...], partials: list[ResultSet]
) -> Table:
    """The merge input: every partial's rows concatenated, in order.

    One partial for a combined single pass; one per shard — in shard
    order, which preserves first-occurrence order — for sharded
    execution.
    """
    columns: dict[str, list[object]] = {n: [] for n in column_names}
    for partial in partials:
        for column, values in zip(partial.columns, zip(*partial.rows)):
            columns[column].extend(values)
    return Table.from_columns(name, columns)


def decompose_aggregate(
    call: FuncCall, stem: str
) -> tuple[list[SelectItem], list[str], Expression] | None:
    """The mergeable decomposition of one aggregate call.

    Returns ``(pieces, names, merge_expr)``: the partial SELECT items
    computing the call's decomposed pieces (columns named from
    ``stem``), their names, and the expression that re-aggregates the
    pieces back into the call's value. This is the single home of the
    merge algebra. ``None`` for functions outside the aggregate
    vocabulary.
    """
    if call.name == "AVG":
        sum_name = f"{stem}_sum"
        count_name = f"{stem}_count"
        # ``* 1.0`` forces float division on engines with integer
        # ``/`` (SQLite); SQL NULL propagation makes the all-empty
        # case come out NULL, matching AVG over zero rows.
        merged: Expression = BinaryOp(
            "/",
            BinaryOp(
                "*",
                FuncCall("SUM", (Column(sum_name),)),
                Literal(1.0),
            ),
            FuncCall("SUM", (Column(count_name),)),
        )
        return (
            [
                SelectItem(FuncCall("SUM", call.args), sum_name),
                SelectItem(FuncCall("COUNT", call.args), count_name),
            ],
            [sum_name, count_name],
            merged,
        )
    if call.name in ("COUNT", "SUM"):
        # COUNT partials are never NULL, so SUM-of-counts is the total
        # count; SUM partials skip NULLs partition-locally and SUM of
        # the partials skips all-NULL partitions — both match the
        # one-pass semantics exactly.
        return [SelectItem(call, stem)], [stem], FuncCall(
            "SUM", (Column(stem),)
        )
    if call.name in ("MIN", "MAX"):
        return [SelectItem(call, stem)], [stem], FuncCall(
            call.name, (Column(stem),)
        )
    return None


def _substitute(expr: Expression, mapping: dict[str, Expression]) -> Expression:
    """Replace placeholder columns by name throughout an expression."""
    if isinstance(expr, Column):
        return mapping.get(expr.name, expr)
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _substitute(expr.left, mapping),
            _substitute(expr.right, mapping),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _substitute(expr.operand, mapping))
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            tuple(_substitute(a, mapping) for a in expr.args),
            expr.distinct,
        )
    if isinstance(expr, InList):
        return InList(
            _substitute(expr.expr, mapping),
            tuple(_substitute(v, mapping) for v in expr.values),
            expr.negated,
        )
    if isinstance(expr, Between):
        return Between(
            _substitute(expr.expr, mapping),
            _substitute(expr.low, mapping),
            _substitute(expr.high, mapping),
            expr.negated,
        )
    if isinstance(expr, Like):
        return Like(_substitute(expr.expr, mapping), expr.pattern, expr.negated)
    if isinstance(expr, IsNull):
        return IsNull(_substitute(expr.expr, mapping), expr.negated)
    return expr  # Literals and Star pass through.


def _index_of(items: list[Expression], target: Expression) -> int:
    """First index of an equal expression (equality, not identity)."""
    for i, item in enumerate(items):
        if item == target:
            return i
    raise ValueError(f"expression {target!r} not collected")


def build_multiplan(
    queries: list[Query],
    schema: Schema | None,
    plans: list[AggregatePlan] | None = None,
) -> MultiPlan | None:
    """The partial/merge decomposition of ``queries``, or ``None``.

    ``queries`` are the merged queries of one or more of a scan group's
    fusion classes (identical row sets, distinct GROUP BY keys) over a
    table with ``schema``; ``plans`` may carry their already-computed
    :func:`eligible_plan` results so callers that filtered the classes
    don't plan twice. ``None`` when any fails :func:`eligible_plan`, or
    when the partial relation's column names would collide — the
    callers then keep the one-execution-per-class path.
    """
    if plans is None:
        plans = []
        for query in queries:
            plan = eligible_plan(query, schema)
            if plan is None:
                return None
            plans.append(plan)
    plans_raw = list(zip(queries, plans))

    # The finest grouping: union of every plan's key expressions, in
    # first-encounter order. Bare-column keys keep their own names so
    # output-type restoration (dates, booleans on SQLite) behaves
    # exactly as in direct execution; expression keys get internal
    # names — direct execution never restores their outputs either.
    fine_keys: list[Expression] = []
    for _, plan in plans_raw:
        for key in plan.key_exprs:
            if not any(key == existing for existing in fine_keys):
                fine_keys.append(key)
    key_names = [
        key.name
        if isinstance(key, Column)
        else f"{MULTIPLAN_KEY_PREFIX}{i}"
        for i, key in enumerate(fine_keys)
    ]

    combined_select: list[SelectItem] = [
        SelectItem(key, key_names[i]) for i, key in enumerate(fine_keys)
    ]
    combined_names = list(key_names)

    # Aggregate pieces, deduplicated across plans: two plans asking for
    # SUM(latency) share one partial column. Each call maps to the
    # merge expression that re-aggregates its pieces.
    agg_calls: list[FuncCall] = []
    merge_exprs: list[Expression] = []
    for _, plan in plans_raw:
        for call in plan.agg_calls:
            if any(call == existing for existing in agg_calls):
                continue
            decomposed = decompose_aggregate(
                call, f"{MULTIPLAN_AGG_PREFIX}{len(agg_calls)}"
            )
            if decomposed is None:  # pragma: no cover - exhaustive
                return None
            pieces, names, merged = decomposed
            combined_select += pieces
            combined_names += names
            agg_calls.append(call)
            merge_exprs.append(merged)
    if len(set(combined_names)) != len(combined_names):
        return None  # colliding column names; cannot build the relation

    merges: list[PlanMerge] = []
    for query, plan in plans_raw:
        substitutions: dict[str, Expression] = {}
        for i, key in enumerate(plan.key_exprs):
            fine = _index_of(fine_keys, key)
            substitutions[f"{KEY_PREFIX}{i}"] = Column(key_names[fine])
        for j, call in enumerate(plan.agg_calls):
            substitutions[f"{AGG_PREFIX}{j}"] = merge_exprs[
                _index_of(agg_calls, call)
            ]
        merge_select = tuple(
            SelectItem(
                _substitute(expr, substitutions),
                query.select[position].output_name(position),
            )
            for position, expr in enumerate(plan.item_exprs)
        )
        merge_group_by = tuple(
            Column(key_names[_index_of(fine_keys, key)])
            for key in plan.key_exprs
        )
        merges.append(
            PlanMerge(
                merge_select=merge_select,
                merge_group_by=merge_group_by,
                output_names=tuple(query.output_names()),
            )
        )
    return MultiPlan(
        combined_select=tuple(combined_select),
        combined_group_by=tuple(fine_keys),
        combined_names=tuple(combined_names),
        plans=tuple(merges),
    )


def merge_partials(
    executor, signature, partial, pairs, partials, fetch_share,
    results, produced, stats, tier="multiplan", charged_ms=0.0,
):
    """Answer every (class, merge) pair from one partial's rows.

    ``partials`` (the single unsharded pass, or one per shard in shard
    order) load once as a temp relation built by
    ``partial.partial_table``, and each pair's merge query
    re-aggregates it on the engine. With no rows anywhere the round
    trip is skipped: grouped merges have zero groups, so the empty
    relation is their answer; a *global* merge still owes the engine's
    own one-row result (COUNT = 0, not the NULL a merge over an empty
    relation would produce), so it executes directly — over zero
    qualifying rows. ``charged_ms`` is partial time already charged to
    each pair's class. The single merge step of :func:`run_multiplan`
    and of every sharded run (:mod:`repro.sharding.executor`).
    """
    engine = executor.engine
    if not any(p.rows for p in partials):
        for cls, merge in pairs:
            if merge.is_global:
                direct = engine.execute_timed(cls.merged_query())
                stats.base_scans += 1
                executor._distribute(
                    cls, direct.result, charged_ms + direct.duration_ms,
                    0.0, results, produced, tier=tier,
                )
            else:
                executor._distribute(
                    cls, merge.empty_result(), charged_ms, fetch_share,
                    results, produced, tier=tier,
                )
        return
    relation = unique_temp_name(signature.table, signature.predicate_key)
    engine.load_table(partial.partial_table(relation, partials))
    try:
        for cls, merge in pairs:
            timed = engine.execute_timed(merge.merge_query(relation))
            executor._distribute(
                cls, timed.result, charged_ms + timed.duration_ms,
                fetch_share, results, produced, tier=tier,
            )
    finally:
        try:
            engine.unload_table(relation)
        except ExecutionError:
            pass  # engine keeps the temp; next load replaces it


def run_multiplan(executor, signature, classes, results, stats, produced):
    """Answer a group's eligible classes with one combined pass.

    Called by :meth:`BatchExecutor._run_group
    <repro.engine.batch.BatchExecutor>` for an *unfiltered* scan group
    (``executor`` is duck-typed to avoid a cyclic import). Executes the
    combined query directly against the base table — one base scan for
    every eligible fusion class — then derives each class's result with
    a merge query over the loaded partial relation, distributing into
    ``results``/``produced`` exactly like a shared scan. Returns the
    classes it did **not** cover (ineligible shapes, or all of them
    when fewer than two are eligible or no combined plan exists), which
    the caller executes on the pre-existing per-class path.
    """
    schema = executor.engine.table_schema(signature.table)
    eligible = []
    rest = []
    queries: list[Query] = []
    class_plans = []
    for cls in classes:
        query = cls.merged_query()
        class_plan = eligible_plan(query, schema)
        if class_plan is None:
            rest.append(cls)
            continue
        eligible.append(cls)
        queries.append(query)
        class_plans.append(class_plan)
    if len(eligible) < 2:
        return classes
    plan = build_multiplan(queries, schema, plans=class_plans)
    if plan is None:
        return classes

    tracer = _trace.ACTIVE
    cm = (
        _NULL
        if tracer is None
        else tracer.span(
            "multiplan_pass",
            table=signature.table,
            classes=len(eligible),
            members=sum(len(cls.members) for cls in eligible),
        )
    )
    with cm as span:
        timed = executor.engine.execute_timed(
            plan.combined_query(signature.table)
        )
        stats.base_scans += 1
        stats.multiplan_groups += 1
        stats.multiplan_plans += len(eligible)
        member_count = sum(len(cls.members) for cls in eligible)
        fetch_share = timed.duration_ms / member_count
        if span is not None:
            span.attrs["combined_ms"] = round(timed.duration_ms, 3)
        merge_partials(
            executor, signature, plan, list(zip(eligible, plan.plans)),
            [timed.result], fetch_share, results, produced, stats,
        )
    return rest


__all__ = [
    "MULTIPLAN_AGG_PREFIX",
    "MULTIPLAN_KEY_PREFIX",
    "MultiPlan",
    "PlanMerge",
    "build_multiplan",
    "concat_partials",
    "decompose_aggregate",
    "eligible_plan",
    "merge_partials",
    "run_multiplan",
]
