"""Single-pass multi-plan evaluation of one scan group (grouping sets).

The shared-scan optimizer (:mod:`repro.engine.batch`) already collapses
a dashboard refresh into one base scan per *fusion class* — queries
with identical GROUP BY keys merge into one execution. The initial
render is the degenerate case that layer cannot help: no WHERE clause,
so there is no filter to share, and every visualization groups by a
different key — N fusion classes, N full-table scans. This module
removes that last N with the classic grouping-sets decomposition:

1. **Combined pass.** One engine query computes the *finest* grouping —
   GROUP BY the union of every plan's key expressions — with every
   requested aggregate decomposed into mergeable pieces (AVG becomes
   SUM + COUNT; COUNT/SUM/MIN/MAX pass through). One scan of the data,
   whatever the engine: SQLite evaluates a single grouped SELECT (its
   one-pass sorter/accumulator — grouping-set emulation without the
   syntax), and each pure-Python store makes a single column/row
   traversal feeding one accumulator map keyed by the combined keys.
2. **Per-plan merge.** The finest partial rows load as a temporary
   relation (``TEMP_PREFIX``-named, cache-exempt) and each plan's
   result is derived by one *merge* query over it — re-aggregating the
   plan's own key subset with the rollup merge algebra COUNT/SUM
   partials via SUM, MIN/MAX via themselves, AVG as
   ``SUM(sums) * 1.0 / SUM(counts)``. The merge runs *on the engine*,
   so arithmetic promotion, NULL handling, group ordering, and output
   naming are the engine's own.

Why each merged result is byte-identical to running the plan alone:

- **Rows.** The finest grouping partitions exactly the scanned rows;
  re-aggregating a key subset sees every row's contribution once.
- **Order.** Engines order GROUP BY output either by key value
  (SQLite's sorter, matstore's sort-based grouping, vectorstore's
  ``np.unique`` path) — reproduced because the merge re-groups on the
  same engine — or by first occurrence in scan order (rowstore's dict,
  vectorstore's hash loop), which the finest partial *preserves*: a
  plan key value's first containing partial row sits at the position
  of the finest group that first saw it, which is the position of the
  value's first base row. First occurrences over the partial relation
  therefore replay first occurrences over the base table.
- **Values, types, names.** Group-key columns keep their base names
  through the partial relation (the SQLite wrapper restores temporal /
  boolean output types by schema lookup, exactly as in direct
  execution); aggregate pieces carry internal ``__mp*`` names that no
  restoration applies to — matching direct execution, where aliased
  aggregate outputs are not schema columns either.

Exactness boundary (shared with the sharded rollup,
:class:`~repro.engine.batch.AggregateRollup`): the merge re-associates
floating-point addition — per-fine-group sums are rounded before the
final SUM — so SUM/AVG over arbitrary FLOAT columns agree with direct
execution to IEEE-754 rounding, and are byte-identical for
INTEGER/BOOLEAN columns and dyadic-rational floats. It also shares the
rollup's naming boundary: an aggregate aliased to a base column's name
(``MAX(day) AS day``) would skip the SQLite type restoration direct
execution performs; dashboard workloads never alias aggregates to data
columns, and group keys — the paper's temporal axes — are handled
exactly.

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
  under the epoch captured before any engine work, so a table
  invalidated mid-compute drops the store instead of caching vanished
  data.

:class:`MultiPlan` itself is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.batch import (
    _NULL,
    _substitute,
    concat_partials,
    decompose_aggregate,
    eligible_plan,
    unique_temp_name,
)
from repro.engine.interface import ResultSet
from repro.engine.planner import AGG_PREFIX, KEY_PREFIX, AggregatePlan
from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.sql.ast import (
    Column,
    Expression,
    FuncCall,
    Query,
    SelectItem,
    TableRef,
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

    Built by :func:`build_multiplan` from the merged queries of two or
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
        rewrite the shared scan and the rollup use).
        """
        return Query(
            select=self.combined_select,
            from_table=TableRef(relation, alias=alias),
            group_by=self.combined_group_by,
        )

    def partial_query(self, relation: str, base_table: str) -> Query:
        """The combined pass over one shard's temp, aliased to the base.

        The per-shard query a sharded run sends, with the same
        signature as :meth:`AggregateRollup.partial_query
        <repro.engine.batch.AggregateRollup.partial_query>`.
        """
        return self.combined_query(relation, alias=base_table)

    def partial_table(self, name: str, partials: list[ResultSet]) -> Table:
        """The merge input: every partial's rows, in input order.

        One element for the unsharded single pass; one per shard — in
        shard order, which preserves first-occurrence order — for
        sharded execution.
        """
        return concat_partials(name, self.combined_names, partials)


def _index_of(items: list[Expression], target: Expression) -> int:
    """First index of an equal expression (equality, not identity)."""
    for i, item in enumerate(items):
        if item == target:
            return i
    raise ValueError(f"expression {target!r} not collected")


def build_multiplan(
    queries: list[Query],
    plans: list[AggregatePlan] | None = None,
) -> MultiPlan | None:
    """The combined-pass decomposition of ``queries``, or ``None``.

    ``queries`` are the merged queries of a scan group's fusion classes
    (identical row sets, distinct GROUP BY keys); ``plans`` may carry
    their already-computed :func:`eligible_plan` results so callers
    that filtered the classes don't plan twice. ``None`` when fewer
    than two are given, when any fails :func:`eligible_plan`, or when
    the combined partial relation's column names would collide — the
    callers then keep the pre-existing one-execution-per-class path.
    """
    if len(queries) < 2:
        return None
    if plans is None:
        plans = []
        for query in queries:
            plan = eligible_plan(query)
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
    # merge expression that re-aggregates its pieces; the decomposition
    # itself is the fusion layer's
    # (:func:`~repro.engine.batch.decompose_aggregate`), so the merge
    # algebra cannot drift from the sharded rollup's.
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
    when no combined plan exists), which the caller executes on the
    pre-existing per-class path.
    """
    eligible = []
    rest = []
    queries: list[Query] = []
    class_plans = []
    for cls in classes:
        query = cls.merged_query()
        class_plan = eligible_plan(query)
        if class_plan is None:
            rest.append(cls)
            continue
        eligible.append(cls)
        queries.append(query)
        class_plans.append(class_plan)
    if len(eligible) < 2:
        return classes
    plan = build_multiplan(queries, plans=class_plans)
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
    "eligible_plan",
    "merge_partials",
    "run_multiplan",
]
