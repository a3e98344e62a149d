"""Shared-scan batch query execution (multi-query optimization).

A dashboard refresh emits a bundle of queries that overlap heavily: same
base table, same AND-ed widget filters, different group-bys and
aggregates (paper §3.0.3). Executing them independently repeats the most
expensive work — the filtered table scan — once per component. This
module merges a refresh into a handful of shared scans:

1. **Grouping.** Queries are grouped by scan signature — (table,
   normalized filter predicate) — via
   :func:`repro.engine.planner.scan_signature`.
2. **Fusion.** Within a group, queries with identical GROUP BY keys
   (:func:`repro.engine.planner.fusion_signature`) are fused into one
   merged query that computes every requested aggregate in a single
   pass; the combined result is sliced back column-wise.
3. **Shared scan.** When a group still holds several fused executions
   and carries a filter, the filter runs once (``SELECT * … WHERE …``),
   the qualifying rows are materialized as a temporary engine-resident
   relation in base-table order, and each fused query runs over it with
   its WHERE stripped. Filtering commutes with grouping, ordering, and
   limiting, so a deterministic engine returns byte-identical results.

4. **Multi-plan evaluation** (``multiplan=True``). An *unfiltered*
   group — the initial dashboard render — has no filter to share, so
   steps 1–3 still pay one base scan per fusion class. The evaluator
   in :mod:`repro.engine.multiplan` computes every class's group-by in
   a single pass: one combined query GROUPs BY the union of all key
   expressions with decomposed aggregates, then one small merge query
   per class derives its exact result from the combined rows. Off by
   default, like every optimizer tier here. The same module plans the
   per-shard partials of sharded execution (:mod:`repro.sharding`) and
   states the exactness and ordering argument every partial/merge
   path relies on.

Correctness needs no engine cooperation beyond determinism: every
member query is still *executed by the engine itself*, merely over a
pre-filtered, order-preserving relation. The property tests in
``tests/test_engine_batch.py`` assert byte-identical results against
sequential execution across all engines.

Caveat: engines whose physical plan depends on the SELECT list (e.g. a
covering secondary index) could order fused output differently. The
benchmark's default setup applies no indexing (§6.2.2); batch execution
follows it.

Thread-safety contract (established in the concurrency layer, relied on
here): a bare :class:`BatchExecutor` guards its own shared mutable
state — the cumulative stats and the key memo are mutex-protected, so
an executor shared across threads corrupts neither (the *engine* it
drives must still tolerate the calls; see
:attr:`~repro.engine.interface.Engine.thread_safe`). The concurrent
subclass (:class:`~repro.concurrency.executor.ScanGroupExecutor`)
serializes every call into a non-thread-safe engine through that
engine's per-instance :func:`~repro.concurrency.policy.execution_slot`,
and relies on three invariants this module maintains:

- **Unique temp names** (:func:`unique_temp_name`): two executions of
  the same (table, filter) group overlapping on one engine can never
  replace or drop each other's shared-scan relation.
- **Generation-keyed cache entries**: the table's generation is read
  *before* any engine work and keys both the lookup and the ``store``
  — a result computed against data reloaded mid-group is dropped
  instead of cached (the "lost invalidation" race).
- **Leaf-granular engine calls**: no lock is held across an engine
  call, so a call that blocks on another thread's single-flight leader
  cannot deadlock against that leader's engine slot.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass

from repro.engine.interface import Engine, QueryResult, ResultSet
from repro.engine.planner import (
    ScanSignature,
    fusion_signature,
    scan_signature,
)
from repro.engine.table import Schema, Table
from repro.errors import ExecutionError
from repro.sql.ast import (
    Query,
    SelectItem,
    Star,
    TableRef,
    replace_query,
)
from repro.sql.formatter import format_query
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

#: Shared no-op context manager for the telemetry-off path: ``with
#: _NULL as span:`` binds ``span = None`` and allocates nothing, so
#: per-group instrumentation stays free when tracing is disabled.
#: ``nullcontext`` is stateless, hence safely re-entered concurrently.
_NULL = nullcontext()

#: Name prefix of the temporary relations materialized for shared scans.
#: The result cache recognizes it to exempt them from invalidation.
TEMP_PREFIX = "__batchscan_"


def temp_table_name(table: str, predicate_key: str) -> str:
    """Deterministic temp-relation name stem for one (table, filter) group."""
    digest = hashlib.sha1(predicate_key.encode("utf-8")).hexdigest()[:10]
    return f"{TEMP_PREFIX}{table}_{digest}"


#: Uniquifies each shared-scan materialization's relation name, so two
#: executions of the same (table, filter) group overlapping on one
#: engine — concurrent refreshes sharing a store — can never replace or
#: drop each other's temp mid-group. Names keep the TEMP_PREFIX, which
#: is all the cache-exemption and scan-counting logic keys on.
_TEMP_SEQUENCE = itertools.count()


def unique_temp_name(table: str, predicate_key: str) -> str:
    """A never-repeating temp-relation name for one (table, filter) scan.

    Appends a process-wide sequence number to the deterministic stem so
    overlapping executions on one engine cannot collide; the name keeps
    :data:`TEMP_PREFIX`, which is all the cache-exemption and
    scan-counting logic keys on.
    """
    return f"{temp_table_name(table, predicate_key)}_{next(_TEMP_SEQUENCE)}"


@dataclass(frozen=True)
class BatchItem:
    """One query of a batch, tagged with its request position."""

    index: int
    query: Query
    sql: str  # canonical text: stable cache key and log string


@dataclass
class ScanGroup:
    """Queries sharing one (table, normalized predicate) scan.

    ``signature is None`` marks queries the optimizer cannot share
    (joins); they execute directly, exactly as in sequential mode.
    """

    signature: ScanSignature | None
    members: list[BatchItem]


@dataclass
class BatchStats:
    """What one (or more) batch executions did, for the benchmarks.

    ``base_scans`` counts engine executions *issued* against a base
    table — the quantity sequential execution pays once per query
    (``sequential_scans``). Executions against the temporary filtered
    relations are not base scans: they read only the rows the shared
    scan already qualified. When the fallback engine is itself a cache,
    some issued executions may be answered without touching data, so
    this is an upper bound; benchmarks count true scans at the engine
    boundary with :class:`repro.engine.instrument.CountingEngine`.
    """

    queries: int = 0
    groups: int = 0
    base_scans: int = 0
    shared_scans: int = 0  # temp materializations performed
    fused_queries: int = 0  # queries answered by a merged execution
    cache_hits: int = 0  # queries served from a scan-group cache
    fallbacks: int = 0  # queries executed unbatched (joins etc.)
    sharded_groups: int = 0  # groups executed as per-shard tasks
    shard_scans: int = 0  # per-shard base-range materializations
    multiplan_groups: int = 0  # groups answered by one combined pass
    multiplan_plans: int = 0  # fusion classes folded into combined passes
    proc_shard_scans: int = 0  # shard scans executed in worker processes

    @property
    def sequential_scans(self) -> int:
        """Base scans sequential execution would have performed."""
        return self.queries

    def merge(self, other: "BatchStats") -> None:
        self.queries += other.queries
        self.groups += other.groups
        self.base_scans += other.base_scans
        self.shared_scans += other.shared_scans
        self.fused_queries += other.fused_queries
        self.cache_hits += other.cache_hits
        self.fallbacks += other.fallbacks
        self.sharded_groups += other.sharded_groups
        self.shard_scans += other.shard_scans
        self.multiplan_groups += other.multiplan_groups
        self.multiplan_plans += other.multiplan_plans
        self.proc_shard_scans += other.proc_shard_scans


@dataclass
class BatchResult:
    """Positionally aligned results of one batch execution."""

    results: list[QueryResult]
    stats: BatchStats


def _query_keys(query: Query) -> tuple[str, ScanSignature | None]:
    """(canonical SQL, scan signature) for one query."""
    return format_query(query), scan_signature(query)


def group_queries(
    queries: list[Query],
    key_fn=_query_keys,
) -> list[ScanGroup]:
    """Partition a batch by scan signature, preserving encounter order."""
    groups: dict[tuple[str, str], ScanGroup] = {}
    ordered: list[ScanGroup] = []
    for index, query in enumerate(queries):
        sql, signature = key_fn(query)
        item = BatchItem(index, query, sql)
        if signature is None:
            ordered.append(ScanGroup(None, [item]))
            continue
        key = (signature.table, signature.predicate_key)
        group = groups.get(key)
        if group is None:
            group = ScanGroup(signature, [])
            groups[key] = group
            ordered.append(group)
        group.members.append(item)
    return ordered


class _FusionClass:
    """Queries fusable into one merged execution (same scan, same keys).

    The merged SELECT list is the deduplicated concatenation of the
    members' lists, keyed by (expression, output name) so each member's
    result — values *and* column names — can be sliced back unchanged.
    """

    def __init__(self, template: Query) -> None:
        self._template = template
        self.members: list[BatchItem] = []
        self._items: list[SelectItem] = []
        self._positions: dict[tuple[object, str], int] = {}
        self.slices: list[list[int]] = []

    def add(self, item: BatchItem) -> None:
        columns: list[int] = []
        for i, sel in enumerate(item.query.select):
            key = (sel.expr, sel.output_name(i))
            position = self._positions.get(key)
            if position is None:
                position = len(self._items)
                self._positions[key] = position
                self._items.append(sel)
            columns.append(position)
        self.members.append(item)
        self.slices.append(columns)

    def merged_query(self) -> Query:
        if len(self.members) == 1:
            return self.members[0].query
        return replace_query(self._template, select=tuple(self._items))

    def slice_result(self, position: int, merged: ResultSet) -> ResultSet:
        """Project one member's columns back out of the merged result."""
        member = self.members[position]
        if len(self.members) == 1:
            return merged
        columns = self.slices[position]
        rows = [tuple(row[j] for j in columns) for row in merged.rows]
        return ResultSet(member.query.output_names(), rows)


def fuse_members(members: list[BatchItem]) -> list[_FusionClass]:
    """Partition one scan group's members into fusion classes."""
    classes: dict[tuple, _FusionClass] = {}
    ordered: list[_FusionClass] = []
    for item in members:
        signature = fusion_signature(item.query)
        if signature is None:
            solo = _FusionClass(item.query)
            solo.add(item)
            ordered.append(solo)
            continue
        cls = classes.get(signature)
        if cls is None:
            cls = _FusionClass(item.query)
            classes[signature] = cls
            ordered.append(cls)
        cls.add(item)
    return ordered


class BatchExecutor:
    """Executes query batches through the shared-scan optimizer.

    Results are byte-identical to calling ``engine.execute_timed`` per
    query. With a :class:`~repro.engine.cache.ScanGroupCache`, whole
    scan groups are cached and served without touching the engine until
    the underlying table mutates.
    """

    def __init__(
        self,
        engine: Engine,
        policy=None,
        *,
        group_cache=None,
        fallback_engine: Engine | None = None,
    ) -> None:
        from repro.errors import ConfigError
        from repro.execution import coerce_policy

        policy = coerce_policy(policy)
        if not policy.batch:
            raise ConfigError(
                "BatchExecutor is the shared-scan path; a batch=False "
                "policy belongs on Engine.execute_batch, which routes "
                "it to per-query execution"
            )
        self.engine = engine
        self.group_cache = group_cache
        #: The executor's execution policy. Plain ``BatchExecutor``
        #: consumes only ``multiplan`` — an unfiltered group's fusion
        #: classes evaluate in one combined pass
        #: (:mod:`repro.engine.multiplan`); ``False`` (the default) is
        #: the exact pre-multiplan path. The concurrency subclass
        #: (:class:`~repro.concurrency.executor.ScanGroupExecutor`)
        #: schedules ``workers`` and ``shards`` too.
        self.policy = policy
        #: The caller-facing engine: unbatchable queries (joins,
        #: aliased FROM) execute here, and results are stamped with its
        #: name. A caching wrapper passes itself so fallbacks keep the
        #: per-query cache while shared scans bypass it.
        self.fallback_engine = fallback_engine or engine
        #: Cumulative stats across every ``run`` on this executor.
        self.stats = BatchStats()
        # Guards the two pieces of cross-run shared state below — the
        # cumulative stats and the key memo — so a bare executor shared
        # across threads never merges lossily or corrupts the memo's
        # OrderedDict reordering. Leaf-granular: never held across an
        # engine call.
        # repro: allow(RA106) — data-structure guard, not parallelism;
        # the executor owns no threads (pools live in concurrency/).
        self._state_lock = threading.Lock()
        # Dashboard refreshes rebuild equal ASTs every time; Query is a
        # frozen dataclass, so a bounded per-executor memo lets the
        # fully-cached refresh path skip re-formatting/re-normalizing
        # each query. Instance-scoped so retention ends with the engine.
        self._key_memo: "OrderedDict[Query, tuple[str, ScanSignature | None]]" = (
            OrderedDict()
        )

    def run(self, queries: list[Query]) -> BatchResult:
        """Execute one batch; results align positionally with input."""
        stats = BatchStats(queries=len(queries))
        results: list[QueryResult | None] = [None] * len(queries)
        groups = group_queries(list(queries), key_fn=self._memoized_keys)
        stats.groups = len(groups)
        tracer = _trace.ACTIVE
        for group in groups:
            if group.signature is None:
                self._run_fallback(group, results, stats)
            elif tracer is not None:
                with tracer.span(
                    "scan_group",
                    table=group.signature.table,
                    group_key=group.signature.predicate_key,
                    members=len(group.members),
                ):
                    self._run_group(group, results, stats)
            else:
                self._run_group(group, results, stats)
        return self._finish(results, stats)

    # -- internals ----------------------------------------------------------

    def _finish(
        self, results: list[QueryResult | None], stats: BatchStats
    ) -> BatchResult:
        """Close one batch: check alignment, then account its stats."""
        if any(r is None for r in results):
            # Positional alignment is the API contract; a hole here
            # must fail loudly, never compact silently.
            raise ExecutionError("batch execution left a query unanswered")
        with self._state_lock:
            self.stats.merge(stats)
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.record_batch(stats)
        return BatchResult(list(results), stats)

    def _memoized_keys(self, query: Query) -> tuple[str, ScanSignature | None]:
        try:
            with self._state_lock:
                keys = self._key_memo.get(query)
        except TypeError:  # unhashable literal somewhere in the AST
            return _query_keys(query)
        if keys is None:
            keys = _query_keys(query)  # computed outside the lock
            with self._state_lock:
                self._key_memo[query] = keys
                if len(self._key_memo) > 1024:
                    self._key_memo.popitem(last=False)
        return keys

    def _run_fallback(
        self,
        group: ScanGroup,
        results: list[QueryResult | None],
        stats: BatchStats,
    ) -> None:
        """Execute an unbatchable group's members one by one."""
        tracer = _trace.ACTIVE
        for item in group.members:
            if tracer is None:
                results[item.index] = self.fallback_engine.execute_timed(
                    item.query
                )
            else:
                # Tag before delegating: a cache hit inside the
                # fallback engine overrides with "cache".
                tracer.tag_query(item.sql, "fallback")
                with tracer.span("fallback", sql=item.sql):
                    results[item.index] = (
                        self.fallback_engine.execute_timed(item.query)
                    )
            stats.fallbacks += 1
            stats.base_scans += 1

    def _run_group(
        self,
        group: ScanGroup,
        results: list[QueryResult | None],
        stats: BatchStats,
        multiplan: bool | None = None,
    ) -> None:
        signature = group.signature
        assert signature is not None
        pending = group.members
        epoch = None
        if self.group_cache is not None:
            # Read before any engine work: if the table is reloaded
            # while this group computes, the store below is dropped.
            epoch = self.group_cache.epoch(signature.table)
            pending = self._serve_cached(
                signature, epoch, pending, results, stats
            )
            if not pending:
                return
        classes = fuse_members(pending)
        stats.fused_queries += len(pending) - len(classes)
        predicate = pending[0].query.where
        produced: dict[str, ResultSet] = {}
        shared = False
        combine = self.policy.multiplan if multiplan is None else multiplan
        if combine and predicate is None and len(classes) > 1:
            # Multi-plan tier: an unfiltered group has no filter to
            # share, so its eligible fusion classes evaluate together
            # in one combined pass; ineligible shapes come back and
            # run per class below.
            from repro.engine.multiplan import run_multiplan

            classes = run_multiplan(
                self, signature, classes, results, stats, produced
            )
        if predicate is not None and len(classes) > 1:
            shared = self._run_shared(
                signature, classes, results, stats, produced
            )
        if not shared:
            tracer = _trace.ACTIVE
            for cls in classes:
                # A solo class runs the caller's SQL verbatim, so it may
                # go through the caller-facing engine (and its caches);
                # merged queries' SQL is internal and must bypass them.
                target = (
                    self.fallback_engine
                    if len(cls.members) == 1
                    else self.engine
                )
                if tracer is not None:
                    # Tag before delegating: a per-query cache hit
                    # inside the fallback engine overrides with "cache".
                    for item in cls.members:
                        tracer.tag_query(item.sql, "shared_scan")
                timed = target.execute_timed(cls.merged_query())
                stats.base_scans += 1
                self._distribute(cls, timed.result, timed.duration_ms, 0.0,
                                 results, produced, tier=None)
        if self.group_cache is not None and produced:
            self.group_cache.store(
                signature.table, signature.predicate_key, produced,
                epoch=epoch,
            )

    def _run_shared(
        self,
        signature: ScanSignature,
        classes: list[_FusionClass],
        results: list[QueryResult | None],
        stats: BatchStats,
        produced: dict[str, ResultSet],
    ) -> bool:
        """One base scan, then every fused query over the filtered rows.

        Returns ``False`` (nothing executed) when the engine can
        neither materialize the filtered relation natively nor expose
        the base schema for the generic fetch-and-load fallback.
        """
        predicate = classes[0].members[0].query.where
        name = unique_temp_name(signature.table, signature.predicate_key)
        tracer = _trace.ACTIVE
        member_count = sum(len(c.members) for c in classes)
        cm = (
            _NULL
            if tracer is None
            else tracer.span(
                "shared_scan",
                table=signature.table,
                classes=len(classes),
                members=member_count,
            )
        )
        with cm as span:
            start = time.perf_counter()
            if not self.engine.materialize_filtered(
                name, signature.table, predicate
            ):
                schema = self.engine.table_schema(signature.table)
                if schema is None:
                    return False
                fetch = Query(
                    select=(SelectItem(Star()),),
                    from_table=TableRef(signature.table),
                    where=predicate,
                )
                fetched = self.engine.execute(fetch)
                self.engine.load_table(_materialize(name, schema, fetched))
            scan_ms = (time.perf_counter() - start) * 1000.0
            if span is not None:
                span.attrs["scan_ms"] = round(scan_ms, 3)
            stats.base_scans += 1
            stats.shared_scans += 1
            fetch_share = scan_ms / member_count
            try:
                for cls in classes:
                    # Alias the temp back to the base name so queries with
                    # table-qualified columns (``events.q``) keep resolving.
                    rewritten = replace_query(
                        cls.merged_query(),
                        from_table=TableRef(name, alias=signature.table),
                        where=None,
                    )
                    timed = self.engine.execute_timed(rewritten)
                    self._distribute(
                        cls, timed.result, timed.duration_ms, fetch_share,
                        results, produced,
                    )
            finally:
                try:
                    self.engine.unload_table(name)
                except ExecutionError:
                    pass  # engine keeps the temp; next load replaces it
        return True

    def _distribute(
        self,
        cls: _FusionClass,
        merged: ResultSet,
        duration_ms: float,
        extra_share_ms: float,
        results: list[QueryResult | None],
        produced: dict[str, ResultSet],
        tier: str | None = "shared_scan",
    ) -> None:
        """Slice a class execution back into per-query timed results.

        ``tier`` is the explain attribution stamped on every member
        (the single choke point each optimizer path routes through);
        ``None`` means the caller already tagged — used where tagging
        must happen *before* delegating to a possibly-caching engine.
        """
        tracer = _trace.ACTIVE
        share = duration_ms / len(cls.members)
        for position, item in enumerate(cls.members):
            if tracer is not None and tier is not None:
                tracer.tag_query(item.sql, tier)
            sliced = cls.slice_result(position, merged)
            # The group cache copies on store, and rows are immutable
            # tuples, so handing the same ResultSet to both is safe.
            produced[item.sql] = sliced
            results[item.index] = QueryResult(
                result=sliced,
                duration_ms=share + extra_share_ms,
                engine=self.fallback_engine.name,
                sql=item.sql,
            )

    def _serve_cached(
        self,
        signature: ScanSignature,
        epoch: int | None,
        members: list[BatchItem],
        results: list[QueryResult | None],
        stats: BatchStats,
    ) -> list[BatchItem]:
        """Answer members cached at generation ``epoch``; return the rest."""
        tracer = _trace.ACTIVE
        cm = (
            _NULL
            if tracer is None
            else tracer.span(
                "cache_lookup", table=signature.table, members=len(members)
            )
        )
        with cm as span:
            cached = self.group_cache.lookup(
                signature.table, signature.predicate_key, epoch
            )
            pending: list[BatchItem] = []
            for item in members:
                hit = cached.get(item.sql)
                if hit is None:
                    pending.append(item)
                    continue
                if tracer is not None:
                    tracer.tag_query(item.sql, "cache")
                start = time.perf_counter()
                copy = ResultSet(hit.columns, hit.rows)
                duration_ms = (time.perf_counter() - start) * 1000.0
                results[item.index] = QueryResult(
                    result=copy,
                    duration_ms=duration_ms,
                    engine=self.fallback_engine.name,
                    sql=item.sql,
                )
                stats.cache_hits += 1
            if span is not None:
                span.attrs["hits"] = len(members) - len(pending)
        return pending


def _materialize(name: str, schema: Schema, fetched: ResultSet) -> Table:
    """Build the temp relation from a ``SELECT *`` result, typed like base."""
    positions = {column: i for i, column in enumerate(fetched.columns)}
    columns = {
        column: [row[positions[column]] for row in fetched.rows]
        for column in schema.names
    }
    return Table(name, schema, columns)


__all__ = [
    "BatchExecutor",
    "BatchItem",
    "BatchResult",
    "BatchStats",
    "ScanGroup",
    "TEMP_PREFIX",
    "fuse_members",
    "group_queries",
    "temp_table_name",
    "unique_temp_name",
]
