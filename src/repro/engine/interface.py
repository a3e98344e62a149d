"""Engine interface and result representation.

Every engine implements :class:`Engine`: load tables, execute a
:class:`~repro.sql.ast.Query`, return a :class:`ResultSet`. Timing is
captured by :meth:`Engine.execute_timed`, which is what the benchmark
harness calls — query duration is the paper's primary metric (§6.2.5).
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass, field

from repro.engine.table import Database, Schema, Table
from repro.sql.ast import Query
from repro.telemetry import metrics as _metrics


class ResultSet:
    """An ordered relation: column names plus rows of Python values."""

    def __init__(self, columns: list[str], rows: list[tuple[object, ...]]) -> None:
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def column(self, name: str) -> list[object]:
        """Values of one column, in row order."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; available: {self.columns}"
            ) from None
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def cell_set(self, precision: int = 9) -> frozenset[tuple[str, object]]:
        """Set of (column, normalized value) cells.

        The result-equivalence checker uses this to test whether one
        result is *covered* by another regardless of row/column order
        (§4.1.2 "Result Equivalence").
        """
        cells: set[tuple[str, object]] = set()
        for row in self.rows:
            for name, value in zip(self.columns, row):
                cells.add((name, normalize_value(value, precision)))
        return frozenset(cells)

    def row_set(self, precision: int = 9) -> frozenset[tuple[object, ...]]:
        """Order-insensitive multiset-free view of rows (set semantics)."""
        return frozenset(
            tuple(normalize_value(v, precision) for v in row)
            for row in self.rows
        )

    def sorted_rows(self, precision: int = 9) -> list[tuple[object, ...]]:
        """Rows normalized and deterministically sorted (for comparisons)."""
        from repro.engine.types import sort_key

        normalized = [
            tuple(normalize_value(v, precision) for v in row)
            for row in self.rows
        ]
        return sorted(normalized, key=lambda r: tuple(sort_key(v) for v in r))

    def __repr__(self) -> str:
        return f"ResultSet({self.columns}, {len(self.rows)} rows)"


def normalize_value(value: object, precision: int = 9) -> object:
    """Normalize a cell value for cross-engine comparison.

    Floats are rounded (and integral floats become ints) so that e.g.
    SQLite's ``2.0`` equals the row store's ``2``. NaN becomes ``None``.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if math.isnan(value):
            return None
        rounded = round(value, precision)
        if rounded == int(rounded) and abs(rounded) < 1e15:
            return int(rounded)
        return rounded
    return value


@dataclass
class QueryResult:
    """A result set plus execution metadata, the harness's unit of record."""

    result: ResultSet
    duration_ms: float
    engine: str
    sql: str
    rows_returned: int = field(init=False)

    def __post_init__(self) -> None:
        self.rows_returned = len(self.result)


class Engine(abc.ABC):
    """Abstract DBMS wrapper."""

    #: Short identifier used in configs, logs, and reports.
    name: str = "abstract"

    #: Whether :meth:`create_index` is implemented. The paper's setup
    #: applies no indexing (§6.2.2); engines that support it make that
    #: choice ablatable.
    supports_indexes: bool = False

    #: Whether the engine may be invoked from multiple threads
    #: concurrently without corruption. Callers must serialize access
    #: to engines that leave this ``False`` (see
    #: :func:`repro.concurrency.policy.execution_slot`).
    thread_safe: bool = False

    #: Whether concurrent invocations overlap actual compute (e.g. the
    #: engine releases the GIL). Drives the scan-group executor's
    #: decision to schedule an engine's groups in parallel rather than
    #: as a serialized queue.
    parallel_scans: bool = False

    #: Whether the engine can export table snapshots for process-backed
    #: shard execution (:mod:`repro.concurrency.procpool`). Engines
    #: that advertise this must also implement :meth:`table_version`
    #: and set :attr:`process_shard_mode`.
    supports_process_shards: bool = False

    #: How the engine's tables travel to worker processes: ``"shm"``
    #: (column arrays in shared-memory segments, sliced zero-copy per
    #: shard), ``"pickle"`` (whole-column pickle blob — the documented
    #: slow path for engines whose execution depends on exact Python
    #: object arithmetic), or ``"file"`` (a database snapshot file the
    #: workers reopen). ``None`` when process shards are unsupported.
    process_shard_mode: str | None = None

    @abc.abstractmethod
    def load_table(self, table: Table) -> None:
        """Register (or replace) a table in the engine."""

    def create_index(self, table: str, column: str) -> None:
        """Build a secondary index on ``table.column``.

        Engines advertise support via :attr:`supports_indexes`; the
        default implementation refuses rather than silently ignoring
        the request.
        """
        from repro.errors import ExecutionError

        raise ExecutionError(
            f"engine {self.name!r} does not support secondary indexes"
        )

    def unload_table(self, name: str) -> None:
        """Drop a previously loaded table.

        The batch executor uses this to discard the temporary filtered
        relations it materializes for shared scans. Engines that cannot
        drop tables refuse; the executor then leaves the temp relation
        in place (a later shared scan of the same group replaces it,
        but distinct filters accumulate), so engines that implement
        :meth:`load_table` should implement this too.
        """
        from repro.errors import ExecutionError

        raise ExecutionError(
            f"engine {self.name!r} does not support unloading tables"
        )

    def materialize_filtered(
        self, name, source: str, predicate, row_range=None
    ) -> bool:
        """Materialize ``source`` rows satisfying ``predicate`` as ``name``.

        The shared-scan fast path: engines that can filter internally
        (SQLite via ``CREATE TABLE AS``, the pure-Python stores via
        column slicing) build the temporary relation without shuttling
        rows through Python, preserving base-table row order. Returns
        ``False`` when unsupported; the batch executor then falls back
        to ``SELECT * … WHERE …`` plus :meth:`load_table`.

        ``row_range`` makes the scan shard-aware: a ``(start, stop)``
        pair restricts it to that half-open range of base row
        positions, so each shard's scan reads only its slice
        (:mod:`repro.sharding`). ``predicate`` may be ``None`` when a
        range is given (an unfiltered shard). Engines that report a
        row count from :meth:`table_row_count` MUST honor
        ``row_range`` — the sharded executor gates on that contract.
        """
        return False

    def table_row_count(self, name: str) -> int | None:
        """Row count of a loaded table, or ``None`` when unknown.

        The sharded executor partitions tables by row range and needs
        the extent up front. Returning ``None`` (the default, and what
        any wrapper that does not explicitly delegate inherits) marks
        the engine unshardable, so sharding degrades safely to the
        one-task-per-group path rather than guessing.
        """
        return None

    def table_schema(self, name: str) -> Schema | None:
        """Schema of a loaded table, or ``None`` when unknown.

        The batch executor needs the base table's schema to type the
        shared-scan materialization; engines that cannot answer return
        ``None`` and batch execution degrades gracefully to per-query
        scans.
        """
        return None

    def table_version(self, name: str) -> int | None:
        """Monotonic generation of a loaded table, or ``None``.

        Process-backed execution exports a table to shared memory once
        per generation and keys the export on this value; a table whose
        version it cannot learn is never exported (the policy degrades
        to the thread backend). The default — and what any wrapper that
        does not delegate inherits — is ``None``: no generation, no
        export, safe degradation.
        """
        return None

    def table_object(self, name: str) -> Table | None:
        """The in-memory :class:`Table` backing ``name``, or ``None``.

        The process-shard exporter reads column storage directly when
        building ``"shm"``/``"pickle"`` exports; engines that do not
        keep an in-memory Table (or cannot share it) return ``None``
        and only file-mode export remains available to them.
        """
        return None

    @abc.abstractmethod
    def execute(self, query: Query) -> ResultSet:
        """Execute a query and return its result."""

    def execute_timed(self, query: Query) -> QueryResult:
        """Execute a query, measuring wall-clock duration in milliseconds.

        The measurement is the single per-query timing authority: when
        telemetry is installed it feeds the ``engine.query_ms``
        histogram (labeled by engine), so no caller needs its own
        ad-hoc stopwatch around engine calls.
        """
        from repro.sql.formatter import format_query

        start = time.perf_counter()
        result = self.execute(query)
        duration_ms = (time.perf_counter() - start) * 1000.0
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.observe("engine.query_ms", duration_ms, engine=self.name)
        return QueryResult(
            result=result,
            duration_ms=duration_ms,
            engine=self.name,
            sql=format_query(query),
        )

    def execute_batch(
        self, queries: list[Query], policy=None
    ) -> list[QueryResult]:
        """Execute a batch of queries under one execution policy.

        ``policy`` (an :class:`~repro.execution.ExecutionPolicy` or a
        preset name) decides the strategy; the default routes through
        the shared-scan optimizer on a single worker. Results are
        positionally aligned with ``queries`` and identical to calling
        :meth:`execute_timed` on each query in turn, for *every*
        policy — only scheduling and scan counts change:

        - ``policy.batch`` groups queries that read the same table
          through the same (normalized) filter and evaluates each group
          with one shared scan (:mod:`repro.engine.batch`);
          ``batch=False`` runs one engine call per query.
        - ``policy.workers > 1`` schedules independent scan groups over
          a worker pool
          (:class:`repro.concurrency.executor.ScanGroupExecutor`),
          reassembling results in request order.
        - ``policy.shards > 1`` partitions each shardable group's base
          scan into row-range shards — one task per (group, shard),
          merged via partial-aggregate rollup (:mod:`repro.sharding`).
        - ``policy.multiplan`` evaluates an unfiltered group's fusion
          classes — the initial render's one-scan-per-GROUP-BY shape —
          in a single combined pass per group
          (:mod:`repro.engine.multiplan`), composing with both knobs
          above.
        """
        from repro.execution import coerce_policy

        policy = coerce_policy(policy)
        if not policy.batch:
            # execute_all is the one sequential-policy dispatch: a
            # plain per-query loop at workers=1, an overlapped ordered
            # map on engines that tolerate it otherwise.
            from repro.concurrency.sessions import execute_all

            return execute_all(self, list(queries), workers=policy.workers)
        from repro.engine.batch import BatchExecutor

        if (
            policy.workers > 1
            or policy.shards > 1
            or policy.backend == "processes"
        ):
            from repro.concurrency.executor import ScanGroupExecutor

            executor = ScanGroupExecutor(self, policy=policy)
            try:
                return executor.run(queries).results
            finally:
                executor.close()
        return BatchExecutor(self, policy=policy).run(queries).results

    def close(self) -> None:
        """Release engine resources (default: nothing to do)."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class DatabaseBackedEngine(Engine):
    """Base for the pure-Python engines that keep tables in a Database.

    Provides the table-lifecycle surface (load/unload/schema lookup)
    over a shared :class:`~repro.engine.table.Database`; subclasses
    supply the execution model and may extend load/unload (e.g. to
    drop secondary indexes with the data).
    """

    def __init__(self) -> None:
        self._db = Database()

    def load_table(self, table: Table) -> None:
        self._db.add(table)

    def unload_table(self, name: str) -> None:
        self._db.remove(name)

    def table_schema(self, name: str) -> Schema | None:
        if name not in self._db:
            return None
        return self._db.table(name).schema

    def table_row_count(self, name: str) -> int | None:
        if name not in self._db:
            return None
        return self._db.table(name).num_rows

    def table_version(self, name: str) -> int | None:
        return self._db.version(name)

    def table_object(self, name: str) -> Table | None:
        if name not in self._db:
            return None
        return self._db.table(name)
