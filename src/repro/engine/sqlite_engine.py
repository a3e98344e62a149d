"""Real-DBMS wrapper around the standard library ``sqlite3``.

SQLite is one of the four systems the paper benchmarks directly; it also
serves as the reference implementation in our cross-engine consistency
tests (any semantic disagreement between the pure-Python engines and
SQLite on the supported subset is treated as a bug).

Dialect adaptations:

- temporal values are stored as ISO-8601 strings and converted back to
  ``date`` / ``datetime`` on output using the loaded table schemas;
- the benchmark's scalar functions (``YEAR``, ``HOUR``, ``BIN``, ...)
  are registered as SQLite user functions;
- booleans are stored as integers (SQLite has no boolean storage class).

Threading model: ``sqlite3`` connections default to single-thread
ownership (``check_same_thread``), so the naive one-connection engine
fails the moment a worker pool touches it. This engine instead keeps a
**per-thread connection pool**: the creating thread owns the primary
in-memory database; any other thread lazily receives its own replica
connection, snapshotted from the primary with the SQLite backup API
(~2 ms for benchmark-scale tables) and invalidated by a generation
counter whenever a base table changes. Replicas are fully independent
databases, so concurrent scans share no page cache or locks — the C
library releases the GIL and scan groups genuinely parallelize
(``parallel_scans = True``). Temporary shared-scan relations are
created on the calling thread's own connection, which is exactly the
connection the rest of that scan group's task uses.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import math
import sqlite3
import threading
import weakref

from repro.engine.batch import TEMP_PREFIX
from repro.engine.expressions import apply_scalar_function
from repro.engine.interface import Engine, ResultSet
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.errors import ExecutionError
from repro.sql.ast import Query, Star
from repro.sql.formatter import format_query

_SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.BOOLEAN: "INTEGER",
    DataType.DATE: "TEXT",
    DataType.TIMESTAMP: "TEXT",
}

#: Functions we register with SQLite; names must match the AST vocabulary.
_REGISTERED_FUNCTIONS = (
    ("YEAR", 1),
    ("MONTH", 1),
    ("DAY", 1),
    ("HOUR", 1),
    ("MINUTE", 1),
    ("DOW", 1),
    ("BIN", 2),
)


class SQLiteEngine(Engine):
    """In-memory SQLite wrapper implementing the common engine interface."""

    name = "sqlite"
    supports_indexes = True
    thread_safe = True
    parallel_scans = True
    # Worker processes reopen a snapshot *file* (the backup API writes
    # one per generation); shared-memory column exports would bypass
    # SQLite's own storage and typing.
    supports_process_shards = True
    process_shard_mode = "file"

    def __init__(self) -> None:
        # The primary holds the authoritative database. It is created
        # with cross-thread access allowed (the sqlite3 build here is
        # SERIALIZED, threadsafety 3) so worker threads can snapshot it
        # via the backup API; Python-side access is guarded by _lock.
        self._primary = sqlite3.connect(":memory:", check_same_thread=False)
        self._owner = threading.get_ident()
        # repro: allow(RA106) — guards the primary connection and the
        # per-thread replica registry; threads themselves come from the
        # worker pool, never from this engine.
        self._lock = threading.RLock()
        #: Bumped on every base-table change; replicas older than this
        #: re-snapshot before their next use.
        self._generation = 0
        self._local = threading.local()
        self._replicas: list[sqlite3.Connection] = []
        self._schemas: dict[str, Table] = {}
        _register_functions(self._primary)

    # -- connection pool ----------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The calling thread's connection (primary for the owner).

        Non-owner threads get a private replica database snapshotted
        from the primary; a stale replica (base table loaded since the
        snapshot) is dropped and re-cloned. Per-thread replicas mean
        concurrent scans never contend on SQLite-side locks.

        Replica lifetime is tied to the thread: the connection hangs
        off a thread-local token whose finalizer closes it and drops it
        from the tracking list, so short-lived pool threads (one pool
        per batch call) cannot accumulate database copies.

        A replica holding live temp relations (a scan group in flight
        on this thread) is *pinned*: a concurrent base-table load may
        have bumped the generation, but re-cloning now would destroy
        the temp mid-group. The group completes against its snapshot —
        consistent results, and the caches drop the store via their
        epoch checks — and the replica refreshes on the next use after
        the pins are gone.
        """
        if threading.get_ident() == self._owner:
            return self._primary
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is not None and (
            local.generation == self._generation
            or getattr(local, "pins", None)
        ):
            return conn
        if conn is not None:
            local.reaper()  # close + untrack the stale replica now
        replica = sqlite3.connect(":memory:", check_same_thread=False)
        _register_functions(replica)
        with self._lock:
            self._primary.backup(replica)
            local.generation = self._generation
            self._replicas.append(replica)
        local.conn = replica
        # The token dies with the thread (thread-local storage is the
        # only reference), triggering the reaper even if this engine
        # lives on long after the worker pool is gone.
        token = _ThreadToken()
        local.token = token
        local.reaper = weakref.finalize(
            token, _reap_replica, self._replicas, self._lock, replica
        )
        return replica

    def _write_connection(self, name: str) -> sqlite3.Connection:
        """Where a write to relation ``name`` belongs.

        Shared-scan temporaries are private to the scan-group task that
        materializes them, so they live on the calling thread's own
        connection. Everything else is base data: it goes to the
        primary, and the generation bump invalidates every replica.
        """
        if name.startswith(TEMP_PREFIX):
            return self._connection()
        self._generation += 1
        return self._primary

    def _pin_temp(self, name: str) -> None:
        """Mark a temp as live on this thread's connection (no re-clone)."""
        if not name.startswith(TEMP_PREFIX):
            return
        pins = getattr(self._local, "pins", None)
        if pins is None:
            pins = self._local.pins = set()
        pins.add(name)

    def _unpin_temp(self, name: str) -> None:
        pins = getattr(self._local, "pins", None)
        if pins:
            pins.discard(name)

    def load_table(self, table: Table) -> None:
        with self._lock:
            conn = self._write_connection(table.name)
            cursor = conn.cursor()
            cursor.execute(f'DROP TABLE IF EXISTS "{table.name}"')
            columns_sql = ", ".join(
                f'"{c.name}" {_SQLITE_TYPES[c.dtype]}' for c in table.schema
            )
            cursor.execute(f'CREATE TABLE "{table.name}" ({columns_sql})')
            placeholders = ", ".join("?" for _ in table.schema)
            columns = [
                _sqlite_column(table.column(n)) for n in table.schema.names
            ]
            cursor.executemany(
                f'INSERT INTO "{table.name}" VALUES ({placeholders})',
                zip(*columns),
            )
            conn.commit()
            self._schemas[table.name] = table
            self._pin_temp(table.name)

    def unload_table(self, name: str) -> None:
        with self._lock:
            conn = self._write_connection(name)
            conn.execute(f'DROP TABLE IF EXISTS "{name}"')
            conn.commit()
            self._schemas.pop(name, None)
            self._unpin_temp(name)

    def materialize_filtered(
        self, name, source: str, predicate, row_range=None
    ) -> bool:
        """Shared-scan fast path: filter entirely inside SQLite.

        ``CREATE TABLE AS SELECT`` inserts in scan (rowid) order, so
        the temporary relation preserves base order and downstream
        queries return exactly what they would with the filter inline.

        A ``row_range`` (sharded execution) becomes a rowid window:
        tables are loaded with one ``INSERT`` per row in base order, so
        row position ``i`` has rowid ``i + 1`` and a contiguous range
        restricts the scan natively — SQLite seeks straight to the
        shard's first page instead of scanning from the top.
        """
        from repro.sql.formatter import format_expression

        base = self._schemas.get(source)
        if base is None:
            return False
        clauses = []
        if row_range is not None:
            start, stop = row_range
            clauses.append(f"rowid BETWEEN {start + 1} AND {stop}")
        if predicate is not None:
            clauses.append(f"({format_expression(predicate)})")
        where_sql = " AND ".join(clauses) if clauses else "1"
        with self._lock:
            conn = self._write_connection(name)
        try:
            conn.execute(f'DROP TABLE IF EXISTS "{name}"')
            conn.execute(
                f'CREATE TABLE "{name}" AS '
                f'SELECT * FROM "{source}" WHERE {where_sql}'
            )
        except sqlite3.Error as exc:
            raise ExecutionError(
                f"sqlite shared scan failed for {source!r}: {exc}"
            ) from exc
        conn.commit()
        # Register the base table under the temp name so output values
        # convert with the same schema (dates, booleans, ...).
        with self._lock:
            self._schemas[name] = base
            self._pin_temp(name)
        return True

    def table_schema(self, name: str):
        with self._lock:
            table = self._schemas.get(name)
        if table is None:
            return None
        return table.schema

    def table_version(self, name: str):
        """The engine-wide generation, as this table's version.

        The generation counter bumps on *every* base-table write, so it
        is coarser than a per-table version — a process-shard export
        may be rebuilt when an unrelated table changed — but never
        stale: any change to ``name`` is guaranteed to move it.
        """
        if name.startswith(TEMP_PREFIX):
            return None
        with self._lock:
            if name not in self._schemas:
                return None
            return self._generation

    def snapshot_to(self, path) -> None:
        """Write the primary database to ``path`` via the backup API.

        The process-shard export calls this once per generation; worker
        processes restore the file with :meth:`from_snapshot`. Runs
        under the engine lock, so the file is a consistent snapshot
        even with concurrent loads.
        """
        dest = sqlite3.connect(str(path))
        try:
            with self._lock:
                self._primary.backup(dest)
            dest.commit()
        finally:
            dest.close()

    @classmethod
    def from_snapshot(cls, path, table: str, schema, num_rows: int):
        """A fresh engine restored from a :meth:`snapshot_to` file.

        Worker-process side of ``process_shard_mode = "file"``: the
        snapshot is copied into a new in-memory primary (UDFs and all),
        and ``table`` is registered with just enough schema facts for
        output conversion and row-range materialization — rowids were
        preserved by the backup, so shard windows address the same rows
        as on the parent.
        """
        engine = cls()
        src = sqlite3.connect(str(path))
        try:
            src.backup(engine._primary)
        finally:
            src.close()
        engine._schemas[table] = _TableFacts(table, schema, num_rows)
        return engine

    def table_row_count(self, name: str):
        if name.startswith(TEMP_PREFIX):
            # Shared-scan temps register the *base* Table object under
            # the temp name (for output-type restoration), so its
            # num_rows would be the base table's count, not the temp's.
            return None
        with self._lock:
            table = self._schemas.get(name)
        if table is None:
            return None
        return table.num_rows

    def create_index(self, table: str, column: str) -> None:
        if table not in self._schemas:
            raise ExecutionError(f"unknown table {table!r}")
        name = f"idx_{table}_{column}"
        with self._lock:
            self._generation += 1  # replicas re-clone to pick up the index
            self._primary.execute(
                f'CREATE INDEX IF NOT EXISTS "{name}" ON "{table}" ("{column}")'
            )
            self._primary.commit()

    def execute(self, query: Query) -> ResultSet:
        with self._lock:  # stable snapshot vs concurrent load_table
            schemas = dict(self._schemas)
        if query.joins and any(
            isinstance(item.expr, Star) for item in query.select
        ):
            from repro.engine.join import expand_star_items
            from repro.engine.table import Database
            from repro.sql.ast import replace_query

            db = Database(list(schemas.values()))
            query = replace_query(
                query, select=expand_star_items(db, query)
            )
        sql = format_query(query)
        conn = self._connection()
        # Replica reads are lock-free (private databases); reads on the
        # shared primary serialize against base-table writes arriving
        # from worker threads — DDL on a connection with an open read
        # cursor raises 'database table is locked' otherwise.
        guard = (
            self._lock if conn is self._primary else contextlib.nullcontext()
        )
        with guard:
            try:
                cursor = conn.execute(sql)
            except sqlite3.Error as exc:
                raise ExecutionError(
                    f"sqlite error for {sql!r}: {exc}"
                ) from exc
            fetched = cursor.fetchall()
            columns = [d[0] for d in cursor.description]
        tables = [
            schemas[name]
            for name in query.table_names()
            if name in schemas
        ]
        converters = [
            _output_converter(name, tables) for name in columns
        ]
        rows = [
            tuple(conv(v) for conv, v in zip(converters, row))
            for row in fetched
        ]
        return ResultSet(columns, rows)

    def close(self) -> None:
        with self._lock:
            for replica in self._replicas:
                try:
                    replica.close()
                except sqlite3.Error:  # pragma: no cover - best-effort
                    pass
            self._replicas.clear()
            self._primary.close()


class _TableFacts:
    """The slice of a :class:`Table` the SQLite wrapper actually reads.

    ``_schemas`` values are consulted for ``.schema`` (output-type
    restoration) and ``.num_rows`` (row counts); a worker restoring a
    snapshot has those facts but not the column data, so it registers
    this stand-in instead of a full table.
    """

    __slots__ = ("name", "schema", "num_rows")

    def __init__(self, name: str, schema, num_rows: int) -> None:
        self.name = name
        self.schema = schema
        self.num_rows = num_rows


class _ThreadToken:
    """Weakref-able marker living in one thread's local storage."""

    __slots__ = ("__weakref__",)


def _reap_replica(replicas, lock, conn) -> None:
    """Finalizer: close one replica and drop it from tracking.

    Module-level (no engine reference) so a dead thread's replica is
    reclaimed even while the engine object stays alive. Idempotent with
    ``close()``: double-closing a sqlite3 connection is a no-op.
    """
    with lock:
        try:
            replicas.remove(conn)
        except ValueError:
            pass
    try:
        conn.close()
    except sqlite3.Error:  # pragma: no cover - close is best-effort
        pass


def _register_functions(conn: sqlite3.Connection) -> None:
    """Install the benchmark's scalar UDFs on one connection."""
    for func_name, arity in _REGISTERED_FUNCTIONS:
        conn.create_function(
            func_name, arity, _make_udf(func_name), deterministic=True
        )


def _make_udf(name: str):
    """Adapt a shared scalar function to a SQLite UDF."""

    def udf(*args: object) -> object:
        result = apply_scalar_function(name, list(args))
        if isinstance(result, float) and math.isnan(result):
            return None
        return result

    return udf


def _sqlite_column(values: list[object]) -> list[object]:
    """A column as SQLite stores it: converted only where it holds
    values :func:`_to_sqlite` changes (a STRING column inferred from
    mixed values can hold booleans too)."""
    if any(issubclass(t, (bool, _dt.date)) for t in set(map(type, values))):
        return [_to_sqlite(v) for v in values]
    return values


def _to_sqlite(value: object) -> object:
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, _dt.datetime):
        return value.isoformat(sep=" ")
    if isinstance(value, _dt.date):
        return value.isoformat()
    return value


def _output_converter(column_name: str, tables: list[Table]):
    """Build a converter restoring temporal/boolean types on output.

    With joins, an output column may originate from any of the query's
    tables; the first table defining the name wins (the join layer
    rejects cross-table name collisions, so this is unambiguous).
    """
    for table in tables:
        if column_name in table.schema:
            dtype = table.schema.dtype(column_name)
            if dtype is DataType.DATE:
                return _parse_date
            if dtype is DataType.TIMESTAMP:
                return _parse_timestamp
            if dtype is DataType.BOOLEAN:
                return _parse_boolean
            return _identity
    return _identity


def _identity(value: object) -> object:
    return value


def _parse_date(value: object) -> object:
    if isinstance(value, str):
        return _dt.date.fromisoformat(value)
    return value


def _parse_timestamp(value: object) -> object:
    if isinstance(value, str):
        return _dt.datetime.fromisoformat(value)
    return value


def _parse_boolean(value: object) -> object:
    if isinstance(value, int):
        return bool(value)
    return value
