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

Storage and threading model: the tables live in one WAL-mode database
file in a private temporary directory. One writer connection commits
base-table loads, unloads and indexes under the engine lock; every
thread, the creating one included, reads through its own read-only
connection, opened on first use and kept. In WAL mode readers and the
writer never block each other, and every statement reads the latest
committed snapshot, so no read sees a half-written table (a transaction
held open on a reader pins one snapshot across several statements).
A table's schema, row count and version move only after its commit.
The C library releases the GIL while it scans, so scan groups on
different threads genuinely parallelize (``parallel_scans = True``).
Shared-scan temporaries are ``TEMP`` tables on the calling thread's
connection: private to the scan-group task that makes them, and
untouched by a concurrent base-table load.

Worker threads come from the process's long-lived shared pools
(:func:`repro.concurrency.pool.shared_worker_pool`), so a reader opens
once per (engine, thread) and serves every later batch on that thread.
It closes when the thread ends or when the engine closes or is
collected. Readers keep no statement cache: most statements name a
unique temp relation, so cached statements would be held, never
reused. Nothing needs to survive a crash, so commits skip the fsync
(``synchronous=OFF``); ``close()``, or a finalizer at collection or
interpreter exit, closes every connection and removes the directory.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import itertools
import math
import os
import shutil
import sqlite3
import tempfile
import threading
import urllib.parse
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

#: Reader settings. A commit empties every reader's page cache, so
#: readers map the file (a checkpointed page is read in place) and keep
#: a cache big enough to hold a benchmark-scale database. Temporaries
#: journal in memory, as on an in-memory database (a journal file cost
#: a shared scan ~15 %); ``temp_store`` stays at its default, because
#: ``MEMORY`` made a GROUP BY's sorter ~1.4x slower.
_READER_PRAGMAS = (
    "PRAGMA mmap_size = 1073741824",
    "PRAGMA cache_size = -65536",
    "PRAGMA temp.journal_mode = MEMORY",
)


#: :meth:`SQLiteEngine._writing`'s default: the write leaves the
#: relation's registered :class:`Table` as it is (an index).
_KEEP = object()


class SQLiteEngine(Engine):
    """SQLite wrapper implementing the common engine interface."""

    name = "sqlite"
    supports_indexes = True
    thread_safe = True
    parallel_scans = True
    # Worker processes open a snapshot *file* in place (written with the
    # backup API per table version); shared-memory column exports would
    # bypass SQLite's own storage and typing.
    supports_process_shards = True
    process_shard_mode = "file"

    def __init__(self) -> None:
        directory = tempfile.mkdtemp(prefix="repro-sqlite-")
        path = os.path.join(directory, "tables.db")
        # Base writes come from any thread, serialized by _lock.
        writer = sqlite3.connect(path, check_same_thread=False)
        # synchronous first: switching to WAL at the default level fsyncs.
        writer.execute("PRAGMA synchronous = OFF")
        writer.execute("PRAGMA journal_mode = WAL")
        _register_functions(writer)
        self._setup(_file_uri(path, "mode=ro"), writer, directory)

    def _setup(self, uri: str, writer, directory) -> None:
        self._uri = uri
        self._writer = writer
        self._dir = directory
        # repro: allow(RA106) — serializes base-table writes on the one
        # writer connection; threads come from the worker pool, never
        # from this engine, and reads take no lock.
        self._lock = threading.RLock()
        #: Base table -> the stamp of its last committed write.
        self._versions: dict[str, int] = {}
        self._stamps = itertools.count(1)
        self._local = threading.local()
        self._readers: list[sqlite3.Connection] = []
        self._schemas: dict[str, Table] = {}
        self._finalizer = weakref.finalize(
            self, _close_all, self._readers, writer, directory
        )

    # -- connections --------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The calling thread's read-only connection, opened on first use.

        It hangs off a thread-local token whose finalizer closes it and
        drops it from ``_readers``. The token dies with the thread or
        with this engine's thread-local storage, whichever goes first:
        the shared pools' threads live as long as the process, so an
        engine that is collected without ``close`` still releases its
        readers.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        conn = sqlite3.connect(
            self._uri, uri=True, check_same_thread=False, cached_statements=0
        )
        for pragma in _READER_PRAGMAS:
            conn.execute(pragma)
        _register_functions(conn)
        self._readers.append(conn)
        # Thread-local storage is the token's only reference, so the
        # finalizer fires when the thread ends or the engine is collected.
        token = _ThreadToken()
        self._local.token = token
        self._local.conn = conn
        weakref.finalize(token, _close_reader, self._readers, conn)
        return conn

    @contextlib.contextmanager
    def _writing(self, name: str, table=_KEEP):
        """A write to relation ``name``: yields the connection and the
        schema prefix it runs on, and commits on exit.

        Shared-scan temporaries are ``TEMP`` tables on the calling
        thread's reader: private to the task that makes them, so no lock
        is taken. Everything else is base data on the writer, under the
        lock, in one transaction that readers see nothing of before its
        commit. Only then is ``table`` registered (``None`` drops it),
        so no reader pairs a new row count with the old rows, and the
        version stamped: nothing computed mid-write is cached (nor is a
        table a write failed on). A passive checkpoint moves the commit
        into the main file, where readers map it.
        """
        base = not name.startswith(TEMP_PREFIX)
        if base and self._writer is None:
            raise ExecutionError("a snapshot engine is read-only")
        conn = self._writer if base else self._connection()
        with self._lock if base else contextlib.nullcontext():
            if base:
                self._versions.pop(name, None)
                conn.execute("BEGIN")
            try:
                yield conn, "main." if base else "temp."
            except BaseException:
                conn.rollback()
                raise
            conn.commit()
            if table is None:
                self._schemas.pop(name, None)
            elif table is not _KEEP:
                self._schemas[name] = table
            if base:
                conn.execute("PRAGMA wal_checkpoint(PASSIVE)")
                if name in self._schemas:
                    self._versions[name] = next(self._stamps)

    def load_table(self, table: Table) -> None:
        name = table.name
        columns_sql = ", ".join(
            f'"{c.name}" {_SQLITE_TYPES[c.dtype]}' for c in table.schema
        )
        placeholders = ", ".join("?" for _ in table.schema)
        columns = [_sqlite_column(table.column(n)) for n in table.schema.names]
        with self._writing(name, table) as (conn, schema):
            conn.execute(f'DROP TABLE IF EXISTS {schema}"{name}"')
            conn.execute(f'CREATE TABLE {schema}"{name}" ({columns_sql})')
            conn.executemany(
                f'INSERT INTO {schema}"{name}" VALUES ({placeholders})',
                zip(*columns),
            )

    def unload_table(self, name: str) -> None:
        with self._writing(name, None) as (conn, schema):
            conn.execute(f'DROP TABLE IF EXISTS {schema}"{name}"')

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
        # The base table is registered under the temp name, so output
        # values convert with the same schema (dates, booleans, ...).
        with self._writing(name, base) as (conn, schema):
            try:
                conn.execute(f'DROP TABLE IF EXISTS {schema}"{name}"')
                conn.execute(
                    f'CREATE TABLE {schema}"{name}" AS '
                    f'SELECT * FROM "{source}" WHERE {where_sql}'
                )
            except sqlite3.Error as exc:
                raise ExecutionError(
                    f"sqlite shared scan failed for {source!r}: {exc}"
                ) from exc
        return True

    def table_schema(self, name: str):
        table = self._schemas.get(name)
        if table is None:
            return None
        return table.schema

    def table_version(self, name: str):
        """The stamp of ``name``'s last committed write; ``None`` for
        temps, absent tables and mid-write. Lock-free: one dict read."""
        return self._versions.get(name)

    def snapshot_to(self, path) -> None:
        """Write the database to ``path`` via the backup API.

        The process-shard export calls this once per table version;
        worker processes open the file with :meth:`from_snapshot`. Runs
        under the engine lock, so the file is a consistent snapshot
        even with concurrent loads, and it never changes afterwards.
        """
        dest = sqlite3.connect(str(path))
        try:
            with self._lock:
                self._writer.backup(dest)
        finally:
            dest.close()

    @classmethod
    def from_snapshot(cls, path, table: str, schema, num_rows: int):
        """A read-only engine over a :meth:`snapshot_to` file.

        Worker-process side of ``process_shard_mode = "file"``: the
        file is opened in place as ``immutable`` (no copy, no directory,
        no ``-wal``/``-shm`` file), and ``table`` is registered with
        just enough schema facts for output conversion and row-range
        materialization — rowids were preserved by the backup, so shard
        windows address the same rows as on the parent. Temporaries
        live in each connection's own temp schema.
        """
        engine = cls.__new__(cls)
        engine._setup(_file_uri(path, "immutable=1"), None, None)
        engine._schemas[table] = _TableFacts(table, schema, num_rows)
        return engine

    def table_row_count(self, name: str):
        if name.startswith(TEMP_PREFIX):
            # Shared-scan temps register the *base* Table object under
            # the temp name (for output-type restoration), so its
            # num_rows would be the base table's count, not the temp's.
            return None
        table = self._schemas.get(name)
        if table is None:
            return None
        return table.num_rows

    def create_index(self, table: str, column: str) -> None:
        if table not in self._schemas:
            raise ExecutionError(f"unknown table {table!r}")
        name = f"idx_{table}_{column}"
        # The write stamps a new version: an index can change row order.
        with self._writing(table) as (conn, _schema):
            conn.execute(
                f'CREATE INDEX IF NOT EXISTS "{name}" ON "{table}" ("{column}")'
            )

    def execute(self, query: Query) -> ResultSet:
        # Writers replace entries after their commit, never mutate them,
        # and copying a str-keyed dict is atomic, so reads take no lock.
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
        try:
            cursor = self._connection().execute(sql)
        except sqlite3.Error as exc:
            raise ExecutionError(f"sqlite error for {sql!r}: {exc}") from exc
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
        self._finalizer()


def _file_uri(path, query: str) -> str:
    """A SQLite ``file:`` URI for ``path``: percent-encoded, so a ``#``,
    ``?`` or ``%`` in a directory or table name stays part of the path."""
    return f"file:{urllib.parse.quote(os.fspath(path))}?{query}"


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


def _close_reader(readers, conn) -> None:
    """Finalizer: close a dead thread's reader, even while the engine
    lives (it holds no engine reference). Closing twice is a no-op."""
    with contextlib.suppress(ValueError):
        readers.remove(conn)
    conn.close()


def _close_all(readers, writer, directory) -> None:
    """Finalizer (``close()``, collection, interpreter exit): close
    every connection, then remove the directory."""
    # Iterate a copy: a dying thread's reaper may remove its reader now.
    for conn in list(readers):
        conn.close()
    readers.clear()
    if writer is not None:
        writer.close()
    if directory is not None:
        shutil.rmtree(directory, ignore_errors=True)


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
