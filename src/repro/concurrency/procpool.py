"""Process-backed shard execution: shared-memory exports + worker pool.

The thread backend (:mod:`repro.concurrency.executor`) overlaps scan
groups only on engines that release the GIL; the pure-Python stores run
as serialized queues, so ``workers > 1`` buys them nothing. This module
ships sharded scan-group work to *worker processes* instead:

1. **Export** — the parent exports a base table once per *generation*
   (:meth:`~repro.engine.interface.Engine.table_version`) using the
   engine's declared :attr:`process_shard_mode`:

   - ``"shm"`` (vectorstore/matstore): numeric and BOOLEAN columns as
     raw float64 bytes in :mod:`multiprocessing.shared_memory`
     segments — execution-equivalent because those engines' normal path
     converts through the same ``Table.array`` float64 view — plus one
     pickle blob per object column (STRING/DATE/TIMESTAMP).
   - ``"pickle"`` (rowstore): the whole column dict as one pickle blob
     in a single segment. The documented slow path — the rowstore's
     accumulators do exact Python-object arithmetic, so a lossy float64
     view would change results beyond 2^53.
   - ``"file"`` (sqlite): a database snapshot written with the backup
     API; workers open it in place, read-only, with ``from_snapshot``
     (rowids preserved, so rowid-window shard ranges address the same
     rows as the parent).

2. **Attach** — each worker attaches once per export id and caches the
   attachment; per task it slices ``[start:stop)`` zero-copy, restores
   Python values, loads the shard slice into a fresh engine of the same
   kind, materializes the shard's filtered temp relation, and runs the
   group's partial queries locally.

3. **Merge** — workers return :class:`ShardPayload` partials; the
   parent merges them with the existing rollup algebra
   (:mod:`repro.sharding`), so byte-identity with serial execution
   carries over unchanged.

Generation safety: an export is keyed ``(engine uid, table, version)``
and every payload echoes its ``(export_id, version)``; the parent
refuses payloads whose generation does not match the job it dispatched,
so an append racing an in-flight run can never contribute
mixed-generation partials (it simply re-exports on the next run).

Lifecycle: segments are unlinked when their export is retired *and* no
dispatched task still references it (a pending-task refcount), on
:meth:`ProcessShardPool.shutdown`, and — as a last resort — by a
``weakref.finalize``/``atexit`` sweep so a parent exit leaves no
orphaned ``/dev/shm`` entries. Workers attach with ``track=False``
(falling back to ``resource_tracker.unregister`` before Python 3.13) so
a worker's exit can never unlink the parent's segments (bpo-38119).
"""

from __future__ import annotations

import atexit
import contextlib
import faulthandler
import itertools
import os
import pickle
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing import shared_memory as _shm

import numpy as np

from repro.engine.interface import Engine, ResultSet
from repro.engine.table import Schema, Table
from repro.engine.types import DataType
from repro.errors import ExecutionError
from repro.sql.ast import Query

#: Upper bound on worker processes for the shared pool (mirrors the
#: thread-side AUTO_MAX_WORKERS cap).
MAX_PROC_WORKERS = 8

#: Fault-injection hook for the test suite: ``"kill"`` or
#: ``"kill:<table>"`` makes a worker die mid-shard with ``os._exit``.
#: Read per task in the worker; inherited from the parent environment
#: at spawn time.
FAULT_ENV = "REPRO_PROCPOOL_FAULT"

_SEGMENT_SEQ = itertools.count()
_UID_SEQ = itertools.count()


# -- wire format -------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSegment:
    """One exported column: where it lives and how to decode it."""

    name: str  # column name
    kind: str  # "f8" (raw float64 rows) | "obj" (pickle blob)
    segment: str  # shared-memory segment name
    size: int  # blob bytes for "obj"; unused for "f8"


@dataclass(frozen=True)
class ExportSpec:
    """Picklable description of one exported table generation."""

    export_id: str
    engine: str  # registry name; workers create_engine() this
    mode: str  # "shm" | "pickle" | "file"
    table: str
    version: int
    num_rows: int
    schema: Schema
    columns: tuple[ColumnSegment, ...] = ()
    segment: str | None = None  # "pickle" mode: the single blob segment
    size: int = 0  # "pickle" mode: blob bytes
    path: str | None = None  # "file" mode: snapshot file


@dataclass
class ShardJob:
    """One unit of worker work: a row-range shard of one scan group."""

    export_id: str
    version: int
    table: str
    shard: int
    start: int
    stop: int
    temp: str
    queries: tuple[Query, ...]
    predicate: object | None
    #: Serialized parent span context ({"span_id": ...}) when tracing;
    #: its presence tells the worker to record span tuples.
    trace: dict | None = None


@dataclass
class ShardPayload:
    """What a worker sends back: partials plus provenance and timings."""

    export_id: str
    version: int
    shard: int
    pid: int
    partials: list[ResultSet]
    partial_ms: list[float]  # per-query durations, aligned with partials
    scan_ms: float
    #: (name, start_offset_ms, end_offset_ms, attrs) tuples relative to
    #: task start; the parent re-anchors them under the shard span.
    spans: list = field(default_factory=list)


# -- parent side -------------------------------------------------------------


class _Export:
    """Parent-side record of one live export generation."""

    __slots__ = ("spec", "segments", "pending", "retired")

    def __init__(
        self, spec: ExportSpec, segments: list[_shm.SharedMemory]
    ) -> None:
        self.spec = spec
        self.segments = segments
        self.pending = 0  # dispatched-but-unfinished tasks
        self.retired = False


def _sweep(
    live: dict[str, _shm.SharedMemory], files: set[str], dirs: set[str]
) -> None:
    """Last-resort cleanup shared by finalize and shutdown."""
    for seg in list(live.values()):
        with contextlib.suppress(OSError):
            seg.close()
            seg.unlink()
    live.clear()
    for path in list(files):
        with contextlib.suppress(OSError):
            os.remove(path)
    files.clear()
    for path in list(dirs):
        with contextlib.suppress(OSError):
            os.rmdir(path)
    dirs.clear()


class ProcessShardPool:
    """Exports tables to shared memory and runs shard jobs in processes.

    One pool serves any number of engines and executors; exports are
    keyed per (engine, table) and rebuilt only when the table's
    generation moves. The pool survives worker death: a
    ``BrokenProcessPool`` surfaces as a clean
    :class:`~repro.errors.ExecutionError` for the affected run and the
    executor is rebuilt for the next submit.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = max(2, min(os.cpu_count() or 1, MAX_PROC_WORKERS))
        self.workers = workers
        self._ctx = get_context("spawn")  # fork is unsafe with threads
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._exports: dict[tuple[int, str], _Export] = {}
        self._live: dict[str, _shm.SharedMemory] = {}
        self._files: set[str] = set()
        self._dirs: set[str] = set()
        self._snapshot_dir: str | None = None
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _sweep, self._live, self._files, self._dirs
        )

    # -- exports -------------------------------------------------------------

    def export_table(self, engine: Engine, table: str):
        """The current export of ``table``, building it if stale/absent.

        Returns ``None`` when the engine cannot export this table (no
        shard mode, unknown generation/schema/row count, or no backing
        storage for its mode) — callers then degrade to thread-backed
        execution.
        """
        mode = getattr(engine, "process_shard_mode", None)
        if mode is None:
            return None
        version = engine.table_version(table)
        schema = engine.table_schema(table)
        rows = engine.table_row_count(table)
        if version is None or schema is None or rows is None:
            return None
        uid = self._engine_uid(engine)
        key = (uid, table)
        with self._lock:
            if self._closed:
                raise ExecutionError("process shard pool is shut down")
            current = self._exports.get(key)
            if current is not None:
                if current.spec.version == version:
                    return current
                self._retire_locked(current)
            export = self._build_export(
                engine, uid, mode, table, version, rows, schema
            )
            if export is not None:
                self._exports[key] = export
            return export

    def _engine_uid(self, engine: Engine) -> int:
        # Stamped on the instance (not keyed by id()) so a recycled
        # object address can never alias a dead engine's exports.
        uid = getattr(engine, "_procpool_uid", None)
        if uid is None:
            uid = next(_UID_SEQ)
            engine._procpool_uid = uid  # type: ignore[attr-defined]
        return uid

    def _build_export(
        self,
        engine: Engine,
        uid: int,
        mode: str,
        table: str,
        version: int,
        rows: int,
        schema: Schema,
    ):
        export_id = f"u{uid}:{table}:{version}"
        if mode == "file":
            snapshot_to = getattr(engine, "snapshot_to", None)
            if snapshot_to is None:
                return None
            # Versions are per table: name the table, or two tables at
            # one version would share (and unlink) one file.
            path = os.path.join(
                self._snapshots_locked(), f"export_{uid}_{table}_{version}.db"
            )
            snapshot_to(path)
            self._files.add(path)
            spec = ExportSpec(
                export_id, engine.name, mode, table, version, rows, schema,
                path=path,
            )
            return _Export(spec, [])
        source = engine.table_object(table)
        if source is None:
            return None
        segments: list[_shm.SharedMemory] = []
        try:
            if mode == "shm":
                columns = []
                for coldef in schema:
                    raw = (
                        coldef.dtype.is_numeric
                        or coldef.dtype is DataType.BOOLEAN
                    )
                    if raw:
                        arr = source.array(coldef.name)
                        seg = self._create_segment_locked(max(arr.nbytes, 1))
                        if arr.nbytes:
                            view = np.ndarray(
                                arr.shape, dtype=np.float64, buffer=seg.buf
                            )
                            view[:] = arr
                        columns.append(
                            ColumnSegment(coldef.name, "f8", seg.name, 0)
                        )
                    else:
                        blob = pickle.dumps(
                            source.column(coldef.name),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                        seg = self._create_segment_locked(max(len(blob), 1))
                        seg.buf[: len(blob)] = blob
                        columns.append(
                            ColumnSegment(
                                coldef.name, "obj", seg.name, len(blob)
                            )
                        )
                    segments.append(seg)
                spec = ExportSpec(
                    export_id, engine.name, mode, table, version, rows,
                    schema, tuple(columns),
                )
            elif mode == "pickle":
                blob = pickle.dumps(
                    {n: source.column(n) for n in schema.names},
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                seg = self._create_segment_locked(max(len(blob), 1))
                seg.buf[: len(blob)] = blob
                segments.append(seg)
                spec = ExportSpec(
                    export_id, engine.name, mode, table, version, rows,
                    schema, segment=seg.name, size=len(blob),
                )
            else:
                raise ExecutionError(
                    f"unknown process shard mode {mode!r} on engine "
                    f"{engine.name!r}"
                )
        except BaseException:
            for seg in segments:
                self._unlink_locked(seg.name)
            raise
        return _Export(spec, segments)

    def _create_segment_locked(self, size: int) -> _shm.SharedMemory:
        name = f"repro_{os.getpid()}_{next(_SEGMENT_SEQ)}"
        seg = _shm.SharedMemory(name=name, create=True, size=size)
        self._live[name] = seg
        return seg

    def _snapshots_locked(self) -> str:
        if self._snapshot_dir is None:
            self._snapshot_dir = tempfile.mkdtemp(prefix="repro-procpool-")
            self._dirs.add(self._snapshot_dir)
        return self._snapshot_dir

    def _retire_locked(self, export: _Export) -> None:
        export.retired = True
        if export.pending == 0:
            self._release_locked(export)

    def _release_locked(self, export: _Export) -> None:
        for seg in export.segments:
            self._unlink_locked(seg.name)
        export.segments = []
        if export.spec.path is not None:
            with contextlib.suppress(OSError):
                os.remove(export.spec.path)
            self._files.discard(export.spec.path)

    def _unlink_locked(self, name: str) -> None:
        seg = self._live.pop(name, None)
        if seg is None:
            return
        with contextlib.suppress(OSError):
            seg.close()
            seg.unlink()

    def segment_names(self) -> list[str]:
        """Names of every live shared-memory segment (for leak probes)."""
        with self._lock:
            return sorted(self._live)

    def release_engine(self, engine: Engine) -> int:
        """Retire every export owned by ``engine``; returns the count.

        Segments unlink immediately unless a dispatched task still
        references them (the pending-task refcount defers the unlink to
        task completion). An engine that never exported — no stamped
        uid — is a no-op, so callers can release unconditionally on
        close paths.
        """
        uid = getattr(engine, "_procpool_uid", None)
        if uid is None:
            return 0
        with self._lock:
            keys = [key for key in self._exports if key[0] == uid]
            for key in keys:
                self._retire_locked(self._exports.pop(key))
        return len(keys)

    # -- dispatch ------------------------------------------------------------

    def submit(self, export: _Export, job: ShardJob) -> Future:
        """Dispatch one shard job against an export; returns its future.

        Recovers once from a broken worker pool (the executor is
        discarded and respawned); a second failure propagates.
        """
        with self._lock:
            if self._closed:
                raise ExecutionError("process shard pool is shut down")
            if export.retired:
                raise ExecutionError(
                    "mixed-generation partials: export "
                    f"{export.spec.export_id!r} was retired before dispatch"
                )
            export.pending += 1
            executor = self._executor_locked()
        try:
            try:
                future = executor.submit(_worker_run, export.spec, job)
            except BrokenProcessPool:
                with self._lock:
                    self._discard_executor_locked()
                    executor = self._executor_locked()
                try:
                    future = executor.submit(_worker_run, export.spec, job)
                except BrokenProcessPool as exc:
                    # Never leak the raw concurrent.futures type: the
                    # caller's contract is ExecutionError either way.
                    raise ExecutionError(
                        f"process shard worker died executing shard "
                        f"{job.shard} of table {job.table!r}; pool "
                        f"respawns on next run"
                    ) from exc
        except BaseException:
            self._task_done(export)
            raise
        future.add_done_callback(lambda _f: self._task_done(export))
        return future

    def collect(
        self, future: Future, job: ShardJob, timeout: float | None = None
    ) -> ShardPayload:
        """The payload of a dispatched job, with fault translation.

        A dead worker (``BrokenProcessPool``) becomes a clean
        :class:`ExecutionError` and marks the executor for rebuild; a
        payload from a different export generation than the job was
        dispatched against is refused.
        """
        try:
            payload = future.result(timeout)
        except BrokenProcessPool as exc:
            with self._lock:
                self._discard_executor_locked()
            raise ExecutionError(
                f"process shard worker died executing shard {job.shard} "
                f"of table {job.table!r}; pool respawns on next run"
            ) from exc
        if (
            payload.export_id != job.export_id
            or payload.version != job.version
        ):
            raise ExecutionError(
                "mixed-generation partials: shard "
                f"{job.shard} of {job.table!r} answered for export "
                f"{payload.export_id!r} v{payload.version}, expected "
                f"{job.export_id!r} v{job.version}"
            )
        return payload

    def _task_done(self, export: _Export) -> None:
        with self._lock:
            export.pending -= 1
            if export.retired and export.pending == 0:
                self._release_locked(export)

    def _executor_locked(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._ctx,
                initializer=_worker_init,
            )
        return self._executor

    def _discard_executor_locked(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop workers and unlink every export. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
            exports = list(self._exports.values())
            self._exports.clear()
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
        with self._lock:
            for export in exports:
                self._release_locked(export)
        _sweep(self._live, self._files, self._dirs)
        self._snapshot_dir = None
        self._finalizer.detach()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


# -- shared pool -------------------------------------------------------------

_SHARED: ProcessShardPool | None = None
_SHARED_LOCK = threading.Lock()
_ATEXIT_ARMED = False


def shared_process_pool() -> ProcessShardPool:
    """The module-level pool shared by all executors.

    Spawning worker processes costs hundreds of milliseconds, so the
    pool is a long-lived singleton amortized across runs; it is torn
    down at interpreter exit (or explicitly with
    :func:`shutdown_shared_pool`).
    """
    global _SHARED, _ATEXIT_ARMED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = ProcessShardPool()
            if not _ATEXIT_ARMED:
                atexit.register(shutdown_shared_pool)
                _ATEXIT_ARMED = True
        return _SHARED


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (a later use lazily recreates it)."""
    global _SHARED
    with _SHARED_LOCK:
        pool, _SHARED = _SHARED, None
    if pool is not None:
        pool.shutdown()


def release_engine_exports(engine: Engine) -> int:
    """Release the shared pool's exports for one engine's whole stack.

    Walks the wrapper chain (``CachedEngine.inner`` and friends) so a
    session closing a wrapped engine releases the exports stamped on
    whichever layer actually supports process shards. The worker pool
    itself stays warm — only this engine's ``/dev/shm`` segments and
    snapshot files go. No-op when the shared pool was never created.
    """
    with _SHARED_LOCK:
        pool = _SHARED
    if pool is None:
        return 0
    released = 0
    seen: set[int] = set()
    obj: object = engine
    while obj is not None and id(obj) not in seen:
        seen.add(id(obj))
        released += pool.release_engine(obj)  # type: ignore[arg-type]
        obj = getattr(obj, "inner", None)
    return released


# -- worker side -------------------------------------------------------------

#: Per-process attachment cache, keyed by export id. Stale generations
#: of the same (engine, table) are evicted when a newer export arrives.
_ATTACHED: dict[str, "_Attachment"] = {}


def _worker_init() -> None:
    # Satellite hang-guard support: a stuck worker dumps stacks when
    # the parent-side faulthandler timeout fires it a fatal signal.
    faulthandler.enable()


def _attach_segment(name: str) -> _shm.SharedMemory:
    """Attach to a parent-owned segment without tracker registration.

    Registering an *attached* segment with the resource tracker makes
    worker exit unlink the parent's memory (bpo-38119). Python 3.13+
    exposes ``track=False``; earlier versions need the unregister
    workaround.
    """
    try:
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        # Suppressing registration beats unregistering after the fact:
        # the tracker process is shared with the parent, so a worker's
        # unregister would erase the parent's own (legitimate, create
        # -time) registration and the parent's later unlink would spew
        # KeyError tracebacks from the tracker. Workers run one task
        # at a time on their main thread, so the swap cannot race.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _pythonize(values: np.ndarray, dtype: DataType) -> list:
    """Restore Python column values from a float64 shard slice.

    Inverse of :meth:`Table.array`'s numeric encoding: NaN back to
    NULL, INTEGER back to int, BOOLEAN back to bool.
    """
    out: list[object] = []
    if dtype is DataType.INTEGER:
        for v in values.tolist():
            out.append(None if v != v else int(v))
    elif dtype is DataType.BOOLEAN:
        for v in values.tolist():
            out.append(None if v != v else bool(int(v)))
    else:
        for v in values.tolist():
            out.append(None if v != v else v)
    return out


class _Attachment:
    """Worker-side view of one export generation."""

    def __init__(self, spec: ExportSpec) -> None:
        self.spec = spec
        self._segments: list[_shm.SharedMemory] = []
        self._columns: dict[str, object] = {}
        self.engine: Engine | None = None
        if spec.mode == "shm":
            for col in spec.columns:
                seg = _attach_segment(col.segment)
                if col.kind == "f8":
                    # Keep the segment open: the array is a zero-copy
                    # view over its buffer.
                    self._segments.append(seg)
                    if spec.num_rows:
                        arr = np.ndarray(
                            (spec.num_rows,), dtype=np.float64, buffer=seg.buf
                        )
                    else:
                        arr = np.empty(0, dtype=np.float64)
                    self._columns[col.name] = arr
                else:
                    self._columns[col.name] = pickle.loads(
                        bytes(seg.buf[: col.size])
                    )
                    seg.close()  # blob decoded; nothing left to view
        elif spec.mode == "pickle":
            assert spec.segment is not None
            seg = _attach_segment(spec.segment)
            self._columns = pickle.loads(bytes(seg.buf[: spec.size]))
            seg.close()
        elif spec.mode == "file":
            from repro.engine.registry import engine_factory

            # Not an instance: that would make a database directory.
            factory = engine_factory(spec.engine)
            restore = getattr(factory, "from_snapshot", None)
            if restore is None:
                raise ExecutionError(
                    f"engine {spec.engine!r} declares file-mode process "
                    "shards but has no from_snapshot()"
                )
            self.engine = restore(
                spec.path, spec.table, spec.schema, spec.num_rows
            )
        else:
            raise ExecutionError(
                f"unknown process shard mode {spec.mode!r}"
            )

    def shard_columns(self, start: int, stop: int) -> dict[str, list]:
        columns: dict[str, list] = {}
        for coldef in self.spec.schema:
            col = self._columns[coldef.name]
            if isinstance(col, np.ndarray):
                columns[coldef.name] = _pythonize(
                    col[start:stop], coldef.dtype
                )
            else:
                columns[coldef.name] = col[start:stop]
        return columns

    def close(self) -> None:
        for seg in self._segments:
            with contextlib.suppress(OSError):
                seg.close()
        self._segments = []
        if self.engine is not None:
            self.engine.close()
            self.engine = None


def _attachment_for(spec: ExportSpec) -> "_Attachment":
    cached = _ATTACHED.get(spec.export_id)
    if cached is not None:
        return cached
    # A new generation of the same (engine, table) supersedes any
    # cached older one — evict so stale segments are not held open.
    prefix = spec.export_id.rsplit(":", 1)[0] + ":"
    for key in [k for k in _ATTACHED if k.startswith(prefix)]:
        _ATTACHED.pop(key).close()
    attachment = _Attachment(spec)
    _ATTACHED[spec.export_id] = attachment
    return attachment


def _maybe_fault(job: ShardJob) -> None:
    directive = os.environ.get(FAULT_ENV)
    if not directive:
        return
    kind, _, target = directive.partition(":")
    if target and target != job.table:
        return
    if kind == "kill":
        os._exit(1)


def _worker_run(spec: ExportSpec, job: ShardJob) -> ShardPayload:
    """Execute one shard job inside a worker process."""
    _maybe_fault(job)
    task_start = time.perf_counter()
    spans: list = []

    def mark(name: str, t0: float, **attrs: object) -> None:
        if job.trace is None:
            return
        now = time.perf_counter()
        spans.append(
            (
                name,
                (t0 - task_start) * 1000.0,
                (now - task_start) * 1000.0,
                attrs,
            )
        )

    attachment = _attachment_for(spec)
    scan_start = time.perf_counter()
    if spec.mode == "file":
        engine = attachment.engine
        assert engine is not None
        ok = engine.materialize_filtered(
            job.temp, spec.table, job.predicate, (job.start, job.stop)
        )
    else:
        from repro.engine.registry import create_engine

        engine = create_engine(spec.engine)
        engine.load_table(
            Table(
                spec.table,
                spec.schema,
                attachment.shard_columns(job.start, job.stop),
            )
        )
        # The slice already restricts rows to the shard window, so only
        # the predicate remains to apply.
        ok = engine.materialize_filtered(job.temp, spec.table, job.predicate)
    if not ok:
        raise ExecutionError(
            f"engine {spec.engine!r} failed to materialize shard "
            f"{job.shard} of table {spec.table!r} in a worker process"
        )
    scan_ms = (time.perf_counter() - scan_start) * 1000.0
    mark("shard_materialize", scan_start, rows=f"{job.start}:{job.stop}")

    partials: list[ResultSet] = []
    partial_ms: list[float] = []
    try:
        for index, query in enumerate(job.queries):
            query_start = time.perf_counter()
            timed = engine.execute_timed(query)
            mark(f"partial[{index}]", query_start)
            partials.append(timed.result)
            partial_ms.append(timed.duration_ms)
    finally:
        # File-mode engines are cached across tasks; drop the temp so
        # it cannot collide with the next task's unique name (cheap
        # hygiene either way).
        with contextlib.suppress(Exception):
            engine.unload_table(job.temp)
        if spec.mode != "file":
            engine.close()
    return ShardPayload(
        export_id=spec.export_id,
        version=spec.version,
        shard=job.shard,
        pid=os.getpid(),
        partials=partials,
        partial_ms=partial_ms,
        scan_ms=scan_ms,
        spans=spans,
    )


__all__ = [
    "FAULT_ENV",
    "MAX_PROC_WORKERS",
    "ColumnSegment",
    "ExportSpec",
    "ProcessShardPool",
    "ShardJob",
    "ShardPayload",
    "release_engine_exports",
    "shared_process_pool",
    "shutdown_shared_pool",
]
