"""Query-execution substrate: four engines behind one interface.

The paper benchmarks PostgreSQL, DuckDB, SQLite, and MonetDB. Offline we
substitute engines that reproduce those systems' *execution models*:

- :class:`~repro.engine.rowstore.RowStoreEngine` — tuple-at-a-time Volcano
  iterators (PostgreSQL stand-in);
- :class:`~repro.engine.columnstore.VectorStoreEngine` — numpy-vectorized
  batch execution (DuckDB stand-in);
- :class:`~repro.engine.matstore.MatStoreEngine` — operator-at-a-time full
  materialization (MonetDB stand-in);
- :class:`~repro.engine.sqlite_engine.SQLiteEngine` — the real ``sqlite3``.

All engines accept the same :class:`~repro.sql.ast.Query` AST and return
the same :class:`~repro.engine.interface.ResultSet`, so the benchmark
harness can swap them freely.

Batch (shared-scan) execution
-----------------------------

A dashboard refresh emits many queries over the same table and filters.
:meth:`Engine.execute_batch` evaluates such a bundle through the
multi-query optimizer in :mod:`repro.engine.batch`: queries are grouped
by (table, normalized WHERE predicate), each group's filter runs as
**one shared scan**, compatible aggregates are fused into one merged
pass, and results are sliced back — byte-identical to sequential
execution, positionally aligned with the input::

    results = engine.execute_batch(state.initial_queries())

With ``ExecutionPolicy(multiplan=True)``, an *unfiltered* group's
fusion classes — the initial render's one-scan-per-GROUP-BY shape —
additionally evaluate in one combined pass per table
(:mod:`repro.engine.multiplan`).

:class:`CachedEngine` additionally caches whole scan groups
(:class:`~repro.engine.cache.ScanGroupCache`), keyed by each table's
generation, so a repeated refresh costs zero engine work until a reload
moves it. The
execution strategy — batch, workers, shards, multiplan — travels the
whole stack as one :class:`~repro.execution.ExecutionPolicy` value:
``engine.execute_batch(queries, policy)``,
``SessionConfig(policy=...)``, ``BenchmarkConfig(policy=...)``,
``replay_log(..., policy=...)``, and ``--policy PRESET`` on both CLIs
(the per-knob keywords were removed in 2.0.0).
"""

from repro.engine.batch import BatchExecutor, BatchResult, BatchStats
from repro.engine.cache import CachedEngine, ScanGroupCache
from repro.engine.interface import Engine, QueryResult, ResultSet
from repro.engine.multiplan import MultiPlan, build_multiplan
from repro.engine.registry import available_engines, create_engine
from repro.engine.table import ColumnDef, Schema, Table
from repro.engine.types import DataType

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "BatchStats",
    "CachedEngine",
    "ColumnDef",
    "DataType",
    "Engine",
    "MultiPlan",
    "QueryResult",
    "ResultSet",
    "ScanGroupCache",
    "Schema",
    "Table",
    "available_engines",
    "build_multiplan",
    "create_engine",
]
