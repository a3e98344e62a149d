"""Sharded dashboard refreshes: per-shard scans + partial-aggregate merge.

The sharded executor (:mod:`repro.sharding`) splits each shardable
scan group's base scan into contiguous row-range shards — one task per
(group, shard) — runs decomposed *partial* aggregates per shard (AVG
becomes SUM + COUNT), and re-aggregates the partials through the
engine into results byte-identical to unsharded execution.

This walkthrough shows all three pieces on a live dashboard:

1. the decomposition itself — the partial and merge SQL for an AVG
   measure;
2. an instrumented refresh at ``shards ∈ {1, 4}`` — per-shard scan
   counts measured at the engine boundary;
3. the identity check — sharded and unsharded results match (for this
   dataset's arbitrary-decimal floats, to IEEE-754 rounding: the
   merge re-associates float addition; integer and dyadic data match
   bit-for-bit, as the property tests in ``tests/test_sharding.py``
   pin down).

Run with::

    PYTHONPATH=src python examples/sharded_refresh.py
"""

from __future__ import annotations

import math
import time

from repro.concurrency import ScanGroupExecutor
from repro.execution import ExecutionPolicy
from repro.dashboard.library import load_dashboard
from repro.dashboard.state import DashboardState, InteractionKind
from repro.engine.batch import group_queries
from repro.engine.instrument import CountingEngine
from repro.engine.multiplan import build_multiplan
from repro.engine.registry import create_engine
from repro.sql.formatter import format_query
from repro.workload.datasets import generate_dataset

ROWS = 20_000
SHARDS = 4
WORKERS = 4


def show_decomposition(queries, schema) -> None:
    """Print the partial/merge decomposition of one AVG query."""
    avg_query = next(
        q for q in queries if "AVG(" in format_query(q)
    )
    plan = build_multiplan([avg_query], schema)
    print("One visualization's query:")
    print(f"  {format_query(avg_query)}")
    print("decomposes for sharding into a per-shard partial query")
    print(f"  {format_query(plan.partial_query('<shard_temp>', avg_query.from_table.name))}")
    print("and one merge over the concatenated per-shard partials:")
    print(f"  {format_query(plan.plans[0].merge_query('<partials>'))}")
    print()


def instrumented_refresh(state, queries, shards: int):
    """Refresh through a counting engine; returns (results, stats)."""
    counting = CountingEngine(create_engine("sqlite"))
    counting.load_table(state.table)
    executor = ScanGroupExecutor(
        counting, ExecutionPolicy(workers=WORKERS, shards=shards)
    )
    start = time.perf_counter()
    batch = executor.run(list(queries))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    executor.close()
    table = state.table.name
    print(
        f"  shards={shards}: {len(queries)} queries -> "
        f"{batch.stats.groups} scan groups "
        f"({batch.stats.sharded_groups} sharded), "
        f"{counting.scans.get(table, 0)} base scans "
        f"({counting.shard_scans.get(table, 0)} per-shard range scans), "
        f"{elapsed_ms:.1f} ms"
    )
    counting.close()
    return batch


def main() -> None:
    spec = load_dashboard("ubc_energy")
    table = generate_dataset("ubc_energy", ROWS, seed=7)
    state = DashboardState(spec, table)
    # Apply one filter so the refresh exercises filtered scan groups.
    action = next(
        (
            a
            for a in state.available_interactions()
            if a.kind is InteractionKind.WIDGET_TOGGLE
        ),
        None,
    )
    if action is not None:
        state.apply(action)
    queries = [state.query_for(v) for v in sorted(state.visualizations)]

    show_decomposition(queries, table.schema)

    groups = group_queries(list(queries))
    print(
        f"Refresh fan-out: {len(queries)} component queries in "
        f"{len(groups)} scan groups."
    )
    print(f"Instrumented refresh on sqlite, workers={WORKERS}:")
    unsharded = instrumented_refresh(state, queries, shards=1)
    sharded = instrumented_refresh(state, queries, shards=SHARDS)

    # This dataset's measures are arbitrary decimals, so sharded
    # SUM/AVG agree with unsharded to IEEE-754 rounding (the merge
    # re-associates float addition; integer and dyadic data match
    # bit-for-bit — see docs/ARCHITECTURE.md). Structure, ordering,
    # and counts must match exactly.
    def cells_close(a, b) -> bool:
        if isinstance(a, float) and isinstance(b, (int, float)):
            return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
        return a == b

    identical = all(
        a.result.columns == b.result.columns
        and len(a.result.rows) == len(b.result.rows)
        and all(
            cells_close(x, y)
            for row_a, row_b in zip(a.result.rows, b.result.rows)
            for x, y in zip(row_a, row_b)
        )
        for a, b in zip(unsharded.results, sharded.results)
    )
    print(
        f"  verified: shards=1 and shards={SHARDS} results are "
        f"{'identical (to IEEE float rounding)' if identical else 'DIFFERENT (bug!)'}"
    )
    assert identical
    print()
    print(
        "Each sharded group traded one full-table scan for "
        f"{SHARDS} quarter-table range scans — the unit of work that "
        "parallelizes across cores on multi-core hosts. The same knob "
        "is --shards on the harness and replay CLIs, and "
        "ExecutionPolicy(shards=...) everywhere a policy= is accepted."
    )


if __name__ == "__main__":
    main()
