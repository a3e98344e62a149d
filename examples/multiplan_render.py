"""Cold dashboard renders in one pass: the multi-plan evaluator.

Opening a dashboard emits one query per chart with **no WHERE clause**
— there is no filter for shared-scan batching to share, so even in
batch mode the initial render pays one base scan per distinct GROUP BY.
The multi-plan evaluator (:mod:`repro.engine.multiplan`) collapses
those scans: one combined query computes the *finest* grouping (GROUP
BY the union of every chart's keys, aggregates decomposed into
mergeable pieces), and each chart's exact result is then derived by a
small merge query over the combined rows — entirely on the engine, so
results stay byte-identical.

This walkthrough shows all three pieces on a live dashboard:

1. the decomposition — the combined SQL and one chart's merge SQL;
2. an instrumented cold render with ``multiplan`` off and on —
   base-scan counts measured at the engine boundary;
3. the identity check — both modes return the same rows (for this
   dataset's arbitrary-decimal measures, to IEEE-754 rounding: the
   merge re-associates float addition; integer and dyadic data match
   bit-for-bit, as ``tests/test_multiplan.py`` pins down).

Run with::

    PYTHONPATH=src python examples/multiplan_render.py

CI executes this file (``tools/check_docs.py``) so it cannot rot;
``SIMBA_EXAMPLE_ROWS`` scales the dataset.
"""

from __future__ import annotations

import math
import os
import time

from repro.dashboard.library import load_dashboard
from repro.dashboard.state import DashboardState
from repro.engine.batch import BatchExecutor, fuse_members, group_queries
from repro.execution import ExecutionPolicy
from repro.engine.instrument import CountingEngine
from repro.engine.multiplan import build_multiplan, eligible_plan
from repro.engine.registry import create_engine
from repro.sql.formatter import format_query
from repro.workload.datasets import generate_dataset

ROWS = int(os.environ.get("SIMBA_EXAMPLE_ROWS", "8000"))
DASHBOARD = "customer_service"


def show_decomposition(queries, schema) -> None:
    """Print the combined pass and one chart's merge query."""
    group = group_queries(list(queries))[0]
    classes = [
        cls
        for cls in fuse_members(group.members)
        if eligible_plan(cls.merged_query(), schema) is not None
    ]
    plan = build_multiplan([cls.merged_query() for cls in classes], schema)
    print(f"The cold render's {len(queries)} chart queries fuse into "
          f"{len(classes)} group-by shapes; all of them fold into one pass:")
    print(f"  {format_query(plan.combined_query(group.signature.table))}")
    print("and each chart is derived by a merge over the combined rows,")
    print("e.g. the first one:")
    print(f"  {format_query(plan.plans[0].merge_query('<combined>'))}")
    print()


def instrumented_render(state, queries, multiplan: bool):
    """Render through a counting engine; returns the batch result."""
    counting = CountingEngine(create_engine("sqlite"))
    counting.load_table(state.table)
    executor = BatchExecutor(
        counting, ExecutionPolicy(multiplan=multiplan)
    )
    start = time.perf_counter()
    batch = executor.run(list(queries))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    label = "--multiplan   " if multiplan else "--no-multiplan"
    print(
        f"  {label}: {len(queries)} chart queries -> "
        f"{counting.base_scans()} base scans "
        f"({batch.stats.multiplan_groups} combined passes covering "
        f"{batch.stats.multiplan_plans} group-bys), "
        f"{elapsed_ms:.1f} ms"
    )
    counting.close()
    return batch


def main() -> None:
    spec = load_dashboard(DASHBOARD)
    table = generate_dataset(DASHBOARD, ROWS, seed=7)
    state = DashboardState(spec, table)
    # The cold render: every chart's query, no filters applied yet.
    queries = state.initial_queries()

    show_decomposition(queries, table.schema)

    print(f"Instrumented cold render of {DASHBOARD!r} on sqlite, "
          f"{ROWS} rows:")
    before = instrumented_render(state, queries, multiplan=False)
    after = instrumented_render(state, queries, multiplan=True)

    # This dataset's measures are arbitrary decimals, so the merged
    # SUM/AVG agree with the per-class path to IEEE-754 rounding (the
    # merge re-associates float addition; integer and dyadic data
    # match bit-for-bit — see docs/ARCHITECTURE.md). Structure,
    # ordering, and counts must match exactly.
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
        for a, b in zip(before.results, after.results)
    )
    print(
        "  verified: both modes return "
        f"{'identical results (to IEEE float rounding)' if identical else 'DIFFERENT results (bug!)'}"
    )
    assert identical
    print()
    print(
        "The dashboard now opens with one scan of its table instead of "
        "one per chart — the same knob is --multiplan on the harness "
        "and replay CLIs and ExecutionPolicy(multiplan=True) everywhere "
        "a policy= is accepted, and it composes with "
        "--workers and --shards (combined passes schedule on the same "
        "pool; sharded tables run one combined pass per shard)."
    )


if __name__ == "__main__":
    main()
