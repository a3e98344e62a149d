"""Synthetic workloads end to end: generate, stress, replay.

The six library dashboards are hand-written exemplars; the workload
generator (:mod:`repro.workloadgen`) manufactures the rest of the
space from typed schemas — hundreds of distinct valid dashboards,
interaction sessions, and the adversarial presets that land in each
static optimizer's documented losing regime.

This walkthrough shows the full path on one generated workload:

1. a seeded schema -> table -> dashboard pipeline (deterministic:
   the same seed reproduces the same bytes anywhere);
2. an adversarial preset duel — ``tiny_tables_sharded`` rendered with
   and without sharding, showing the optimizer *losing* on wall-clock
   while results stay byte-identical;
3. a generated interaction session replayed under serial and
   max-throughput policies with an identity check per step.

Run with::

    PYTHONPATH=src python examples/generated_workload.py

CI executes this file (``tools/check_docs.py``) so it cannot rot;
``SIMBA_EXAMPLE_ROWS`` scales the dataset.
"""

from __future__ import annotations

import os
import time

from repro.dashboard.state import DashboardState
from repro.engine.instrument import CountingEngine
from repro.engine.registry import create_engine
from repro.execution import ExecutionPolicy
from repro.workloadgen import (
    generate_dashboard,
    generate_preset,
    generate_session,
    generate_table,
    workload_schema,
)

ROWS = int(os.environ.get("SIMBA_EXAMPLE_ROWS", "8000"))


def generate_and_validate() -> None:
    """Seeded schema -> table -> dashboard, all deterministic."""
    schema = workload_schema("web_analytics")
    table = generate_table(schema, ROWS, seed=7)
    spec = generate_dashboard(schema, index=0, seed=7)
    spec.validate()  # generated specs pass the normal loader checks
    assert generate_dashboard(schema, index=0, seed=7) == spec
    roles = {f.name: f.role for f in schema.fields}
    print(f"schema {schema.name!r}: {roles}")
    print(
        f"generated {spec.name!r}: {spec.num_visualizations} charts, "
        f"{len(spec.interface.widgets)} widgets over {len(table)} rows"
    )
    print()


def preset_duel() -> None:
    """tiny_tables_sharded: sharding as pure overhead, identity intact."""
    workload = generate_preset("tiny_tables_sharded", "retail_sales", seed=0)
    table = workload.build_table()  # 64 rows — shrinking IS the preset
    queries = DashboardState(workload.spec, table).initial_queries()
    print(f"preset {workload.name!r}: {workload.note}")

    results = {}
    for label, policy in (
        ("batch       ", ExecutionPolicy()),
        ("batch+shards", ExecutionPolicy(shards=4)),
    ):
        counting = CountingEngine(create_engine("rowstore"))
        counting.load_table(table)
        start = time.perf_counter()
        timed = counting.execute_batch(list(queries), policy)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        results[label] = [t.result for t in timed]
        print(
            f"  {label}: {counting.base_scans()} base scans, "
            f"{elapsed_ms:.2f} ms cold render over {len(table)} rows"
        )
        counting.close()

    plain, sharded = results.values()
    for a, b in zip(plain, sharded):
        assert a.columns == b.columns and a.rows == b.rows
    print(
        "  verified: byte-identical results — the shards only cost "
        "dispatch and merge here"
    )
    print()


def session_replay() -> None:
    """A generated session replays byte-identically under any policy."""
    schema = workload_schema("fleet_telemetry")
    table = generate_table(schema, max(200, ROWS // 4), seed=0)
    spec = generate_dashboard(schema, index=2, seed=0)
    session = generate_session(spec, table, length=4, seed=0)
    print(f"generated session over {spec.name!r}:")
    for step in session.steps:
        print(f"  - {step.describe()}")

    engine = create_engine("vectorstore")
    engine.load_table(table)
    serial = session.replay(
        spec, table, engine, policy=ExecutionPolicy.serial()
    )
    fast = session.replay(
        spec, table, engine, policy=ExecutionPolicy.max_throughput()
    )
    assert serial.identity_signature() == fast.identity_signature()
    engine.close()
    print(
        f"  replayed {serial.total_queries} queries twice "
        f"(serial vs max-throughput): identical results at every step"
    )
    print()


def main() -> None:
    generate_and_validate()
    preset_duel()
    session_replay()
    print(
        "The checked-in corpus (tests/data/generated/, regenerated by "
        "tools/gen_workload_corpus.py) pins 12 adversarial workloads; "
        "tier-1 replays all of them on all four engines and asserts "
        "byte identity cell by cell."
    )


if __name__ == "__main__":
    main()
