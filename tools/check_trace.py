#!/usr/bin/env python
"""CI traced-replay check: corpus session + --trace schema validation.

Replays one hash-pinned workloadgen corpus session (the same files
``tests/test_workloadgen_corpus.py`` golden-tests) with telemetry
active under a concurrent sharded policy, writes the Chrome trace to a
temp file, and validates the whole chain:

- recorded spans pass :func:`repro.telemetry.export.validate_spans`
  (closed, unique ids, resolvable acyclic parentage);
- the written file passes
  :func:`repro.telemetry.export.validate_trace_file` (Perfetto-loadable
  Chrome trace-event JSON);
- shard spans nest under scan groups that nest under refresh spans —
  the cross-thread parentage the tracer exists to preserve;
- every replayed query is attributed to exactly one tier;
- a second replay on the same engine, after one read on every pool
  thread, starts no ``repro-worker-*`` thread and opens no new SQLite
  reader connection (worker threads come from the long-lived shared
  pool, and each keeps its reader).

Run it the way CI does::

    PYTHONPATH=src python tools/check_trace.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.concurrency import map_ordered, shared_worker_pool  # noqa: E402
from repro.dashboard.spec import DashboardSpec  # noqa: E402
from repro.engine import create_engine  # noqa: E402
from repro.execution import ExecutionPolicy  # noqa: E402
from repro.sql.parser import parse_query  # noqa: E402
from repro.telemetry import (  # noqa: E402
    Telemetry,
    validate_spans,
    validate_trace_file,
    write_chrome_trace,
)
from repro.telemetry.explain import TIERS  # noqa: E402
from repro.workloadgen import generate_preset  # noqa: E402
from repro.workloadgen.sessions import GeneratedSession  # noqa: E402

CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "generated"

#: The corpus workload replayed under tracing. key_union_explosion
#: drives the widest per-refresh fan-out, so the sharded scan groups
#: carry the most members per span.
WORKLOAD = "retail_sales__key_union_explosion"

#: max_throughput sizes workers with a floor of
#: ``AUTO_MIN_WORKERS`` (and shards to match), so even single-core CI
#: runners exercise the cross-thread span nesting this check exists
#: to validate — the old explicit workers=4/shards=3 workaround is
#: obsolete.
POLICY = ExecutionPolicy.max_throughput()


def _load_workload(name: str):
    manifest = json.loads(
        (CORPUS_DIR / "manifest.json").read_text(encoding="utf-8")
    )
    entry = next(w for w in manifest["workloads"] if w["name"] == name)
    spec = DashboardSpec.from_json(
        (CORPUS_DIR / entry["spec_file"]).read_text(encoding="utf-8")
    )
    table = generate_preset(
        entry["preset"], entry["schema"], seed=entry["seed"], rows=entry["rows"]
    ).build_table()
    session = GeneratedSession.from_json(
        (CORPUS_DIR / entry["session_file"]).read_text(encoding="utf-8")
    )
    return spec, table, session


def main() -> int:
    spec, table, session = _load_workload(WORKLOAD)
    engine = create_engine("sqlite")
    engine.load_table(table)

    telemetry = Telemetry()
    with telemetry.install():
        log = session.replay(spec, table, engine, policy=POLICY)

    failures: list[str] = []
    # Thread reuse: replaying the session again on the same engine runs
    # on the shared pool's existing threads and their readers.
    _read_on_every_thread(engine, table.name)
    readers = list(engine._readers)
    started = _threads_started_during(
        lambda: session.replay(spec, table, engine, policy=POLICY)
    )
    workers = sorted(
        t.name for t in started if t.name.startswith("repro-worker-")
    )
    if workers:
        failures.append(f"second replay started worker threads {workers!r}")
    known = {id(reader) for reader in readers}  # all held alive above
    added = [r for r in engine._readers if id(r) not in known]
    if added:
        failures.append(
            f"second replay opened {len(added)} new SQLite readers"
        )
    engine.close()

    spans = telemetry.tracer.spans()
    failures += validate_spans(spans)

    by_id = {span.span_id: span for span in spans}
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    refreshes = by_name.get("refresh", [])
    if not refreshes:
        failures.append("no refresh spans recorded")

    # Cross-thread nesting: every shard span's chain must pass through
    # a scan_group and terminate at a refresh span.
    shard_spans = [s for s in spans if s.name.startswith("shard[")]
    if not shard_spans:
        failures.append(
            f"no shard spans under {POLICY.describe()!r} — sharded path "
            f"not exercised"
        )
    for span in shard_spans:
        chain = []
        cursor = span
        while cursor.parent_id is not None:
            cursor = by_id[cursor.parent_id]
            chain.append(cursor.name)
        if "scan_group" not in chain or chain[-1] != "refresh":
            failures.append(
                f"shard span {span.span_id} chain {chain!r} does not "
                f"nest scan_group-under-refresh"
            )
    worker_threads = {s.thread for s in shard_spans}
    if shard_spans and not any(
        t.startswith("repro-worker-") for t in worker_threads
    ):
        failures.append(
            f"shard spans ran on {sorted(worker_threads)!r}, expected "
            f"repro-worker-N threads"
        )

    # Tier attribution: queries were tagged, with known tier names, and
    # the refresh spans account for every replayed query. (The replay
    # log keeps result sets, not SQL, so per-query attribution is
    # asserted via the span bookkeeping rather than text matching.)
    tiers = telemetry.tracer.query_tiers
    if not tiers:
        failures.append("no queries attributed to any tier")
    unknown = {t for t in tiers.values() if t not in TIERS}
    if unknown:
        failures.append(f"unknown tier names {sorted(unknown)!r}")
    span_queries = sum(s.attrs.get("queries", 0) for s in refreshes)
    if span_queries != log.total_queries:
        failures.append(
            f"refresh spans account for {span_queries} queries, replay "
            f"log says {log.total_queries}"
        )

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        write_chrome_trace(telemetry.tracer, trace_path)
        failures += validate_trace_file(trace_path)

    queries = sum(len(record.results) for record in log.records)
    print(
        f"check_trace: {WORKLOAD} replayed {queries} queries over "
        f"{len(log.records)} refreshes; {len(spans)} spans "
        f"({len(shard_spans)} shard) on threads "
        f"{sorted({s.thread for s in spans})}"
    )
    print(f"check_trace: tiers {dict(sorted_tier_counts(tiers))}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("check_trace: trace schema + nesting OK")
    return 0


def _read_on_every_thread(engine, table: str) -> None:
    """One read on this thread and on every thread of the replay's pool.

    The first replay need not run work on every pool thread (the
    scheduler can leave one idle throughout), and that thread's first
    read in the second replay would open its reader then. A barrier
    holds each task until all have started, so no thread runs two.
    """
    query = parse_query(f'SELECT COUNT(*) AS n FROM "{table}"')
    barrier = threading.Barrier(POLICY.workers)

    def read(_index: int) -> None:
        barrier.wait(timeout=30.0)
        engine.execute(query)

    map_ordered(shared_worker_pool(POLICY.workers), read,
                range(POLICY.workers))
    engine.execute(query)


def _threads_started_during(fn) -> list[threading.Thread]:
    """Every thread started while ``fn`` runs, even if it has ended.

    A thread-start hook records each new thread on its first call and
    uninstalls itself there. Names are read from the Thread objects
    afterwards, so a pool thread shows the name its initializer set.
    """
    started: list[threading.Thread] = []

    def hook(frame, event, arg):
        started.append(threading.current_thread())
        sys.setprofile(None)

    threading.setprofile(hook)
    try:
        fn()
    finally:
        threading.setprofile(None)
    return started


def sorted_tier_counts(tiers: dict) -> list[tuple[str, int]]:
    counts: dict[str, int] = {}
    for tier in tiers.values():
        counts[tier] = counts.get(tier, 0) + 1
    return sorted(counts.items())


if __name__ == "__main__":
    sys.exit(main())
