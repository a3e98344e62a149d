"""CI soak for the serving tier: simulator traffic over real HTTP.

Starts one :class:`~repro.serving.server.DashboardServer`, drives it
with IDEBench-mix simulated users through the persistent HTTP/1.1
client (the real socket path, not the in-process shortcut), on the
**processes** execution backend so shared-memory exports are actually
created, while a reloader thread alternates two generations of the
table every ~0.3 s (the second is the first plus a repeat of its first
tenth, as in the ``serve-reload`` benchmark) — so every reload
re-exports to ``/dev/shm`` under live reads. It then asserts the six
things the serving tier promises:

1. zero 5xx — ``app.error_count`` stays 0 and no user recorded an
   unexplained failure (429s and expired-session re-creates are fine,
   they are the protocol working);
2. zero leaked ``/dev/shm`` segments once the server closes — every
   export the worker pool published during the soak must be unlinked
   (the workflow also diffs ``ls /dev/shm`` around this script);
3. the cross-session cache actually crossed sessions (hit rate > 0)
   while serving byte-identical results — identity itself is pinned by
   ``tests/test_serving.py``; the soak checks the rate is not zero
   under churn;
4. connections are kept alive and end with the server — at most one
   connection per user (``/stats`` ``transport.connections``), and no
   handler thread is left once the server closes;
5. no user saw a result from a table generation that was superseded
   before their request was sent — every visualization matches a
   reference execution on the generation live at send time, or on one
   a reload overlapping the request made live;
6. once the run is quiet, no cached group is keyed by a superseded
   generation — every reload purged what it replaced.

Usage: ``PYTHONPATH=src python tools/check_serving.py``
"""

from __future__ import annotations

import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dashboard.library import load_dashboard
from repro.engine import create_engine
from repro.engine.table import Table
from repro.serving import DashboardServer, ServingApp, ServingClient, ServingConfig
from repro.serving.loadgen import run_load
from repro.sql.parser import parse_query
from repro.workload import generate_dataset

DASHBOARD = "customer_service"
ENGINE = "vectorstore"
USERS = 16
OPERATIONS = 5
RELOAD_EVERY_S = 0.3

CONFIG = ServingConfig(
    session_ttl=60.0,
    sweep_interval=1.0,
    max_in_flight=4,
    max_queue_depth=64,
    queue_timeout=30.0,
    retry_after=0.1,
)


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # non-Linux: the workflow-level diff is skipped too
        return set()


def _handler_threads() -> list[str]:
    """Names of live server connection threads, after up to 2 s."""
    deadline = time.monotonic() + 2.0
    while True:
        names = [
            t.name for t in threading.enumerate()
            if t.name.startswith("serving-conn-")
        ]
        if not names or time.monotonic() > deadline:
            return names
        time.sleep(0.01)


def _grown(table: Table) -> Table:
    """The table plus a repeat of its first tenth: counts and sums
    move, every widget domain stays valid."""
    extra = max(1, table.num_rows // 10)
    return Table(
        table.name,
        table.schema,
        {
            name: list(table.column(name)) + list(table.column(name)[:extra])
            for name in table.schema.names
        },
    )


class _RecordingClient(ServingClient):
    """Keeps every reply's results with the times it was sent and read."""

    def __init__(self, url: str, replies: list) -> None:
        super().__init__(url)
        self._replies = replies

    def refresh(self, session_id, viz_ids=None):
        sent = time.monotonic()
        results = super().refresh(session_id, viz_ids)
        self._replies.append((sent, time.monotonic(), results))
        return results

    def interact(self, session_id, interaction):
        sent = time.monotonic()
        affected, results = super().interact(session_id, interaction)
        self._replies.append((sent, time.monotonic(), results))
        return affected, results


def _reload_loop(app, generations, stop, reloads) -> None:
    """Alternate the generations until ``stop``; log (number, start, end)."""
    number = 0
    while not stop.wait(RELOAD_EVERY_S):
        number += 1
        start = time.monotonic()
        app.load_table(generations[number % 2])
        reloads.append((number, start, time.monotonic()))


def _stale_replies(replies, reloads, generations) -> list[str]:
    """Replies with a visualization from no generation the request
    could see: the one live when it was sent, or one a reload that
    overlapped the request made live."""
    references = []
    for table in generations:
        engine = create_engine(ENGINE)
        engine.load_table(table)
        references.append(engine)
    expected: dict = {}

    def identity(result):
        return (tuple(result.columns), result.sorted_rows())

    stale = []
    for sent, received, results in replies:
        live = max((n for n, _, end in reloads if end <= sent), default=0)
        seen = {live} | {
            n for n, start, end in reloads if end > sent and start < received
        }
        for viz_id, timed in results.items():
            for number in seen:
                key = (number % 2, timed.sql)
                if key not in expected:
                    expected[key] = identity(
                        references[number % 2].execute(parse_query(timed.sql))
                    )
                if identity(timed.result) == expected[key]:
                    break
            else:
                stale.append(f"{viz_id} sent at {sent:.3f}, live {live}")
    for engine in references:
        engine.close()
    return stale


def main() -> int:
    table = generate_dataset(DASHBOARD, 4000, seed=7)
    generations = [table, _grown(table)]
    spec = load_dashboard(DASHBOARD)
    before = _shm_names()

    app = ServingApp(CONFIG, default_engine=ENGINE)
    app.load_table(table)
    app.register_dashboard(spec)
    replies: list = []
    reloads: list = []
    stop = threading.Event()
    with DashboardServer(app) as server:
        reloader = threading.Thread(
            target=_reload_loop,
            args=(app, generations, stop, reloads),
            name="soak-reloader",
        )
        reloader.start()
        try:
            report = run_load(
                lambda: _RecordingClient(server.url, replies),
                spec,
                table,
                users=USERS,
                operations=OPERATIONS,
                think_s=0.02,
                tenants=4,
                seed=23,
                engine=ENGINE,
                policy="max_throughput",
            )
        finally:
            stop.set()
            reloader.join()
        host = app.host_for(ENGINE)
        superseded = [
            key
            for key in host.cache.groups.keys()
            if key[1] != host.engine.table_version(key[0])
        ]
        stats = app.stats()
        transport = server.transport

    summary = report.summary()
    cache = stats["caches"][ENGINE]
    print(
        f"soak: {summary['requests']} requests from {USERS} users "
        f"({summary['rejected']} rejected, {summary['recreated']} recreated), "
        f"p50 {summary['latency_ms']['p50']:.1f} ms, "
        f"p95 {summary['latency_ms']['p95']:.1f} ms, "
        f"hit rate {cache['hit_rate']:.2f}, "
        f"{transport['connections']} connections for "
        f"{transport['requests']} HTTP requests, "
        f"{len(reloads)} reloads"
    )

    failures = []
    if report.errors:
        failures.append(f"user-visible errors: {report.errors[:5]}")
    if stats["errors"]:
        failures.append(f"server recorded {stats['errors']} 5xx faults")
    if summary["completed"] == 0:
        failures.append("no operation completed")
    if cache["hit_rate"] <= 0:
        failures.append("cross-session cache never hit")
    if transport["connections"] > USERS:
        failures.append(
            f"{transport['connections']} connections for {USERS} users: "
            f"the client is not keeping its connection alive"
        )
    lingering = _handler_threads()
    if lingering:
        failures.append(f"handler threads outlived the server: {lingering}")
    leaked = _shm_names() - before
    if leaked:
        failures.append(f"leaked /dev/shm segments: {sorted(leaked)}")
    if not reloads:
        failures.append("no reload landed during the run")
    stale = _stale_replies(replies, reloads, generations)
    if stale:
        failures.append(
            f"{len(stale)} results from a superseded generation: {stale[:5]}"
        )
    if superseded:
        failures.append(
            f"{len(superseded)} cached groups keyed by a superseded "
            f"generation once quiet: {superseded[:3]}"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "serving soak OK: zero 5xx, zero leaked segments, cache shared, "
        "connections kept alive and closed with the server, no stale "
        "generation served or left cached across reloads"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
