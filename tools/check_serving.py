"""CI soak for the serving tier: simulator traffic over real HTTP.

Starts one :class:`~repro.serving.server.DashboardServer`, drives it
with IDEBench-mix simulated users through the persistent HTTP/1.1
client (the real socket path, not the in-process shortcut), on the
**processes** execution backend so shared-memory exports are actually
created, and then asserts the four things the serving tier promises:

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
   handler thread is left once the server closes.

Usage: ``PYTHONPATH=src python tools/check_serving.py``
"""

from __future__ import annotations

import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dashboard.library import load_dashboard
from repro.serving import DashboardServer, ServingApp, ServingClient, ServingConfig
from repro.serving.loadgen import run_load
from repro.workload import generate_dataset

DASHBOARD = "customer_service"
ENGINE = "vectorstore"
USERS = 16
OPERATIONS = 5

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


def main() -> int:
    table = generate_dataset(DASHBOARD, 4000, seed=7)
    spec = load_dashboard(DASHBOARD)
    before = _shm_names()

    app = ServingApp(CONFIG, default_engine=ENGINE)
    app.load_table(table)
    app.register_dashboard(spec)
    with DashboardServer(app) as server:
        report = run_load(
            lambda: ServingClient(server.url),
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
        f"{transport['requests']} HTTP requests"
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

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "serving soak OK: zero 5xx, zero leaked segments, cache shared, "
        "connections kept alive and closed with the server"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
