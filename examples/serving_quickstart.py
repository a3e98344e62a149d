"""Serving tier quickstart: one server, many tenants, one shared cache.

Everything below ``repro.serving`` runs dashboards inside a single
``repro.connect()`` session that lives as long as its caller. The
serving tier turns that stack into a *service*: a long-lived
:class:`~repro.serving.app.ServingApp` multiplexes many concurrent
user sessions over shared engines, with admission control at the door
and a cross-session result cache in the middle — one tenant's refresh
warms every co-tenant's, byte for byte.

This walkthrough shows:

1. creating sessions for two tenants and watching the second tenant's
   cold refresh get served from the cache the first tenant warmed;
2. the same protocol over the real HTTP socket
   (:class:`~repro.serving.server.DashboardServer` +
   :class:`~repro.serving.server.ServingClient`), including an
   interaction round-trip;
3. overload behavior: a saturated server answers 429 + ``Retry-After``
   instead of hanging;
4. the accounting roll-up (`/stats`): live sessions, admission
   counters, per-engine cache hit rate.

Run with::

    PYTHONPATH=src python examples/serving_quickstart.py
"""

from __future__ import annotations

import os

from repro.dashboard.library import load_dashboard
from repro.serving import (
    DashboardServer,
    ServerReply,
    ServingApp,
    ServingClient,
    ServingConfig,
    encode_interaction,
    results_signature,
)
from repro.workload.datasets import generate_dataset

ROWS = int(os.environ.get("SIMBA_EXAMPLE_ROWS", "5000"))
DASHBOARD = "customer_service"


def in_process_tour(table, spec) -> None:
    """Two tenants, one engine host, one shared cache."""
    print("In-process: two tenants share one engine host")
    with ServingApp(default_engine="sqlite") as app:
        app.load_table(table)
        app.register_dashboard(spec)

        alice = app.create_session("tenant-alice", DASHBOARD)
        bob = app.create_session("tenant-bob", DASHBOARD)
        cold = app.refresh(alice["session_id"])
        warm = app.refresh(bob["session_id"])

        identical = results_signature(cold) == results_signature(warm)
        stats = app.host_for("sqlite").cache.stats
        print(
            f"  alice rendered {len(cold)} visualizations cold; "
            f"bob's refresh hit the cross-session cache "
            f"({stats.hits} hits, hit rate {stats.hit_rate:.2f})"
        )
        print(
            "  verified: served results are "
            + ("byte-identical" if identical else "DIFFERENT (bug!)")
        )
        assert identical and stats.hits > 0
    print()


def http_tour(table, spec) -> None:
    """The same protocol over a real socket, plus an interaction."""
    print("HTTP: stdlib server, persistent HTTP/1.1 client")
    app = ServingApp(default_engine="sqlite")
    app.load_table(table)
    app.register_dashboard(spec)
    with DashboardServer(app) as server, ServingClient(server.url) as client:
        session = client.create_session("tenant-http", DASHBOARD)
        results = client.refresh(session["session_id"])
        print(
            f"  {server.url} -> session {session['session_id']}, "
            f"{len(results)} visualizations rendered"
        )

        # Drive one real interaction end to end: the server applies it,
        # recomputes only the affected visualizations, and returns them.
        state = app.registry.get(session["session_id"]).state
        interaction = state.available_interactions()[0]
        affected, partial = client.interact(
            session["session_id"], encode_interaction(interaction)
        )
        print(
            f"  interaction {interaction.kind.value!r} affected "
            f"{len(affected)} visualization(s); partial refresh returned "
            f"{len(partial)}"
        )
        assert set(affected) == set(partial)

        roll_up = client.stats()
        print(
            f"  /stats: {roll_up['sessions']['live']} live session(s), "
            f"{roll_up['admission']['admitted']} admitted, "
            f"{roll_up['errors']} server faults, "
            f"{roll_up['transport']['requests']} requests over "
            f"{roll_up['transport']['connections']} connection(s)"
        )
        assert roll_up["errors"] == 0
        client.close_session(session["session_id"])
    print()


def overload_tour(table, spec) -> None:
    """A saturated server rejects loudly — 429, never a hang."""
    print("Overload: bounded in-flight, bounded queue, Retry-After")
    config = ServingConfig(
        max_in_flight=1, max_queue_depth=0, queue_timeout=0.2, retry_after=0.5
    )
    app = ServingApp(config, default_engine="sqlite")
    app.load_table(table)
    app.register_dashboard(spec)
    with DashboardServer(app) as server:
        client = ServingClient(server.url)
        session = client.create_session("tenant-burst", DASHBOARD)
        # Hold the only slot so the next request finds the server full.
        with app.admission.slot("tenant-hog"):
            try:
                client.refresh(session["session_id"])
            except ServerReply as reply:
                print(
                    f"  saturated -> HTTP {reply.status}, "
                    f"Retry-After {reply.retry_after:g}s"
                )
                assert reply.status == 429 and reply.retry_after > 0
            else:
                raise AssertionError("expected a 429 while saturated")
        # Slot released: the same request now succeeds.
        results = client.refresh(session["session_id"])
        print(f"  after backoff: refresh served {len(results)} visualizations")
    print()


def main() -> None:
    table = generate_dataset(DASHBOARD, ROWS, seed=11)
    spec = load_dashboard(DASHBOARD)
    in_process_tour(table, spec)
    http_tour(table, spec)
    overload_tour(table, spec)
    print(
        "One process, many tenants: sessions are cheap bookkeeping, "
        "engines are shared and refcounted, and the cross-session cache "
        "turns co-tenant refreshes into lookups. tools/check_serving.py "
        "soaks it with simulated users over HTTP."
    )


if __name__ == "__main__":
    main()
