"""The serving tier's headline contracts.

Five pinned behaviors:

1. **Byte-identity** — results served through the multi-tenant app
   (cold, cross-session-cached, and post-interaction) are identical to
   a direct uncached :class:`repro.Session`, across all four engines ×
   {serial, max_throughput}.
2. **No lost invalidations** — ≥16 tenant threads hammering refreshes
   while ``load_table`` races them; once the dust settles, a fresh
   session must serve the final table's data (a stale cross-session
   cache entry surviving the last invalidation is the bug).
3. **Backpressure** — a saturated server rejects with
   ``Retry-After`` and recovers the moment a slot frees; per-tenant
   fairness caps a chatty tenant when a second becomes active.
4. **Expiry** — the TTL sweep releases engine-host references *and*
   the host's shared-memory exports (proven with the
   ``test_procpool.py`` attach-probe).
5. **HTTP** — the stdlib transport maps the error hierarchy onto
   404/429/400 and round-trips results byte-identically.

Plus the facade regression this PR fixes: no ``/dev/shm`` segment
survives a ``with repro.connect(...)`` block.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from multiprocessing import shared_memory

import pytest

import repro
from repro.concurrency.policy import process_shard_engine
from repro.concurrency.procpool import shared_process_pool
from repro.dashboard.library import load_dashboard
from repro.dashboard.state import DashboardState, InteractionKind
from repro.errors import AdmissionError, UnknownSessionError
from repro.engine.table import Table
from repro.execution import ExecutionPolicy
from repro.serving import (
    AdmissionController,
    DashboardServer,
    ServerReply,
    ServingApp,
    ServingClient,
    ServingConfig,
    encode_interaction,
    results_signature,
)
from repro.serving.registry import EngineHost
from repro.workload import generate_dataset

#: Multi-tenant hammers and HTTP soaks: worth skipping in a quick
#: inner loop via ``-m "not slow"``.
pytestmark = pytest.mark.slow

ENGINES = ("rowstore", "vectorstore", "matstore", "sqlite")

POLICIES = {
    "serial": ExecutionPolicy.serial(),
    "max_throughput": ExecutionPolicy.max_throughput(),
}

DASHBOARD = "customer_service"


@pytest.fixture(scope="module")
def table():
    return generate_dataset(DASHBOARD, 400, seed=3)


@pytest.fixture(scope="module")
def spec():
    return load_dashboard(DASHBOARD)


def make_app(table, spec, config=None, **app_kwargs) -> ServingApp:
    app = ServingApp(config, **app_kwargs)
    app.load_table(table)
    app.register_dashboard(spec)
    return app


def pick_interaction(spec, table):
    """A deterministic data manipulation valid in the default state."""
    shadow = DashboardState(spec, table)
    actions = shadow.available_interactions()
    for action in actions:
        if action.kind is InteractionKind.WIDGET_TOGGLE:
            return action
    return actions[0]


class FakeClock:
    """Injectable monotonic clock for expiry tests (no sleeping)."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# 1. Byte-identity: served == direct, all engines × policies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("engine_name", ENGINES)
def test_served_results_byte_identical_to_direct_session(
    engine_name, policy_name, table, spec
):
    policy = POLICIES[policy_name]
    interaction = pick_interaction(spec, table)

    with repro.connect(engine_name, policy=policy) as direct:
        direct.load(table)
        direct_initial = direct.refresh(DASHBOARD)
        direct_fanout = direct.apply_and_refresh(DASHBOARD, interaction)
        direct_after = direct.refresh(DASHBOARD)

    app = make_app(table, spec)
    with app:
        first = app.create_session(
            "tenant-a", DASHBOARD, engine=engine_name, policy=policy
        )
        cold = app.refresh(first["session_id"])
        # A co-tenant in the same state rides the cross-session cache.
        second = app.create_session(
            "tenant-b", DASHBOARD, engine=engine_name, policy=policy
        )
        warm = app.refresh(second["session_id"])
        host = app.host_for(engine_name)
        assert host.cache.stats.hits > 0
        assert host.cache.stats.served_refreshes >= 1

        affected, fanout = app.interact(
            first["session_id"], encode_interaction(interaction)
        )
        after = app.refresh(first["session_id"])

    assert results_signature(cold) == results_signature(direct_initial)
    assert results_signature(warm) == results_signature(direct_initial)
    assert sorted(affected) == sorted(direct_fanout)
    assert results_signature(fanout) == results_signature(direct_fanout)
    assert results_signature(after) == results_signature(direct_after)
    assert app.error_count == 0


# ---------------------------------------------------------------------------
# 2. Concurrent-tenant hammer: load_table races in-flight refreshes
# ---------------------------------------------------------------------------


def test_no_lost_invalidation_with_16_tenants_racing_load_table(spec):
    versions = [
        generate_dataset(DASHBOARD, rows, seed=7)
        for rows in (200, 260, 320)
    ]
    config = ServingConfig(
        max_in_flight=16, max_queue_depth=64, queue_timeout=30.0
    )
    app = make_app(versions[0], spec, config)
    stop = threading.Event()
    errors: list[Exception] = []

    def tenant(index: int) -> None:
        while not stop.is_set():
            try:
                descriptor = app.create_session(
                    f"tenant-{index}", DASHBOARD, engine="sqlite"
                )
                app.refresh(descriptor["session_id"])
                app.close_session(descriptor["session_id"])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    def reloader() -> None:
        version = 1
        while not stop.is_set():
            try:
                app.load_table(versions[version % len(versions)])
                version += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return
            time.sleep(0.01)

    with app:
        threads = [
            threading.Thread(target=tenant, args=(i,)) for i in range(16)
        ]
        threads.append(threading.Thread(target=reloader))
        for thread in threads:
            thread.start()
        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        assert app.error_count == 0

        # The dust settles on a known final table: a brand-new session
        # must serve exactly its data, not any cached ancestor's.
        final = generate_dataset(DASHBOARD, 380, seed=9)
        app.load_table(final)
        descriptor = app.create_session("tenant-final", DASHBOARD)
        served = app.refresh(descriptor["session_id"])

    with repro.connect("sqlite") as direct:
        direct.load(final)
        expected = direct.refresh(DASHBOARD)
    assert results_signature(served) == results_signature(expected)


def grown(table):
    """The next generation of ``table``: its rows plus a repeat of its
    first tenth (counts and sums move, widget domains do not)."""
    extra = max(1, table.num_rows // 10)
    return Table(
        table.name,
        table.schema,
        {
            name: list(table.column(name)) + list(table.column(name)[:extra])
            for name in table.schema.names
        },
    )


class _JoinSignal(threading.Event):
    """A flight's ``done`` event that reports when a follower waits."""

    def __init__(self, joined: threading.Event) -> None:
        super().__init__()
        self.joined = joined

    def wait(self, timeout=None):
        self.joined.set()
        return super().wait(timeout)


def test_refresh_after_reload_never_rides_a_flight_on_the_old_table(spec):
    """A refresh that starts after ``load_table`` returned must get the
    new table's rows, even while a co-tenant's identical refresh that
    computed on the old table is still in flight."""
    old = generate_dataset(DASHBOARD, 500, seed=3)
    new = grown(old)
    host = EngineHost("vectorstore")
    host.load_table(old)
    engine = host.engine
    computed = threading.Event()
    release = threading.Event()
    real_batch = engine.execute_batch

    def compute_then_block(queries, policy=None):
        results = real_batch(queries, policy)  # computed on the old table
        if not computed.is_set():
            computed.set()
            assert release.wait(timeout=10.0)
        return results

    engine.execute_batch = compute_then_block
    leader = threading.Thread(
        target=host.cache.refresh, args=(DashboardState(spec, old), engine)
    )
    leader.start()
    assert computed.wait(timeout=10.0)
    host.load_table(new)  # returns while the leader is still in flight

    # The follower either joins the leader's flight (and waits on its
    # done event) or computes on its own: either way ``progress`` fires.
    progress = threading.Event()
    (flight,) = host.cache._flight._flights.values()
    flight.done = _JoinSignal(progress)
    box = {}

    def follower():
        box["served"] = host.cache.refresh(DashboardState(spec, new), engine)
        progress.set()

    thread = threading.Thread(target=follower)
    thread.start()
    assert progress.wait(timeout=10.0)
    release.set()
    leader.join(timeout=10.0)
    thread.join(timeout=10.0)
    host.close()

    with repro.connect("vectorstore") as direct:
        direct.load(new)
        expected = direct.refresh(DASHBOARD)
    assert len(box["served"]) == len(expected) == 5
    assert results_signature(box["served"]) == results_signature(expected)


# ---------------------------------------------------------------------------
# 3. Backpressure: rejection, recovery, fairness
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_saturated_server_rejects_with_retry_after_then_recovers(
        self, table, spec
    ):
        config = ServingConfig(
            max_in_flight=1, max_queue_depth=0, retry_after=0.25
        )
        app = make_app(table, spec, config)
        with app:
            descriptor = app.create_session("t", DASHBOARD)
            with app.admission.slot("hog"):
                with pytest.raises(AdmissionError) as excinfo:
                    app.refresh(descriptor["session_id"])
                assert excinfo.value.retry_after == 0.25
            # Recovery: the slot freed, the very next request succeeds.
            results = app.refresh(descriptor["session_id"])
            assert results
            assert app.metrics.counter("serving.rejected", tenant="t") == 1
            assert app.error_count == 0  # a 429 is not a server fault

    def test_queued_request_times_out_with_retry_after(self):
        config = ServingConfig(
            max_in_flight=1,
            max_queue_depth=4,
            queue_timeout=0.05,
            retry_after=1.5,
        )
        controller = AdmissionController(config)
        with controller.slot("hog"):
            start = time.perf_counter()
            with pytest.raises(AdmissionError) as excinfo:
                with controller.slot("waiter"):
                    pass  # pragma: no cover - never admitted
            assert time.perf_counter() - start >= 0.05
            assert excinfo.value.retry_after == 1.5
        snapshot = controller.snapshot()
        assert snapshot["rejected_timeout"] == 1
        assert snapshot["in_flight"] == 0

    def test_second_tenant_halves_the_fair_share_cap(self):
        config = ServingConfig(
            max_in_flight=2, max_queue_depth=8, queue_timeout=5.0
        )
        controller = AdmissionController(config)
        # A lone tenant may use the whole server.
        controller._acquire("a")
        controller._acquire("a")
        admitted = threading.Event()

        def second_tenant() -> None:
            controller._acquire("b")
            admitted.set()

        waiter = threading.Thread(target=second_tenant)
        waiter.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        assert controller.queue_depth == 1
        # One release is enough: b is admitted even though a would also
        # take the slot — with two active tenants a's cap is now 1.
        controller._release("a")
        assert admitted.wait(timeout=5.0)
        # ... and a is indeed capped at 1 while b is active.
        controller.config = config.evolve(queue_timeout=0.05)
        with pytest.raises(AdmissionError):
            controller._acquire("a")
        controller._release("a")
        controller._release("b")
        assert controller.in_flight == 0


# ---------------------------------------------------------------------------
# 4. Expiry sweep: engine refs and shm segments released
# ---------------------------------------------------------------------------


def test_expiry_sweep_releases_engine_refs_and_shm_segments(table, spec):
    clock = FakeClock()
    config = ServingConfig(session_ttl=30.0, sweep_interval=3600.0)
    app = make_app(table, spec, config, clock=clock)
    with app:
        first = app.create_session("a", DASHBOARD, engine="vectorstore")
        second = app.create_session("b", DASHBOARD, engine="vectorstore")
        host = app.host_for("vectorstore")
        assert host.refs == 2

        # Materialize shared-memory exports for the host's engine, as a
        # process-backed refresh would.
        pool = shared_process_pool()
        export = pool.export_table(host.engine, DASHBOARD)
        assert export is not None
        names = [segment.name for segment in export.segments]
        assert names
        for name in names:
            shared_memory.SharedMemory(name=name).close()  # attachable

        clock.advance(10.0)
        app.refresh(first["session_id"])  # touch: first stays fresh
        clock.advance(25.0)  # second idle 35s > ttl; first idle 25s
        assert app.sweep() == [second["session_id"]]
        assert host.refs == 1
        app.refresh(first["session_id"])  # survivor still serves

        clock.advance(31.0)
        assert app.sweep() == [first["session_id"]]
        assert host.refs == 0
        with pytest.raises(UnknownSessionError):
            app.refresh(first["session_id"])

        # The attach-probe: the idle host's segments are truly gone.
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

        # A new arrival finds a working (re-exportable) host.
        third = app.create_session("c", DASHBOARD, engine="vectorstore")
        assert app.refresh(third["session_id"])
        assert host.refs == 1


def test_create_session_sweeps_opportunistically(table, spec):
    clock = FakeClock()
    config = ServingConfig(session_ttl=5.0, sweep_interval=3600.0)
    app = make_app(table, spec, config, clock=clock)
    with app:
        stale = app.create_session("a", DASHBOARD)
        clock.advance(6.0)
        app.create_session("b", DASHBOARD)  # sweeps before creating
        with pytest.raises(UnknownSessionError):
            app.refresh(stale["session_id"])
        assert len(app.registry) == 1


def test_per_tenant_session_cap(table, spec):
    config = ServingConfig(max_sessions_per_tenant=2)
    app = make_app(table, spec, config)
    with app:
        app.create_session("a", DASHBOARD)
        app.create_session("a", DASHBOARD)
        with pytest.raises(AdmissionError):
            app.create_session("a", DASHBOARD)
        app.create_session("b", DASHBOARD)  # other tenants unaffected


# ---------------------------------------------------------------------------
# 5. Session.close() releases pooled segments (facade regression)
# ---------------------------------------------------------------------------


def test_no_shm_segments_survive_a_connect_block(table):
    with repro.connect("vectorstore") as session:
        session.load(table)
        pool = shared_process_pool()
        export = pool.export_table(session.engine, DASHBOARD)
        assert export is not None
        names = [segment.name for segment in export.segments]
        assert names
        for name in names:
            shared_memory.SharedMemory(name=name).close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    # The shared pool itself stays warm for other sessions.
    assert not pool._closed


def test_connect_close_releases_exports_through_wrapper_chain(table):
    with repro.connect("matstore", cache=True) as session:
        session.load(table)
        target = process_shard_engine(session.engine)
        assert target is not session.engine  # CachedEngine wraps it
        pool = shared_process_pool()
        export = pool.export_table(target, DASHBOARD)
        assert export is not None
        names = [segment.name for segment in export.segments]
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# 6. HTTP transport
# ---------------------------------------------------------------------------


class TestHTTP:
    @pytest.fixture()
    def server(self, table, spec):
        app = make_app(table, spec)
        with DashboardServer(app) as server:
            yield server

    def test_end_to_end_byte_identity_and_lifecycle(
        self, server, table, spec
    ):
        client = ServingClient(server.url)
        descriptor = client.create_session("tenant-a", DASHBOARD)
        session_id = descriptor["session_id"]
        assert client.describe_session(session_id)["tenant"] == "tenant-a"

        served = client.refresh(session_id)
        interaction = pick_interaction(spec, table)
        affected, fanout = client.interact(
            session_id, encode_interaction(interaction)
        )

        with repro.connect("sqlite") as direct:
            direct.load(table)
            expected = direct.refresh(DASHBOARD)
            expected_fanout = direct.apply_and_refresh(
                DASHBOARD, interaction
            )
        assert results_signature(served) == results_signature(expected)
        assert sorted(affected) == sorted(expected_fanout)
        assert results_signature(fanout) == results_signature(
            expected_fanout
        )

        assert client.close_session(session_id)["closed"] is True
        with pytest.raises(ServerReply) as excinfo:
            client.refresh(session_id)
        assert excinfo.value.status == 404
        assert server.app.error_count == 0

    def test_http_error_mapping(self, server):
        client = ServingClient(server.url)
        with pytest.raises(ServerReply) as excinfo:
            client.refresh("s-999999")
        assert excinfo.value.status == 404

        descriptor = client.create_session("t", DASHBOARD)
        with pytest.raises(ServerReply) as excinfo:
            client.interact(
                descriptor["session_id"],
                {"kind": "widget_toggle", "target": "nope", "value": 1},
            )
        assert excinfo.value.status == 400

        with pytest.raises(ServerReply) as excinfo:
            client.create_session("t", "no_such_dashboard")
        assert excinfo.value.status == 400
        assert server.app.error_count == 0

    def test_http_backpressure_maps_to_429_with_retry_after(
        self, table, spec
    ):
        config = ServingConfig(
            max_in_flight=1, max_queue_depth=0, retry_after=0.5
        )
        app = make_app(table, spec, config)
        with DashboardServer(app) as server:
            client = ServingClient(server.url)
            descriptor = client.create_session("t", DASHBOARD)
            with app.admission.slot("hog"):
                with pytest.raises(ServerReply) as excinfo:
                    client.refresh(descriptor["session_id"])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.5
            assert client.refresh(descriptor["session_id"])
            stats = client.stats()
            assert stats["admission"]["rejected_queue_full"] == 1
            assert stats["errors"] == 0


# ---------------------------------------------------------------------------
# 6. Keep-alive transport: framing, fault counting, connection lifecycle
# ---------------------------------------------------------------------------


def handler_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if t.name.startswith("serving-conn-") and t.is_alive()
    ]


def wait_until(predicate, timeout: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def json_reply(conn) -> tuple[int, dict, object]:
    response = conn.getresponse()
    return response.status, json.loads(response.read()), response


class OneShotServer:
    """A raw socket that answers every connection's first request with
    ``reply`` and then closes it; counts the connections it accepted."""

    def __init__(self, reply: bytes) -> None:
        self.reply = reply
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                conn.recv(65536)
                conn.sendall(self.reply)

    def close(self) -> None:
        self.listener.close()
        self._thread.join(timeout=2.0)


class TestKeepAlive:
    @pytest.fixture()
    def server(self, table, spec):
        app = make_app(table, spec)
        with DashboardServer(app) as server:
            yield server

    def test_unread_body_does_not_desync_the_next_request(self, server):
        conn = http.client.HTTPConnection(*server.address)
        try:
            conn.request("POST", "/nope", body=b'{"x":1}')
            status, payload, _ = json_reply(conn)
            assert status == 404 and "no route" in payload["error"]
            conn.request("GET", "/healthz")
            status, payload, _ = json_reply(conn)
            assert status == 200 and payload["status"] == "ok"
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_a_400_that_closes(
        self, server, length
    ):
        conn = http.client.HTTPConnection(*server.address)
        try:
            conn.putrequest("POST", "/sessions")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            status, payload, response = json_reply(conn)
        finally:
            conn.close()
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert response.getheader("Connection") == "close"
        assert server.app.error_count == 0

    def test_http_layer_500_is_counted_once(self, server, monkeypatch):
        def broken(results):
            raise RuntimeError("encoder down")

        with ServingClient(server.url) as client:
            session_id = client.create_session("t", DASHBOARD)["session_id"]
            monkeypatch.setattr(
                "repro.serving.server.encode_results", broken
            )
            with pytest.raises(ServerReply) as excinfo:
                client.refresh(session_id)
            assert excinfo.value.status == 500
            assert client.stats()["errors"] == 1
            monkeypatch.undo()

            # A fault inside the request is counted by the app already;
            # the 500 the HTTP layer sends for it must not count twice.
            host = server.app.host_for(server.app.default_engine)
            monkeypatch.setattr(host.cache, "refresh", broken)
            with pytest.raises(ServerReply) as excinfo:
                client.refresh(session_id)
            assert excinfo.value.status == 500
            assert client.stats()["errors"] == 2

    def test_one_client_uses_one_connection(self, server):
        with ServingClient(server.url) as client:
            for _ in range(9):
                client.healthz()
            transport = client.stats()["transport"]
        assert transport == {"connections": 1, "requests": 10}

    def test_close_ends_handler_threads_with_an_idle_connection(
        self, table, spec
    ):
        app = make_app(table, spec)
        server = DashboardServer(app).start()
        client = ServingClient(server.url)
        try:
            client.healthz()
            assert handler_threads()
            start = time.monotonic()
            server.close()  # the client still holds its connection
            assert wait_until(lambda: not handler_threads())
            assert time.monotonic() - start < 2.0
        finally:
            client.close()
            server.close()

    def test_reconnects_after_the_server_closes_an_idle_connection(
        self, server, table, spec
    ):
        with ServingClient(server.url) as client:
            session_id = client.create_session("t", DASHBOARD)["session_id"]
            client.refresh(session_id)
            # Close the server's side of the pooled connection.
            server._httpd.close_connections(timeout=2.0)
            assert wait_until(lambda: not handler_threads())
            affected, results = client.interact(
                session_id, encode_interaction(pick_interaction(spec, table))
            )
            assert affected and set(results) == set(affected)
        assert server.transport["connections"] == 2
        assert server.app.error_count == 0

    def test_a_fresh_connection_failure_is_not_retried(self):
        fake = OneShotServer(b"")  # closes without a reply byte
        try:
            with ServingClient(fake.url, timeout=5.0) as client:
                with pytest.raises(http.client.RemoteDisconnected):
                    client.healthz()
            assert fake.accepted == 1
        finally:
            fake.close()

    def test_a_partial_reply_is_not_retried(self):
        body = b'{"status": "ok"}'
        fake = OneShotServer(
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body
        )
        try:
            with ServingClient(fake.url, timeout=5.0) as client:
                assert client.healthz() == {"status": "ok"}
                # Reused connection, closed by the fake: resent once.
                assert client.healthz() == {"status": "ok"}
                assert wait_until(lambda: fake.accepted == 2)
                fake.reply = b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n{"
                with pytest.raises(http.client.IncompleteRead):
                    client.healthz()
            assert fake.accepted == 3
        finally:
            fake.close()

    def test_no_nagle_stall_on_a_kept_alive_connection(self, server):
        with ServingClient(server.url) as client:
            client.healthz()
            start = time.perf_counter()
            for _ in range(30):
                client.healthz()
            elapsed = time.perf_counter() - start
        # A Nagle/delayed-ACK stall costs about 40 ms on every request.
        assert elapsed < 30 * 0.040 / 2, elapsed
