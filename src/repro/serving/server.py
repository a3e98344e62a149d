"""HTTP transport for the serving tier: stdlib ``http.server`` only.

A thin adapter — every route delegates to the transport-free
:class:`~repro.serving.app.ServingApp`, so the HTTP layer adds exactly
two things: JSON (de)serialization via :mod:`repro.serving.protocol`
and status-code mapping for the error hierarchy:

====================================  ======
:class:`~repro.errors.UnknownSessionError`   404
:class:`~repro.errors.AdmissionError`        429 + ``Retry-After``
:class:`~repro.errors.InteractionError`,
:class:`~repro.errors.ServingError`,
:class:`~repro.errors.ConfigError`           400
anything else                                500
====================================  ======

Routes::

    POST   /sessions                       create (tenant, dashboard, …)
    GET    /sessions/<id>                  attach / describe
    DELETE /sessions/<id>                  close
    POST   /sessions/<id>/refresh          refresh (optional viz_ids)
    POST   /sessions/<id>/interact         apply + refresh fan-out
    GET    /stats                          accounting roll-up + transport
    GET    /healthz                        liveness

:class:`ServingClient` is the matching persistent HTTP/1.1 client;
the load generator and the CI soak drive the server through it.

Connections are kept alive: a client holds one connection per calling
thread, and the server gives each connection one handler thread for
its lifetime, so a request pays neither a TCP handshake nor a thread
start (nor, on ``sqlite``, a new reader connection).
:meth:`DashboardServer.close` shuts every open connection, so no
handler thread outlives the server.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    AdmissionError,
    ConfigError,
    InteractionError,
    ServingError,
    UnknownSessionError,
)
from repro.serving.app import ServingApp
from repro.serving.protocol import decode_results, encode_results


class _Handler(BaseHTTPRequestHandler):
    """One connection's requests; the app lives on the server object."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"
    # The reply goes out as two writes (headers, then body); with Nagle
    # on, the second waits for the client's delayed ACK of the first,
    # about 40 ms on every request of a kept-alive connection.
    disable_nagle_algorithm = True

    # The default handler writes every request to stderr; a 500-user
    # soak would drown the terminal.
    def log_message(self, format: str, *args: object) -> None:
        pass

    @property
    def app(self) -> ServingApp:
        return self.server.app  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------

    def _body(self) -> dict:
        if not self._payload:
            return {}
        try:
            payload = json.loads(self._payload)
        except ValueError as exc:
            raise ServingError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        return payload

    def _reply(self, status: int, payload: dict, headers=()) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        self.server.count_request()  # type: ignore[attr-defined]
        # The whole body is read before routing: on a kept-alive
        # connection, a body left unread would be parsed as the next
        # request line.
        length = self.headers.get("Content-Length") or "0"
        if not (length.isascii() and length.isdigit()):
            # The stream can no longer be framed: answer, then hang up.
            self._reply(
                400,
                {"error": f"bad Content-Length {length!r}"},
                [("Connection", "close")],
            )
            return
        self._payload = self.rfile.read(int(length))
        self._reply(*self._respond(method))

    def _respond(self, method: str) -> tuple:
        """``(status, payload, headers)`` for the request just read."""
        try:
            route = self._route(method)
        except UnknownSessionError as exc:
            return 404, {"error": str(exc)}, ()
        except AdmissionError as exc:
            return (
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                [("Retry-After", f"{exc.retry_after:g}")],
            )
        except (InteractionError, ServingError, ConfigError) as exc:
            return 400, {"error": str(exc)}, ()
        except Exception as exc:  # the soak asserts this stays at zero
            self.app.count_fault(exc)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, ()
        if route is None:
            return 404, {"error": f"no route {method} {self.path}"}, ()
        return route

    def _route(self, method: str):
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        app = self.app
        if method == "GET" and parts == ["healthz"]:
            return 200, app.healthz(), ()
        if method == "GET" and parts == ["stats"]:
            transport = self.server.transport()  # type: ignore[attr-defined]
            return 200, {**app.stats(), "transport": transport}, ()
        if parts[:1] != ["sessions"]:
            return None
        if method == "POST" and len(parts) == 1:
            body = self._body()
            if "tenant" not in body or "dashboard" not in body:
                raise ServingError(
                    "session creation needs 'tenant' and 'dashboard'"
                )
            return 201, app.create_session(
                tenant=body["tenant"],
                dashboard=body["dashboard"],
                engine=body.get("engine"),
                policy=body.get("policy"),
            ), ()
        if len(parts) < 2:
            return None
        session_id = parts[1]
        if method == "GET" and len(parts) == 2:
            return 200, app.describe_session(session_id), ()
        if method == "DELETE" and len(parts) == 2:
            return 200, app.close_session(session_id), ()
        if method == "POST" and parts[2:] == ["refresh"]:
            body = self._body()
            results = app.refresh(session_id, body.get("viz_ids"))
            return 200, {"results": encode_results(results)}, ()
        if method == "POST" and parts[2:] == ["interact"]:
            body = self._body()
            if "interaction" not in body:
                raise ServingError("interact needs an 'interaction'")
            affected, results = app.interact(
                session_id, body["interaction"]
            )
            return 200, {
                "affected": affected,
                "results": encode_results(results),
            }, ()
        return None

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class _Server(ThreadingHTTPServer):
    """Thread per connection, with every open connection tracked so
    :meth:`close_connections` can end them."""

    # The stdlib default listen backlog (5) resets connections when a
    # load generator opens dozens of sockets at once; admission control
    # is the serving tier's job, not the kernel accept queue's.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], app: ServingApp) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self._lock = threading.Lock()
        self._connections = 0
        self._requests = 0
        #: Open connection -> the handler thread serving it.
        self._open: dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._connections += 1
            thread = threading.Thread(
                target=self.process_request_thread,
                args=(request, client_address),
                name=f"serving-conn-{self._connections}",
                daemon=True,
            )
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def count_request(self) -> None:
        with self._lock:
            self._requests += 1

    def transport(self) -> dict:
        with self._lock:
            return {
                "connections": self._connections,
                "requests": self._requests,
            }

    def close_connections(self, timeout: float) -> None:
        """Stop reading every open connection; wait for their threads.

        A request in flight still gets its reply; an idle connection's
        thread wakes from its blocking read with EOF and ends.
        """
        with self._lock:
            open_now = list(self._open.items())
        for request, _ in open_now:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its own thread
                pass
        deadline = time.monotonic() + timeout
        for _, thread in open_now:
            thread.join(max(0.0, deadline - time.monotonic()))


class DashboardServer:
    """A listening serving tier: one app behind ``ThreadingHTTPServer``.

    Binds ``host:port`` (port 0 picks a free one) but only serves once
    :meth:`start` runs. Each client connection gets one handler thread
    for as long as it stays open. Use as a context manager::

        app = ServingApp().load_table(table)
        app.register_dashboard(spec)
        with DashboardServer(app) as server:
            client = ServingClient(server.url)
            ...
    """

    def __init__(
        self, app: ServingApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self._httpd = _Server((host, port), app)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def transport(self) -> dict:
        """Connections accepted and requests handled so far (also
        reported by ``GET /stats`` under ``"transport"``)."""
        return self._httpd.transport()

    def start(self) -> "DashboardServer":
        self.app.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="serving-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, end every open connection, close the app."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.close_connections(timeout=5.0)
        self._httpd.server_close()
        self.app.close()

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: How a kept-alive connection the server has closed fails before any
#: reply byte arrives; only then is resending the request safe.
_STALE = (
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
)


def _close_all(connections: list) -> None:
    for conn in connections:
        conn.close()


class ServingClient:
    """Persistent HTTP/1.1 client speaking the server's JSON protocol.

    Keeps one connection per calling thread, so one client shared by
    several threads stays safe and concurrent. A request that fails on
    a reused connection before any reply byte arrives (the server
    closed it while idle) is resent once on a fresh one; nothing else
    is retried. :meth:`close` (or leaving a ``with`` block) closes
    every connection; the client reconnects if used again.

    Raises :class:`ServerReply` for non-2xx responses so callers can
    branch on ``status`` (429 → honor ``retry_after``, 404 →
    re-create the session) without parsing exception text.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ConfigError(
                f"ServingClient needs an http://host:port URL, "
                f"got {base_url!r}"
            )
        self._host = parts.hostname
        self._port = parts.port or 80
        self._prefix = parts.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []
        # A client dropped without close() still releases its sockets
        # (and so the server's handler threads) once it is collected.
        weakref.finalize(self, _close_all, self._connections)

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def _send(self, conn, method: str, path: str, data: bytes):
        conn.request(
            method,
            self._prefix + path,
            body=data,
            headers={
                "Content-Type": "application/json",
                "Content-Length": str(len(data)),
            },
        )
        return conn.getresponse()

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        data = b"" if body is None else json.dumps(body).encode()
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                response = self._send(conn, method, path, data)
            except _STALE:
                if not reused:
                    raise
                conn.close()
                response = self._send(conn, method, path, data)
            raw = response.read()
        except BaseException:
            conn.close()  # a half-used connection is never reused
            raise
        if 200 <= response.status < 300:
            return json.loads(raw or b"{}")
        try:
            payload = json.loads(raw or b"{}")
        except ValueError:
            payload = {}
        raise ServerReply(
            response.status,
            payload.get(
                "error", f"HTTP Error {response.status}: {response.reason}"
            ),
            retry_after=float(
                payload.get("retry_after")
                or response.getheader("Retry-After")
                or 0.0
            ),
        )

    def close(self) -> None:
        """Close every connection this client has opened."""
        with self._lock:
            connections = list(self._connections)
        _close_all(connections)

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def create_session(
        self, tenant: str, dashboard: str, engine=None, policy=None
    ) -> dict:
        body = {"tenant": tenant, "dashboard": dashboard}
        if engine is not None:
            body["engine"] = engine
        if policy is not None:
            body["policy"] = policy
        return self._call("POST", "/sessions", body)

    def describe_session(self, session_id: str) -> dict:
        return self._call("GET", f"/sessions/{session_id}")

    def close_session(self, session_id: str) -> dict:
        return self._call("DELETE", f"/sessions/{session_id}")

    def refresh(self, session_id: str, viz_ids=None) -> dict:
        body = {} if viz_ids is None else {"viz_ids": list(viz_ids)}
        reply = self._call("POST", f"/sessions/{session_id}/refresh", body)
        return decode_results(reply["results"])

    def interact(self, session_id: str, interaction: dict) -> tuple:
        reply = self._call(
            "POST",
            f"/sessions/{session_id}/interact",
            {"interaction": interaction},
        )
        return reply["affected"], decode_results(reply["results"])

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def healthz(self) -> dict:
        return self._call("GET", "/healthz")


class ServerReply(ServingError):
    """A non-2xx HTTP reply, surfaced with its status and hint."""

    def __init__(
        self, status: int, message: str, retry_after: float = 0.0
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


__all__ = [
    "DashboardServer",
    "ServerReply",
    "ServingClient",
]
