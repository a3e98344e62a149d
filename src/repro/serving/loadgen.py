"""Simulated dashboard users with think-time, built on IDEBench.

The load generator turns the repo's *workload* machinery into
*traffic*: each simulated user is a thread that creates a session,
keeps a shadow :class:`~repro.dashboard.state.DashboardState` in sync
with the server's, and draws operations from the IDEBench mix
(:class:`~repro.idebench.simulator.IDEBenchConfig` §5.1 probabilities)
with concrete interactions chosen by the
:class:`~repro.simulation.markov.MarkovModel`:

- ``p_create_viz`` → a full dashboard refresh (a view being (re)opened
  renders every visualization — the closest analog on a fixed
  dashboard);
- ``p_link`` → session churn: close the session, create a fresh one,
  initial render (this is what makes *sessions/sec* a real number);
- ``p_remove_filter`` → a clear interaction when one is active;
- the remainder → a Markov-drawn data manipulation.

Between operations users sleep an exponentially distributed think-time
(seeded per user, so runs are reproducible op-for-op). Users degrade
the way real clients should: a 429 honors ``Retry-After``; a 404
(expired session) re-creates and replays from the default state.

Users talk through the :class:`~repro.serving.server.ServingClient`
interface; ``tools/check_serving.py`` drives a
:class:`~repro.serving.server.DashboardServer` with it over HTTP.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.dashboard.spec import DashboardSpec
from repro.dashboard.state import DashboardState, InteractionKind
from repro.engine.table import Table
from repro.errors import AdmissionError, ServingError, UnknownSessionError
from repro.idebench.simulator import IDEBenchConfig
from repro.serving.protocol import encode_interaction
from repro.serving.server import ServerReply
from repro.simulation.markov import MarkovModel
from repro.telemetry.metrics import _percentile

#: Cap on how long a rejected user backs off, so a saturated run still
#: makes forward progress within the benchmark's wall-clock budget.
MAX_BACKOFF_S = 0.5

_CLEAR_KINDS = (InteractionKind.WIDGET_CLEAR, InteractionKind.VIZ_CLEAR)


@dataclass(frozen=True)
class OpRecord:
    """One operation as one user experienced it."""

    user: int
    tenant: str
    kind: str  # refresh | interact | churn | recreate
    latency_ms: float
    status: str  # ok | rejected | recreated | error


@dataclass
class LoadReport:
    """What a load run produced, with honest percentiles."""

    users: int
    wall_s: float
    records: list[OpRecord] = field(default_factory=list)
    sessions_started: int = 0
    errors: list[str] = field(default_factory=list)

    def _latencies(self) -> list[float]:
        return sorted(
            r.latency_ms for r in self.records if r.status == "ok"
        )

    @property
    def requests(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if r.status == "rejected")

    @property
    def recreated(self) -> int:
        return sum(1 for r in self.records if r.status == "recreated")

    def percentile(self, q: float) -> float:
        return _percentile(self._latencies(), q)

    @property
    def sessions_per_sec(self) -> float:
        return self.sessions_started / self.wall_s if self.wall_s else 0.0

    @property
    def requests_per_sec(self) -> float:
        return self.completed / self.wall_s if self.wall_s else 0.0

    def summary(self) -> dict:
        """Counts, rates and latency percentiles as a JSON-safe dict."""
        latencies = self._latencies()
        return {
            "users": self.users,
            "wall_s": round(self.wall_s, 3),
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "recreated": self.recreated,
            "errors": len(self.errors),
            "sessions_started": self.sessions_started,
            "sessions_per_sec": round(self.sessions_per_sec, 3),
            "requests_per_sec": round(self.requests_per_sec, 3),
            "latency_ms": {
                "p50": round(_percentile(latencies, 0.50), 3),
                "p95": round(_percentile(latencies, 0.95), 3),
                "p99": round(_percentile(latencies, 0.99), 3),
                "max": round(latencies[-1], 3) if latencies else 0.0,
            },
        }


class SimulatedUser:
    """One think-type-wait loop against a serving client."""

    def __init__(
        self,
        index: int,
        client,
        spec: DashboardSpec,
        table: Table,
        report: LoadReport,
        report_lock: threading.Lock,
        tenant: str,
        operations: int,
        think_s: float,
        seed: int,
        engine: str | None = None,
        policy=None,
        config: IDEBenchConfig | None = None,
    ) -> None:
        self.index = index
        self.client = client
        self.spec = spec
        self.table = table
        self.report = report
        self.report_lock = report_lock
        self.tenant = tenant
        self.operations = operations
        self.think_s = think_s
        self.engine = engine
        self.policy = policy
        self.config = config or IDEBenchConfig(seed=seed)
        self.rng = random.Random(f"serving:loadgen:{seed}:{index}")
        self.markov = MarkovModel("balanced", random.Random(seed * 7919 + index))
        self.session_id: str | None = None
        self.shadow: DashboardState | None = None

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, kind: str, latency_ms: float, status: str) -> None:
        with self.report_lock:
            self.report.records.append(
                OpRecord(self.index, self.tenant, kind, latency_ms, status)
            )
            if status == "error":
                pass  # message recorded separately by the caller

    def _error(self, message: str) -> None:
        with self.report_lock:
            self.report.errors.append(f"user {self.index}: {message}")

    def _started_session(self) -> None:
        with self.report_lock:
            self.report.sessions_started += 1

    # -- session lifecycle ---------------------------------------------------

    def _open(self) -> None:
        descriptor = self.client.create_session(
            self.tenant, self.spec.name, self.engine, self.policy
        )
        self.session_id = descriptor["session_id"]
        self.shadow = DashboardState(self.spec, self.table)
        self.markov.reset()
        self._started_session()

    def _think(self) -> None:
        if self.think_s > 0:
            time.sleep(
                min(self.rng.expovariate(1.0 / self.think_s), 4 * self.think_s)
            )

    # -- the operation mix ---------------------------------------------------

    def _pick(self):
        """(kind, thunk) for the next operation, IDEBench-distributed."""
        config = self.config
        draw = self.rng.random()
        if draw < config.p_create_viz:
            return "refresh", lambda: self.client.refresh(self.session_id)
        if draw < config.p_create_viz + config.p_link:
            return "churn", self._churn
        if (
            draw
            < config.p_create_viz + config.p_link + config.p_remove_filter
        ):
            clear = [
                a
                for a in self.shadow.available_interactions()
                if a.kind in _CLEAR_KINDS
            ]
            if clear:
                choice = self.rng.choice(clear)
                return "interact", lambda: self._interact(choice)
        interaction = self.markov.next_interaction(self.shadow)
        if interaction is None:
            return "refresh", lambda: self.client.refresh(self.session_id)
        return "interact", lambda: self._interact(interaction)

    def _interact(self, interaction) -> None:
        self.client.interact(
            self.session_id, encode_interaction(interaction)
        )
        self.shadow.apply_affected(interaction)

    def _churn(self) -> None:
        if self.session_id is not None:
            self.client.close_session(self.session_id)
        self._open()
        self.client.refresh(self.session_id)

    # -- the loop ------------------------------------------------------------

    def run(self) -> None:
        try:
            self._open()
            self.client.refresh(self.session_id)  # initial render
        except Exception as exc:
            self._error(f"initial render failed: {exc}")
            self._record("refresh", 0.0, "error")
            return
        for _ in range(self.operations):
            self._think()
            kind, thunk = self._pick()
            start = time.perf_counter()
            try:
                thunk()
            except (AdmissionError, ServerReply) as exc:
                status = getattr(exc, "status", 429)
                if status == 429 or isinstance(exc, AdmissionError):
                    self._record(kind, 0.0, "rejected")
                    time.sleep(
                        min(
                            getattr(exc, "retry_after", 0.0) or MAX_BACKOFF_S,
                            MAX_BACKOFF_S,
                        )
                    )
                elif status == 404:
                    self._recreate(kind)
                else:
                    self._record(kind, 0.0, "error")
                    self._error(str(exc))
            except UnknownSessionError:
                self._recreate(kind)
            except Exception as exc:
                self._record(kind, 0.0, "error")
                self._error(f"{type(exc).__name__}: {exc}")
            else:
                self._record(
                    kind, (time.perf_counter() - start) * 1000.0, "ok"
                )
        try:
            if self.session_id is not None:
                self.client.close_session(self.session_id)
        except Exception as exc:
            self._error(f"close failed: {exc}")

    def _recreate(self, kind: str) -> None:
        """The session expired under us: re-create from the default state."""
        try:
            self._open()
            self.client.refresh(self.session_id)
            self._record(kind, 0.0, "recreated")
        except Exception as exc:
            self._record(kind, 0.0, "error")
            self._error(f"recreate failed: {exc}")


def _run_then_close(user: SimulatedUser) -> None:
    """A user's thread: its operations, then its client's connections."""
    try:
        user.run()
    finally:
        user.client.close()


def run_load(
    client_factory,
    spec: DashboardSpec,
    table: Table,
    users: int = 16,
    operations: int = 6,
    think_s: float = 0.05,
    tenants: int = 4,
    seed: int = 0,
    engine: str | None = None,
    policy=None,
    config: IDEBenchConfig | None = None,
) -> LoadReport:
    """Run ``users`` simulated users to completion; returns the report.

    ``client_factory`` is called once per user (for example ``lambda:
    ServingClient(url)``) and each client is closed when its user
    finishes; users are spread round-robin over ``tenants`` tenant
    labels.
    """
    report = LoadReport(users=users, wall_s=0.0)
    report_lock = threading.Lock()
    simulated = [
        SimulatedUser(
            index=index,
            client=client_factory(),
            spec=spec,
            table=table,
            report=report,
            report_lock=report_lock,
            tenant=f"tenant-{index % max(1, tenants)}",
            operations=operations,
            think_s=think_s,
            seed=seed,
            engine=engine,
            policy=policy,
            config=config,
        )
        for index in range(users)
    ]
    threads = [
        threading.Thread(
            target=_run_then_close, args=(user,),
            name=f"serving-user-{user.index}", daemon=True,
        )
        for user in simulated
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - start
    return report


__all__ = [
    "LoadReport",
    "OpRecord",
    "SimulatedUser",
    "run_load",
]
