"""The five workloads: seeded inputs, closed-loop drivers, correctness oracle.

Every workload has the same life cycle, driven by ``run.py``:

``setup()``      build everything the timed pass needs from the seed:
                 datasets, engines or server, and a *pool* of scripted
                 sessions cut into **rounds** — small batches with the
                 same mix (one session per dashboard, say);
``prepare()``    benchmark-side bookkeeping that is not set-up cost:
                 input hashes and the oracle's expected results;
``run_round()``  run one round, recording an ``Op`` per user-visible
                 operation;
``verify(ops)``  compare every stored result with the oracle;
``teardown()``   close what ``setup()`` opened.

An untraced timed pass replays the whole pool, again and again, until
the requested seconds are over: every run of a seed measures the same
ops in the same mix. A traced pass runs the pool exactly once: fixed
work, so counts repeat exactly run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import queue
import random
import threading
import time
from dataclasses import dataclass

from repro.dashboard.library import DASHBOARD_NAMES, load_dashboard
from repro.dashboard.state import DashboardState
from repro.engine import create_engine
from repro.engine.interface import Engine
from repro.execution import ExecutionPolicy
from repro.facade import connect
from repro.sql.formatter import format_query
from repro.workload import generate_dataset
from repro.workloadgen import generate_session

perf = time.perf_counter

SMOKE_ROWS = 2_000


def digest(value) -> str:
    """sha256 of a JSON-serialisable value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def table_sample(table) -> list:
    """Every 97th row of a table — enough to pin the generated data."""
    return [
        [repr(v) for v in table.column(name)[::97]]
        for name in table.schema.names
    ]


def signature_entry(result) -> tuple:
    """One result set as ``(columns, rows sorted by repr)`` — the same
    identity ``repro.serving.protocol.results_signature`` uses."""
    return (tuple(result.columns), tuple(sorted(result.rows, key=repr)))


def close_entries(got: list[tuple], want: list[tuple]) -> bool:
    """Equal up to float rounding in the last digits — the documented
    exactness boundary of sharded SUM/AVG, whose partial sums
    re-associate floating-point addition."""
    if len(got) != len(want):
        return False
    for (g_columns, g_rows), (w_columns, w_rows) in zip(got, want):
        if g_columns != w_columns or len(g_rows) != len(w_rows):
            return False
        for g_row, w_row in zip(g_rows, w_rows):
            if len(g_row) != len(w_row):
                return False
            for g, w in zip(g_row, w_row):
                if g != w and not (
                    isinstance(g, float) and isinstance(w, float)
                    and math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12)
                ):
                    return False
    return True


@dataclass
class Op:
    """One user-visible operation of the timed pass."""

    session: int  # number of the scripted session within the pass
    step: int  # 0 is the session's first op (the cold render)
    script: int  # which script of the pool the session replays
    start: float
    end: float
    #: What the program returned (checked against the oracle, then
    #: dropped), or the exception it raised.
    outcome: object
    kind: str = "op"

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Recorder:
    """Collects ops; in a traced run also opens one root span per op.
    Shared by the client threads of the serving workloads."""

    def __init__(self, tracer=None, first_session: int = 0) -> None:
        self.ops: list[Op] = []
        self.tracer = tracer
        self._sessions = first_session
        self._lock = threading.Lock()

    @property
    def sessions(self) -> int:
        """Session numbers handed out so far (the next one's number)."""
        return self._sessions

    def new_session(self) -> int:
        with self._lock:
            self._sessions += 1
            return self._sessions - 1

    def timed(self, session, step, script, fn, *args, kind="op", key=None):
        """Run ``fn(*args)`` as one op. A raised exception is the op's
        outcome: the run keeps going and reports it as a failure."""
        tracer = self.tracer
        token = None
        if tracer is not None:
            token = tracer.open_op((session, step), key)
        start = perf()
        try:
            outcome = fn(*args)
        except Exception as exc:  # reported by verify(), never swallowed
            outcome = exc
        end = perf()
        if token is not None:
            tracer.close_op(token, start, end)
        op = Op(session, step, script, start, end, outcome, kind)
        self.ops.append(op)
        return op


class Oracle:
    """Expected results from quiesced direct engines.

    One engine per table generation, the same engine kind the workload
    measures, each distinct query executed once under
    ``ExecutionPolicy.serial()`` and memoised by its canonical text.
    """

    def __init__(self, engine_name: str) -> None:
        self.engine_name = engine_name
        self._engines: dict[int, Engine] = {}
        self._memo: dict[tuple[int, str], tuple] = {}
        self._serial = ExecutionPolicy.serial()

    def load(self, table, generation: int = 0) -> None:
        engine = self._engines.get(generation)
        if engine is None:
            engine = self._engines[generation] = create_engine(self.engine_name)
        engine.load_table(table)

    def expected(self, queries, generation: int = 0) -> list[tuple]:
        """Signature entries for ``queries``, positionally aligned."""
        keys = [(generation, format_query(q)) for q in queries]
        missing = {}
        for key, query in zip(keys, queries):
            if key not in self._memo:
                missing[key] = query
        if missing:
            timed = self._engines[generation].execute_batch(
                list(missing.values()), self._serial
            )
            for key, result in zip(missing, timed):
                self._memo[key] = signature_entry(result.result)
        return [self._memo[key] for key in keys]

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()


@dataclass
class Script:
    """One scripted session: a dashboard and the interactions to apply."""

    dashboard: str
    seed: int
    steps: tuple

    def to_dict(self) -> dict:
        return {
            "dashboard": self.dashboard,
            "seed": self.seed,
            "steps": [repr(step) for step in self.steps],
        }


def render(script: Script, spec, table) -> list[tuple[list[str], list]]:
    """The script's per-op fan-out: ``[(viz ids, queries)]``, op 0 being
    the unfiltered render of every visualization."""
    state = DashboardState(spec, table)
    ids = sorted(state.visualizations)
    rendered = [(ids, [state.query_for(v) for v in ids])]
    for step in script.steps:
        affected = state.apply_affected(step)
        if not affected:
            raise RuntimeError(
                f"{script.dashboard} step {step!r} refreshes nothing; "
                f"every scripted interaction must be a visible op"
            )
        rendered.append((affected, [state.query_for(v) for v in affected]))
    return rendered


class Workload:
    """Shared plumbing; see the module docstring for the life cycle."""

    name = ""
    root_layer = ""  # the layer an op's own (root) span belongs to
    engine_name = "sqlite"
    dashboards: tuple[str, ...] = tuple(DASHBOARD_NAMES)
    rows_full = 20_000
    #: Rounds in the pool: full size, smoke.
    rounds_full = 1
    rounds_smoke = 1
    steps = 12  # interactions per scripted session
    clients = 1  # closed-loop client threads
    #: Rounds of the untimed warm-up pass; 0 is the whole pool.
    warm_rounds = 1
    #: Results must equal the oracle's byte for byte.
    exact = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rows = SMOKE_ROWS if smoke else self.rows_full
        self.pool_rounds = self.rounds_smoke if smoke else self.rounds_full
        self.specs = {}
        self.tables = {}
        self.scripts: list[Script] = []
        self.rounds: list[list] = []
        self.oracle: Oracle | None = None
        self.expected: list[list[list[tuple]]] = []
        self.wrong: list[str] = []
        #: Seconds of the last set-up spent at two layers' boundaries.
        self.timing = {"generate_s": 0.0, "load_table_s": 0.0}

    # -- set-up pieces shared by the scripted workloads ----------------------

    def _timed(self, bucket: str, fn, *args, **kwargs):
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self.timing[bucket] += perf() - start

    def _generate_tables(self) -> None:
        self.timing = dict.fromkeys(self.timing, 0.0)
        for name in self.dashboards:
            self.specs[name] = load_dashboard(name)
            self.tables[name] = self._timed(
                "generate_s", generate_dataset, name, self.rows, seed=self.seed
            )

    def _generate_scripts(self) -> None:
        """One session per dashboard per round of the pool."""
        self.scripts = []
        self.rounds = []
        for k in range(self.pool_rounds):
            self.rounds.append([])
            for name in self.dashboards:
                session_seed = self.seed * 1000 + k
                generated = generate_session(
                    self.specs[name], self.tables[name],
                    length=self.steps, seed=session_seed,
                )
                self.rounds[-1].append(len(self.scripts))
                self.scripts.append(Script(name, session_seed, generated.steps))

    def _wrong(self, op: Op, message: str) -> None:
        self.wrong.append(
            f"session {op.session} step {op.step} script {op.script}: {message}"
        )

    def _failed_outcome(self, op: Op) -> bool:
        if isinstance(op.outcome, Exception):
            self._wrong(op, f"{type(op.outcome).__name__}: {op.outcome}")
            return True
        return False

    # -- life cycle ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Expected signature entries per (script, op), from the oracle."""
        self.oracle = Oracle(self.engine_name)
        for table in self.tables.values():
            self.oracle.load(table)
        self.rendered = [
            render(s, self.specs[s.dashboard], self.tables[s.dashboard])
            for s in self.scripts
        ]
        self.expected = [
            [self.oracle.expected(queries) for _, queries in ops]
            for ops in self.rendered
        ]

    def inputs(self) -> dict:
        """Everything generated from the seed, for hashing."""
        return {
            "rows": self.rows,
            "data": {n: table_sample(t) for n, t in self.tables.items()},
            "scripts": [s.to_dict() for s in self.scripts],
            "rounds": self.rounds,
        }

    def input_hashes(self) -> dict:
        hashes = {"inputs": digest(self.inputs())}
        if self.expected:
            hashes["expected"] = digest(self.expected)
        return hashes

    def run_round(self, index: int, rec: Recorder) -> None:
        raise NotImplementedError

    def verify(self, ops: list[Op]) -> int:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.oracle is not None:
            self.oracle.close()
            self.oracle = None

    def facts(self) -> dict:
        """Counters the program or the workload keeps (cumulative)."""
        return {}


# ---------------------------------------------------------------------------
# explore / replay-tuned: one direct Session per dashboard
# ---------------------------------------------------------------------------


class _DirectWorkload(Workload):
    policy = ExecutionPolicy()
    root_layer = "facade"  # an op is one call into repro.facade.Session

    def setup(self) -> None:
        self._generate_tables()
        self.sessions = self._connect(cache=False)
        self._generate_scripts()

    def _connect(self, cache: bool) -> dict:
        sessions = {}
        for name, table in self.tables.items():
            session = connect(self.engine_name, policy=self.policy, cache=cache)
            self._timed("load_table_s", session.load, table)
            sessions[name] = session
        return sessions

    def teardown(self) -> None:
        for session in getattr(self, "sessions", {}).values():
            session.close()
        self.sessions = {}
        super().teardown()

    def verify(self, ops: list[Op]) -> int:
        failed = 0
        for op in ops:
            if self._failed_outcome(op):
                failed += 1
                continue
            got = self._entries(op)
            want = self.expected[op.script][op.step]
            if got != want and (self.exact or not close_entries(got, want)):
                self._wrong(op, "result differs from the oracle")
                failed += 1
        return failed


class Explore(_DirectWorkload):
    """What the README quickstart gives a user: vectorstore, the default
    policy, no cache, driven through ``Session.refresh`` /
    ``Session.apply_and_refresh``. The bypass workload for every
    optimiser tier, cache and the serving tier."""

    name = "explore"
    engine_name = "vectorstore"
    rows_full = 10_000
    rounds_full = 12

    def _open(self, session, spec, table):
        # What ``session.refresh(name)`` does on a fresh session: build
        # the dashboard state, then render every visualization.
        self._state = DashboardState(spec, table)
        return session.refresh(self._state)

    def run_cached(self, rec: Recorder) -> None:
        """The pool once on ``connect(cache=True)`` sessions. No workload
        reaches ``CachedEngine``; the traced run adds this pass, outside
        the timed wall, only to report the ``engine.cache.*`` numbers."""
        cached = self._connect(cache=True)
        try:
            for index in range(len(self.rounds)):
                self.run_round(index, rec, cached)
        finally:
            for session in cached.values():
                session.close()

    def run_round(self, index: int, rec: Recorder, sessions=None) -> None:
        sessions = sessions or self.sessions
        for number in self.rounds[index]:
            script = self.scripts[number]
            name = script.dashboard
            session = sessions[name]
            sid = rec.new_session()
            rec.timed(sid, 0, number, self._open, session, self.specs[name],
                      self.tables[name])
            state = self._state
            for step, interaction in enumerate(script.steps, start=1):
                rec.timed(sid, step, number, session.apply_and_refresh, state,
                          interaction)

    def _entries(self, op: Op) -> list[tuple]:
        ids = self.rendered[op.script][op.step][0]
        return [signature_entry(op.outcome[v].result) for v in ids]


class ReplayTuned(_DirectWorkload):
    """The same questions as SQL text through ``Session.execute_batch`` on
    sqlite with explicit knobs. The scan runs in C, so parse, planner,
    fuse, multiplan, shard plan and merge, and the pool are each op."""

    name = "replay-tuned"
    engine_name = "sqlite"
    #: Explicit knobs, not ``max_throughput()``: that preset sizes itself
    #: from ``os.cpu_count()`` and would change the workload per host.
    policy = ExecutionPolicy(workers=2, shards=2, multiplan=True)
    #: Sharded float SUM/AVG agree with serial execution to IEEE rounding
    #: only (sharding's documented boundary, ROADMAP "known holes").
    exact = False
    #: Small tables: every batch call spawns a pool whose threads each
    #: snapshot the database, a cost that grows with the rows and would
    #: otherwise bury the Python layers this workload is about.
    rows_full = 4_000
    rounds_full = 16

    def prepare(self) -> None:
        super().prepare()
        #: The replayed log: per script, per op, the SQL text to execute.
        self.sql = [
            [[format_query(q) for q in queries] for _, queries in ops]
            for ops in self.rendered
        ]

    def inputs(self) -> dict:
        return {**super().inputs(), "sql": self.sql}

    def run_round(self, index: int, rec: Recorder) -> None:
        for number in self.rounds[index]:
            session = self.sessions[self.scripts[number].dashboard]
            sid = rec.new_session()
            for step, batch in enumerate(self.sql[number]):
                rec.timed(sid, step, number, session.execute_batch, batch)

    def _entries(self, op: Op) -> list[tuple]:
        return [signature_entry(timed.result) for timed in op.outcome]


# ---------------------------------------------------------------------------
# simulate: the paper's Oracle + Markov session, driven directly
# ---------------------------------------------------------------------------


class BoundaryEngine(Engine):
    """Delegating proxy around the measured engine.

    The simulator offers no per-step hook, so op boundaries are taken
    from outside: the proxy notes when each call into the engine under
    test starts and completes (and what it returned, for the oracle).
    """

    def __init__(self, inner: Engine) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls: list[tuple] = []  # (query, result, start, end)

    def load_table(self, table) -> None:
        self.inner.load_table(table)

    def execute(self, query):
        start = perf()
        result = self.inner.execute(query)
        self.calls.append((query, result, start, perf()))
        return result

    def close(self) -> None:
        self.inner.close()


class Simulate(Workload):
    """The paper's product: ``SessionSimulator`` (Oracle + Markov) on a
    measured sqlite engine with the default, serial ``SessionConfig``.
    Candidate scoring, the result cache and the reference engine are
    most of the work; the measured scan is not."""

    name = "simulate"
    root_layer = "simulation"  # the traced unit is SessionSimulator.run()
    #: One dashboard, the paper's running example. An op here costs 5 to
    #: 150 ms depending on what the Oracle has to score, and the slow
    #: ops belong to few (dashboard, workflow) pairs: mixed with other
    #: dashboards they are about 5 % of all ops, so the 95th percentile
    #: sits on the edge between two populations and moved 20-40 % from
    #: seed to seed however many sessions were drawn. On this dashboard
    #: alone they are a sixth of the ops and the percentile lies among
    #: them.
    dashboards = ("customer_service",)
    workflows = ("shneiderman", "crossfilter")
    rows_full = 10_000
    #: The reference table (goal bookkeeping) — the paper's setup keeps
    #: it small and separate from the system under test.
    reference_rows = 1_000
    #: Goal draws per (dashboard, workflow); a round is one draw of each.
    rounds_full = 12

    def setup(self) -> None:
        from repro.simulation import get_workflow

        self._generate_tables()
        self.references = {
            name: self._timed(
                "generate_s", generate_dataset, name,
                min(self.rows, self.reference_rows), seed=self.seed,
            )
            for name in self.dashboards
        }
        self.measured = {}
        for name, table in self.tables.items():
            engine = create_engine(self.engine_name)
            self._timed("load_table_s", engine.load_table, table)
            self.measured[name] = engine
        # Goals come from string-seeded generators: BenchmarkRunner seeds
        # them with hash((seed, "<str>", ...)), which is salted per
        # process, so the same config is a different load every run.
        self.plans = []
        self.rounds = []
        for k in range(self.pool_rounds):
            self.rounds.append([])
            for workflow in self.workflows:
                for name in self.dashboards:
                    rng = random.Random(
                        f"e2e:simulate:{self.seed}:{name}:{workflow}:{k}"
                    )
                    goals = get_workflow(workflow).instantiate_for_dashboard(
                        self.specs[name], rng
                    )
                    self.rounds[-1].append(len(self.plans))
                    self.plans.append(
                        (name, workflow, self.seed * 1000 + k,
                         [g.query for g in goals])
                    )

    def prepare(self) -> None:
        self.oracle = Oracle(self.engine_name)
        for table in self.tables.values():
            self.oracle.load(table)
        #: Emitted SQL per plan, from the first time it ran: a session
        #: must repeat itself exactly whenever the pool wraps around.
        self.emitted: dict[int, str] = {}
        self.counters = dict.fromkeys(
            ("sessions", "goals_completed", "goals_total"), 0)
        self.counters.update(engine_seconds=0.0, run_seconds=0.0)

    def inputs(self) -> dict:
        return {
            "rows": self.rows,
            "data": {n: table_sample(t) for n, t in self.tables.items()},
            "plans": [
                (name, workflow, seed, [format_query(g) for g in goals])
                for name, workflow, seed, goals in self.plans
            ],
            "rounds": self.rounds,
        }

    def run_round(self, index: int, rec: Recorder) -> None:
        from repro.simulation import SessionConfig, SessionSimulator

        for number in self.rounds[index]:
            name, workflow, seed, goals = self.plans[number]
            reference = create_engine("vectorstore")
            reference.load_table(self.references[name])
            proxy = BoundaryEngine(self.measured[name])
            simulator = SessionSimulator(
                self.specs[name], self.references[name], goals,
                measured_engine=proxy, reference_engine=reference,
                config=SessionConfig(seed=seed), workflow_name=workflow,
            )
            sid = rec.new_session()
            token = None
            if rec.tracer is not None:
                token = rec.tracer.open_op((sid, 0), None)
            start = perf()
            log = simulator.run()
            end = perf()
            if token is not None:
                rec.tracer.close_op(token, start, end)
            reference.close()
            self._record(rec, sid, number, log, proxy.calls, start)
            counters = self.counters
            counters["sessions"] += 1
            counters["goals_completed"] += log.goals_completed
            counters["goals_total"] += log.goals_total
            counters["run_seconds"] += end - start
            counters["engine_seconds"] += sum(c[3] - c[2] for c in proxy.calls)

    def _record(self, rec, sid, plan, log, calls, start) -> None:
        """Cut the session into ops at the completion of each step's last
        call into the measured engine (decide + apply + measure)."""
        done = 0
        step = 0
        for record in log.records:
            if not record.queries:
                continue  # a step that emitted nothing folds into the next
            batch = calls[done:done + len(record.queries)]
            done += len(batch)
            end = batch[-1][3]
            rec.ops.append(Op(sid, step, plan, start, end, batch))
            start = end
            step += 1

    def verify(self, ops: list[Op]) -> int:
        failed = 0
        emitted: dict[int, list[str]] = {}
        plans: dict[int, int] = {}
        for op in ops:
            queries = [call[0] for call in op.outcome]
            want = self.oracle.expected(queries)
            got = [signature_entry(call[1]) for call in op.outcome]
            emitted.setdefault(op.session, []).extend(
                format_query(q) for q in queries
            )
            plans[op.session] = op.script
            if got != want:
                self._wrong(op, "measured result differs from the oracle")
                failed += 1
        for session, sql in emitted.items():
            first = self.emitted.setdefault(plans[session], digest(sql))
            if digest(sql) != first:
                self.wrong.append(
                    f"session {session}: plan {plans[session]} emitted a "
                    f"different query sequence than its first run"
                )
                failed += 1
        return failed

    def teardown(self) -> None:
        for engine in getattr(self, "measured", {}).values():
            engine.close()
        self.measured = {}
        super().teardown()

    def facts(self) -> dict:
        return dict(self.counters)


# ---------------------------------------------------------------------------
# serve / serve-reload: the HTTP serving tier, two closed-loop clients
# ---------------------------------------------------------------------------


class Serve(Workload):
    """The served read path when co-tenants share work: six dashboards
    over real HTTP on loopback, two closed-loop clients with zero think
    time, four tenants, and a cross-session cache sized to hold every
    script's results. Transport, admission, registry and cache hits are
    the op; the engine is mostly skipped. Identical to ``serve-reload``
    in tables and scripts, so the two differ only in what that workload
    adds: a cache a ninth the size of the working set, and reloads."""

    name = "serve"
    root_layer = "serving.server"  # an op is one ServingClient request
    clients = 2
    tenants = 4
    #: Every request thread snapshots the whole SQLite database; what
    #: the serving workloads are about is the tier above the scan.
    rows_full = 5_000
    #: Sixty scripts: with fewer, what a seed happens to draw decides
    #: the tail. They touch about 1 100 (table, predicate) groups ...
    scripts_per_dashboard = 10
    #: ... so the cache is sized to hold them (the default is 128).
    cache_capacity = 2048
    #: The scripts, shuffled, are dealt into two rounds of thirty; long
    #: enough that waiting for the slower client at a round's end is noise.
    rounds_full = 2
    #: The warm-up replays the whole pool: the cache has to hold every
    #: script's results before timing starts.
    warm_rounds = 0
    reloads_tables = False

    def _config(self):
        from repro.serving import ServingConfig

        return ServingConfig(cache_capacity=self.cache_capacity)

    def setup(self) -> None:
        from repro.serving import DashboardServer, ServingApp
        from repro.serving.protocol import encode_interaction

        self._generate_tables()
        self.app = ServingApp(self._config())
        for name, table in self.tables.items():
            self.app.load_table(table)
            self.app.register_dashboard(self.specs[name])
        self.server = DashboardServer(self.app).start()
        # Builds the shared engine and loads every table into it.
        self._timed("load_table_s", self.app.host_for, self.app.default_engine)
        count = 1 if self.smoke else self.scripts_per_dashboard
        self.scripts = []
        for k in range(count):
            for name in self.dashboards:
                session_seed = self.seed * 1000 + k
                generated = generate_session(
                    self.specs[name], self.tables[name],
                    length=self.steps, seed=session_seed,
                )
                self.scripts.append(Script(name, session_seed, generated.steps))
        self.wire = [
            [encode_interaction(step) for step in script.steps]
            for script in self.scripts
        ]
        self._generate_reloads()
        self._schedule()

    def _generate_reloads(self) -> None:
        self.generations = {name: [t] for name, t in self.tables.items()}

    def _schedule(self) -> None:
        """Each round's work list: the order sessions replay the scripts
        in and, for serve-reload, where the table reloads fall.

        The shuffled sessions are cut into one stretch per dashboard
        (ten sessions, 130 ops). A stretch ends with a session on its
        dashboard and, for serve-reload, a reload of that table: the
        client that pulls the reload does so while the other client is
        still inside that session, so the write lands beside reads of
        the same table rather than beside an idle dashboard. Every table
        is reloaded once per pass; when the table followed whichever
        session a fixed op count fell on, a seed reloaded one table
        twice and another never, and as the tables cost different
        amounts to rescan, ``first_op_mean_ms`` moved 20 % with it.
        """
        rng = random.Random(f"e2e:{self.name}:schedule:{self.seed}")
        tables = list(self.dashboards)
        rng.shuffle(tables)
        rest = list(range(len(self.scripts)))
        rng.shuffle(rest)
        # Ten sessions to a stretch; a smoke pool (one script per
        # dashboard) still gets three reloads.
        stretches = max(len(self.scripts) // 10, len(tables) // 2)
        closing = []
        for number in range(stretches):
            table = tables[number % len(tables)]
            closing.append(next(
                script for script in rest
                if self.scripts[script].dashboard == table))
            rest.remove(closing[-1])
        work = []
        for number, last in enumerate(closing):
            work.append([("session", s) for s in rest[number::stretches]])
            work[-1].append(("session", last))
            if self.reloads_tables:
                work[-1].append(("reload", self.scripts[last].dashboard))
        per_round = stretches // self.pool_rounds
        self.rounds = [
            sum(work[k * per_round:(k + 1) * per_round], [])
            for k in range(self.pool_rounds)
        ]

    def prepare(self) -> None:
        from repro.engine.planner import scan_signature

        self.oracle = Oracle(self.engine_name)
        for generations in self.generations.values():
            for generation, table in enumerate(generations):
                self.oracle.load(table, generation)
        self.templates = {
            name: DashboardState(self.specs[name], self.tables[name])
            for name in self.dashboards
        }
        groups = set()
        for script in self.scripts:
            for _, queries in render(
                script, self.specs[script.dashboard], self.tables[script.dashboard]
            ):
                for query in queries:
                    signature = scan_signature(query)
                    if signature is not None:
                        groups.add((signature.table, signature.predicate_key))
        self.distinct_groups = len(groups)
        #: Live generation per table and every reload so far, in order:
        #: (table, generation, start, end).
        self.live = {name: 0 for name in self.tables}
        self.reloads: list[tuple] = []
        self._reload_lock = threading.Lock()
        self.mixed = 0
        self._walks: dict[tuple, dict] = {}
        self._wants: dict[tuple, tuple] = {}

    # -- the closed loop -----------------------------------------------------

    def run_round(self, index: int, rec: Recorder) -> None:
        work: queue.SimpleQueue = queue.SimpleQueue()
        for item in self.rounds[index]:
            work.put(item)
        threads = [
            threading.Thread(target=self._client, args=(number, work, rec),
                             name=f"e2e-client-{number}")
            for number in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _client(self, number: int, work, rec: Recorder) -> None:
        from repro.serving import ServingClient

        client = ServingClient(self.server.url)
        per_client = self.tenants // self.clients
        served = 0
        while True:
            try:
                kind, value = work.get_nowait()
            except queue.Empty:
                return
            sid = rec.new_session()
            if kind == "reload":
                self._reload(rec, sid, value)
                continue
            tenant = f"tenant-{number * per_client + served % per_client}"
            served += 1
            self._session(rec, client, sid, tenant, value)

    def _reload(self, rec: Recorder, sid: int, name: str) -> None:
        with self._reload_lock:
            generation = (self.live[name] + 1) % len(self.generations[name])
            table = self.generations[name][generation]
            # Step 1, so a reload never counts as a session's first op.
            op = rec.timed(sid, 1, -1, self.app.load_table, table, kind="reload")
            self.live[name] = generation
            self.reloads.append((name, generation, op.start, op.end))

    def _session(self, rec, client, sid, tenant, script) -> None:
        name = self.scripts[script].dashboard
        remote = rec.tracer.remote if rec.tracer is not None else None
        opened = {}

        def open_session():
            created = client.create_session(tenant, name)
            opened["id"] = created["session_id"]
            if remote is not None:
                # From here on the server finds this op by session id.
                remote[opened["id"]] = remote[tenant]
            return client.refresh(opened["id"])

        op = rec.timed(sid, 0, script, open_session, key=tenant)
        session_id = opened.get("id")
        if session_id is None:
            return
        if not isinstance(op.outcome, Exception):
            for step, interaction in enumerate(self.wire[script], start=1):
                op = rec.timed(sid, step, script, client.interact, session_id,
                               interaction, key=session_id)
                if isinstance(op.outcome, Exception):
                    break
                op.outcome = op.outcome[1]  # (affected ids, results)
        try:
            client.close_session(session_id)
        except Exception as exc:  # reported, like a failed op
            self.wrong.append(f"session {sid}: close failed: {exc}")

    # -- the oracle ----------------------------------------------------------

    def verify(self, ops: list[Op]) -> int:
        """Check every served result against the oracle.

        A session's expected results depend on which table generation
        was live and on whether a reload reset its dashboard state
        (``ServedSession.state`` rebuilds after ``load_table``). Both are
        decided from the recorded timeline: a reload that finished well
        before an op started has happened, one that overlaps the op may
        or may not have, so an overlapped op may match either side.
        "Well before" is the length of the round's longest request: a
        request that starts just after a reload returned can still ride
        a co-tenant's computation that began before the swap (the
        cross-session cache's single flight), and did at this commit.

        An overlapped result whose visualizations each match *some* live
        generation but disagree about which is a mixed snapshot. The
        program produces those today (ROADMAP item 5: a refresh re-clones
        its SQLite replica between scan groups when ``load_table`` lands
        mid-request), and a benchmark must run without failed operations
        at its parent commit, so mixtures are counted and reported
        (``serving.registry.mixed_snapshot_ops``) instead of failed. Once
        item 5 closes the window, count them as failures here.
        """
        failed = 0
        sessions: dict[int, list[Op]] = {}
        self._grace = max(
            (op.end - op.start for op in ops if op.kind != "reload"), default=0.0)
        for op in ops:
            if op.kind == "reload":
                failed += self._failed_outcome(op)
            else:
                sessions.setdefault(op.session, []).append(op)
        for session_ops in sessions.values():
            failed += self._verify_session(session_ops)
        return failed

    def _walk(self, number: int, rebuilt: int) -> dict:
        """Per op of script ``number``, the visualizations it refreshes
        and their queries, for a session whose dashboard state was last
        rebuilt (by a reload) just before op ``rebuilt``; 0 is never."""
        walk = self._walks.get((number, rebuilt))
        if walk is None:
            script = self.scripts[number]
            state = self.templates[script.dashboard].copy()
            walk = self._walks[(number, rebuilt)] = {}
            for step in range(rebuilt, len(script.steps) + 1):
                if step:
                    ids = state.apply_affected(script.steps[step - 1])
                else:
                    ids = sorted(state.visualizations)
                walk[step] = (ids, [state.query_for(v) for v in ids])
        return walk

    def _wanted(self, number: int, rebuilt: int, step: int, generation: int):
        """``(ids, entries)`` the oracle expects of that op on a table
        generation. Memoised: a pass replays every script again."""
        key = (number, rebuilt, step, generation)
        wanted = self._wants.get(key)
        if wanted is None:
            ids, queries = self._walk(number, rebuilt)[step]
            wanted = self._wants[key] = (
                ids, self.oracle.expected(queries, generation))
        return wanted

    def _verify_session(self, session_ops: list[Op]) -> int:
        session_ops.sort(key=lambda op: op.step)
        number = session_ops[0].script
        dashboard = self.scripts[number].dashboard
        reloads = [r for r in self.reloads if r[0] == dashboard]
        # Candidate (op before which the state was last rebuilt, reloads
        # that state has seen).
        candidates = [(0, 0)]
        failed = 0
        for op in session_ops:
            results = op.outcome
            if self._failed_outcome(op):
                failed += 1
                continue
            settled = op.start - self._grace
            done = [r for r in reloads if r[3] <= settled]
            maybe = [r for r in reloads if r[3] > settled and r[2] < op.end]
            forked = []
            for rebuilt, seen in candidates:
                if seen < len(done):
                    rebuilt, seen = op.step, len(done)
                forked.append((rebuilt, seen))
                if seen < len(done) + len(maybe):
                    forked.append((op.step, len(done) + len(maybe)))
            forked = list(dict.fromkeys(forked))
            generations = {done[-1][1] if done else 0, *(r[1] for r in maybe)}
            matched = []
            mixed = False
            for rebuilt, seen in forked:
                wants = [self._wanted(number, rebuilt, op.step, g)
                         for g in generations]
                ids = wants[0][0]
                if sorted(results) != sorted(ids):
                    continue
                got = [signature_entry(results[v].result) for v in ids]
                wants = [entries for _, entries in wants]
                if got in wants:
                    matched.append((rebuilt, seen))
                elif all(
                    any(entry == want[i] for want in wants)
                    for i, entry in enumerate(got)
                ):
                    mixed = True
            if matched:
                candidates = matched
                continue
            candidates = forked
            if mixed:
                self.mixed += 1
            else:
                self._wrong(op, "no table generation and dashboard state "
                                "explains the served result")
                failed += 1
        return failed

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()  # also closes the app and its engine hosts
            self.server = None
        super().teardown()

    def facts(self) -> dict:
        stats = self.app.stats()
        return {
            "cache": stats["caches"].get(self.app.default_engine, {}),
            "admission": stats["admission"],
            "errors": stats["errors"],
            "distinct_groups": self.distinct_groups,
            "cache_capacity": self.app.config.cache_capacity,
            "mixed_snapshot_ops": self.mixed,
        }


class ServeReload(Serve):
    """Writes beside reads, on the same layers as ``serve``: the default
    ``ServingConfig()``, whose cache holds a ninth of the groups the
    scripts touch, and a ``ServingApp.load_table`` every 130 ops
    alternating two generations of a table — invalidation, state
    rebuild, cold cache, eviction. Reloads are ops."""

    name = "serve-reload"
    reloads_tables = True
    warm_rounds = 1

    def _config(self):
        from repro.serving import ServingConfig

        return ServingConfig()

    def _generate_reloads(self) -> None:
        """A second generation per table: the first plus a repeat of its
        first tenth. Counts and sums differ, so the oracle can tell the
        generations apart, while every widget domain (distinct values,
        extents) is unchanged, so every scripted interaction stays valid
        whichever generation a session's state was built on."""
        from repro.engine.table import Table

        self.generations = {}
        for name, table in self.tables.items():
            extra = max(1, table.num_rows // 10)
            columns = {
                column: list(table.column(column))
                + list(table.column(column)[:extra])
                for column in table.schema.names
            }
            self.generations[name] = [
                table, Table(table.name, table.schema, columns)
            ]


WORKLOADS = {
    cls.name: cls
    for cls in (Explore, ReplayTuned, Simulate, Serve, ServeReload)
}
