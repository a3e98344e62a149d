"""`repro.connect()` — the one-import session facade.

The library grew layer by layer, and so did its import surface: running
a dashboard refresh the optimized way meant importing from five
subpackages (``repro.engine`` for the engine and cache,
``repro.dashboard`` for specs and state, ``repro.logs`` for replay,
``repro.execution`` for the policy, ``repro.workload`` for data).
:func:`connect` folds that into one entry point::

    import repro

    session = repro.connect("sqlite", policy=repro.ExecutionPolicy.concurrent(4))
    session.load(repro.generate_dataset("customer_service", 20_000, seed=0))
    results = session.refresh("customer_service")
    print(session.stats)

A :class:`Session` owns one engine, one
:class:`~repro.execution.ExecutionPolicy`, and the tables loaded into
it. Every operation — refreshes, replays, raw queries — executes under
the session's policy unless a per-call ``policy=`` overrides it, so
callers configure execution once instead of threading knobs through
every call.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.engine.interface import Engine, QueryResult
from repro.engine.registry import create_engine
from repro.engine.table import Table
from repro.errors import ConfigError
from repro.execution import ExecutionPolicy, coerce_policy

#: Shared no-op scope for sessions without a telemetry bundle.
_NULL = nullcontext()


@dataclass(frozen=True)
class SessionStats:
    """A session's cumulative activity, cheap to print."""

    engine: str
    policy: str  # ExecutionPolicy.describe()
    queries: int
    refreshes: int
    replays: int
    #: Fraction of queries answered from cache; ``None`` when the
    #: session's engine is not a :class:`~repro.engine.cache.CachedEngine`.
    cache_hit_rate: float | None = None


class Session:
    """One engine + one execution policy + the tables loaded into it.

    Construct through :func:`connect`. The session is a thin facade:
    every method delegates to the same public machinery importable
    piecewise (:meth:`~repro.dashboard.state.DashboardState.refresh`,
    :func:`~repro.logs.replay.replay_log`,
    :meth:`~repro.engine.interface.Engine.execute_batch`), so graduating
    from the facade to the full API never changes behavior.
    """

    def __init__(
        self,
        engine: Engine | str = "sqlite",
        policy: ExecutionPolicy | str | None = None,
        *,
        cache: bool = False,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if isinstance(engine, str):
            engine = create_engine(engine)
        if cache:
            from repro.engine.cache import CachedEngine

            engine = CachedEngine(engine)
        self.engine = engine
        self.policy = coerce_policy(policy)
        #: Optional :class:`~repro.telemetry.Telemetry` bundle, scoped
        #: around every executing session operation; ``None`` (the
        #: default) keeps the stack on its untraced path.
        self.telemetry = telemetry
        self._tables: dict[str, Table] = {}
        #: Live dashboard states keyed by spec name, so interactions
        #: applied through the facade persist across refresh calls.
        self._states: dict[str, object] = {}
        self._queries = 0
        self._refreshes = 0
        self._replays = 0

    # -- data ---------------------------------------------------------------

    def load(self, table: Table) -> "Session":
        """Load (or replace) a table in the engine; chainable.

        Replacing a table drops any cached dashboard states built over
        it — their widget domains and range steps derive from the
        table's data at construction, so they rebuild against the new
        table on next access.
        """
        self.engine.load_table(table)
        self._tables[table.name] = table
        self._states = {
            name: state
            for name, state in self._states.items()
            if state.spec.database.table != table.name
        }
        return self

    @property
    def tables(self) -> tuple[str, ...]:
        """Names of the tables loaded through this session."""
        return tuple(sorted(self._tables))

    # -- dashboards ---------------------------------------------------------

    def dashboard(self, dashboard):
        """A live :class:`~repro.dashboard.state.DashboardState`.

        ``dashboard`` is a spec, a library name
        (:func:`~repro.dashboard.library.load_dashboard`), or an
        existing state (returned as-is). Building a state requires the
        spec's base table to have been :meth:`load`-ed first.
        """
        from repro.dashboard.library import load_dashboard
        from repro.dashboard.spec import DashboardSpec
        from repro.dashboard.state import DashboardState

        if isinstance(dashboard, DashboardState):
            return dashboard
        if isinstance(dashboard, str):
            dashboard = load_dashboard(dashboard)
        if not isinstance(dashboard, DashboardSpec):
            raise ConfigError(
                f"dashboard must be a DashboardState, DashboardSpec, or "
                f"library name, got {dashboard!r}"
            )
        state = self._states.get(dashboard.name)
        if state is not None and state.spec == dashboard:
            return state
        table = self._tables.get(dashboard.database.table)
        if table is None:
            raise ConfigError(
                f"dashboard {dashboard.name!r} reads table "
                f"{dashboard.database.table!r}, which this session has "
                f"not loaded; call session.load(table) first"
            )
        state = DashboardState(dashboard, table)
        self._states[dashboard.name] = state
        return state

    def refresh(self, dashboard, viz_ids=None, policy=None):
        """Refresh a dashboard under the session's policy.

        ``dashboard`` as in :meth:`dashboard`; returns timed results
        keyed by visualization id, exactly like
        :meth:`DashboardState.refresh`. A per-call ``policy`` overrides
        the session's.
        """
        state = self.dashboard(dashboard)
        with self._scope():
            results = state.refresh(
                self.engine, viz_ids=viz_ids, policy=self._effective(policy)
            )
        self._refreshes += 1
        self._queries += len(results)
        return results

    def apply_and_refresh(self, dashboard, interaction, policy=None):
        """Apply an interaction to a state and refresh its fan-out."""
        state = self.dashboard(dashboard)
        with self._scope():
            results = state.apply_and_refresh(
                interaction, self.engine, policy=self._effective(policy)
            )
        self._refreshes += 1
        self._queries += len(results)
        return results

    def explain(self, dashboard, viz_ids=None, policy=None):
        """Refresh a dashboard and report how each query was answered.

        Runs the refresh under a private
        :class:`~repro.telemetry.Telemetry` bundle (shadowing the
        session's own, if any) and returns an
        :class:`~repro.telemetry.ExplainReport`: every visualization's
        query attributed to exactly one answering tier (``cache`` /
        ``multiplan`` / ``sharded`` / ``shared_scan`` / ``fallback``)
        with its cost, plus the refresh's span tree. The refresh is a
        real one — results land in caches, counters advance — so
        ``print(session.explain("customer_service"))`` answers "why
        was that refresh slow" for the very next refresh.
        """
        from repro.telemetry import Telemetry, build_explain

        state = self.dashboard(dashboard)
        telemetry = Telemetry()
        with telemetry.install():
            results = state.refresh(
                self.engine, viz_ids=viz_ids, policy=self._effective(policy)
            )
        self._refreshes += 1
        self._queries += len(results)
        return build_explain(results, telemetry.tracer)

    # -- logs ---------------------------------------------------------------

    def replay(self, log, check_cardinality=True, strict=False, policy=None):
        """Replay an exported log on the session's engine.

        The engine must hold the dataset the log was recorded against
        (load it with :meth:`load`). Returns the
        :class:`~repro.logs.replay.ReplayReport`.
        """
        from repro.logs.replay import replay_log

        with self._scope():
            report = replay_log(
                log,
                self.engine,
                check_cardinality=check_cardinality,
                strict=strict,
                policy=self._effective(policy),
            )
        self._replays += 1
        self._queries += report.query_count
        return report

    # -- queries ------------------------------------------------------------

    def execute(self, query) -> QueryResult:
        """Execute one query (SQL text or parsed AST), timed."""
        from repro.sql.ast import Query
        from repro.sql.parser import parse_query

        if not isinstance(query, Query):
            query = parse_query(query)
        with self._scope():
            timed = self.engine.execute_timed(query)
        self._queries += 1
        return timed

    def execute_batch(self, queries, policy=None) -> list[QueryResult]:
        """Execute a query list under the session's policy."""
        from repro.sql.ast import Query
        from repro.sql.parser import parse_query

        parsed = [
            q if isinstance(q, Query) else parse_query(q) for q in queries
        ]
        with self._scope():
            results = self.engine.execute_batch(
                parsed, self._effective(policy)
            )
        self._queries += len(results)
        return results

    # -- introspection / lifecycle ------------------------------------------

    @property
    def stats(self) -> SessionStats:
        """Cumulative counts plus the engine/policy identity."""
        hit_rate = None
        if hasattr(self.engine, "hit_rate"):
            hit_rate = self.engine.hit_rate
        return SessionStats(
            engine=self.engine.name,
            policy=self.policy.describe(),
            queries=self._queries,
            refreshes=self._refreshes,
            replays=self._replays,
            cache_hit_rate=hit_rate,
        )

    def _effective(self, policy) -> ExecutionPolicy:
        return self.policy if policy is None else coerce_policy(policy)

    def _scope(self):
        """The session's telemetry scope (a shared no-op without one)."""
        if self.telemetry is None:
            return _NULL
        return self.telemetry.install()

    def close(self) -> None:
        """Close the engine and release its pooled resources.

        The session owns its engine, and the engine may have exported
        tables into the shared :class:`~repro.concurrency.procpool.ProcessShardPool`
        as ``/dev/shm`` segments and snapshot files. Those exports are
        released here — the worker pool itself is a process-lifetime
        singleton and stays warm for other sessions — so a
        ``with repro.connect(...)`` block leaves no shared-memory
        segments behind.
        """
        from repro.concurrency.procpool import release_engine_exports

        release_engine_exports(self.engine)
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session(engine={self.engine.name!r}, "
            f"policy={self.policy!r}, tables={list(self.tables)!r})"
        )


def connect(
    engine: Engine | str = "sqlite",
    policy: ExecutionPolicy | str | None = None,
    *,
    cache: bool = False,
    telemetry: "Telemetry | None" = None,
) -> Session:
    """Open a :class:`Session` on an engine under one execution policy.

    ``engine`` is a registry name (:func:`~repro.engine.registry.create_engine`)
    or an already-constructed engine; ``policy`` an
    :class:`~repro.execution.ExecutionPolicy` or preset name (default:
    shared-scan batch execution on one worker); ``cache=True`` wraps
    the engine in a :class:`~repro.engine.cache.CachedEngine`;
    ``telemetry`` (a :class:`~repro.telemetry.Telemetry` bundle) scopes
    tracing + metrics around every session operation. The session owns
    the engine — closing the session closes it.
    """
    return Session(engine, policy, cache=cache, telemetry=telemetry)


__all__ = ["Session", "SessionStats", "connect"]
