"""Session registry: many served sessions over few shared engine hosts.

The serving tier inverts the facade's ownership model. A
:class:`~repro.facade.Session` owns its engine outright; here an
:class:`EngineHost` — one engine plus its
:class:`~repro.serving.cache.CrossSessionCache` — is shared by every
session on the same storage backend and reference-counted. Sessions
are cheap (a :class:`~repro.dashboard.state.DashboardState` and some
bookkeeping); engines are expensive (loaded tables, shared-memory
exports), so hosts outlive the sessions that ride them.

Lifecycle contract (pinned by the expiry tests):

- a session holds exactly one host reference from create to close;
- the TTL sweep closes idle sessions exactly like an explicit close;
- when a host's last session leaves, the host *quiesces*: its
  shared-memory exports are released from the process pool (the leak
  the ``/dev/shm`` probes watch for), while the engine and the warm
  cross-session cache stay resident for the next arrival.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.dashboard.spec import DashboardSpec
from repro.dashboard.state import DashboardState
from repro.engine.interface import Engine
from repro.engine.registry import create_engine
from repro.engine.table import Table
from repro.errors import AdmissionError, ConfigError, UnknownSessionError
from repro.execution import ExecutionPolicy, coerce_policy
from repro.serving.cache import CrossSessionCache


class EngineHost:
    """One shared engine + cross-session cache, reference-counted.

    ``load_table`` follows the :class:`~repro.engine.cache.CachedEngine`
    invalidation protocol — invalidate *before* the swap (readers must
    not extend a doomed group) and *after* it (a straggler store that
    captured its epoch pre-swap is voided) — so no cached result can
    outlive the table it scanned.
    """

    def __init__(self, name: str, cache_capacity: int = 128) -> None:
        self.name = name
        self.engine: Engine = create_engine(name)
        self.cache = CrossSessionCache(cache_capacity)
        self._lock = threading.Lock()
        self._refs = 0
        self._tables: dict[str, Table] = {}
        #: Per-table load counter; served sessions stamp the version
        #: their dashboard state was built against and rebuild when a
        #: reload moves it (widget domains derive from table data).
        self._versions: dict[str, int] = {}

    # -- tables --------------------------------------------------------------

    def load_table(self, table: Table) -> None:
        with self._lock:
            self._tables[table.name] = table
            self._versions[table.name] = (
                self._versions.get(table.name, 0) + 1
            )
        self.cache.invalidate_table(table.name)
        self.engine.load_table(table)
        self.cache.invalidate_table(table.name)

    def table(self, name: str) -> Table:
        with self._lock:
            table = self._tables.get(name)
        if table is None:
            raise ConfigError(
                f"engine host {self.name!r} has no table {name!r}; "
                f"load it through the app first"
            )
        return table

    def table_version(self, name: str) -> int:
        with self._lock:
            return self._versions.get(name, 0)

    @property
    def tables(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tables))

    # -- reference counting --------------------------------------------------

    def retain(self) -> None:
        with self._lock:
            self._refs += 1

    def release(self) -> int:
        """Drop one session reference; quiesce on the last one out."""
        with self._lock:
            self._refs = max(0, self._refs - 1)
            remaining = self._refs
        if remaining == 0:
            self.quiesce()
        return remaining

    @property
    def refs(self) -> int:
        with self._lock:
            return self._refs

    def quiesce(self) -> None:
        """Release pooled shared-memory exports, keep the engine warm.

        Idle hosts must not pin ``/dev/shm`` segments (the expiry-sweep
        test attaches to prove they are gone), but dropping the loaded
        tables or the cross-session cache would make every first
        arrival a cold start — so only the pool exports go.
        """
        from repro.concurrency.procpool import release_engine_exports

        release_engine_exports(self.engine)

    def close(self) -> None:
        self.quiesce()
        self.cache.clear()
        self.engine.close()


class ServedSession:
    """One user's live dashboard on a shared engine host."""

    def __init__(
        self,
        session_id: str,
        tenant: str,
        host: EngineHost,
        spec: DashboardSpec,
        policy: ExecutionPolicy,
        now: float,
    ) -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.host = host
        self.spec = spec
        self.policy = policy
        self.created = now
        self.last_used = now
        #: Serializes this session's own requests — dashboard state is
        #: not thread-safe; co-tenant sessions proceed in parallel.
        self.lock = threading.Lock()
        self.closed = False
        self._state: DashboardState | None = None
        self._version = -1

    @property
    def state(self) -> DashboardState:
        """The live dashboard state, rebuilt after a table reload.

        A replaced table resets dependent dashboards to their default
        state — the same semantics as :meth:`repro.facade.Session.load`
        dropping cached states — because widget domains and range steps
        derive from the table's data at construction.
        """
        version = self.host.table_version(self.spec.database.table)
        if self._state is None or version != self._version:
            self._state = DashboardState(
                self.spec, self.host.table(self.spec.database.table)
            )
            self._version = version
        return self._state


class SessionRegistry:
    """Create/attach/expire served sessions, with a TTL sweep.

    The clock is injectable so expiry tests advance time instead of
    sleeping. Session ids are sequential (``s-000001``) — this is a
    benchmark reproduction, not an auth boundary; tenancy is a label
    for fairness and accounting, not a security perimeter.
    """

    def __init__(
        self,
        session_ttl: float = 300.0,
        max_sessions_per_tenant: int = 0,
        clock=time.monotonic,
    ) -> None:
        self.session_ttl = session_ttl
        self.max_sessions_per_tenant = max_sessions_per_tenant
        self.clock = clock
        self._lock = threading.Lock()
        self._sessions: dict[str, ServedSession] = {}
        self._ids = itertools.count(1)
        self._created = 0
        self._expired = 0
        self._closed = 0

    # -- lifecycle -----------------------------------------------------------

    def create(
        self,
        tenant: str,
        host: EngineHost,
        spec: DashboardSpec,
        policy: ExecutionPolicy | str | None = None,
    ) -> ServedSession:
        self.sweep()  # expire opportunistically even without the thread
        now = self.clock()
        resolved = coerce_policy(policy)
        with self._lock:
            if self.max_sessions_per_tenant:
                held = sum(
                    1
                    for s in self._sessions.values()
                    if s.tenant == tenant
                )
                if held >= self.max_sessions_per_tenant:
                    raise AdmissionError(
                        f"tenant {tenant!r} holds {held} sessions "
                        f"(cap {self.max_sessions_per_tenant}); close or "
                        f"expire one first"
                    )
            session_id = f"s-{next(self._ids):06d}"
            session = ServedSession(
                session_id, tenant, host, spec, resolved, now
            )
            host.retain()
            self._sessions[session_id] = session
            self._created += 1
        return session

    def get(self, session_id: str, touch: bool = True) -> ServedSession:
        """Attach to a live session (bumping its idle clock)."""
        now = self.clock()
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None and touch:
                session.last_used = now
        if session is None:
            raise UnknownSessionError(
                f"no live session {session_id!r} (never created, closed, "
                f"or expired by the TTL sweep)"
            )
        return session

    def close(self, session_id: str) -> bool:
        """Close one session, releasing its host reference."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                self._closed += 1
        if session is None:
            return False
        self._release(session)
        return True

    def sweep(self, now: float | None = None) -> list[str]:
        """Expire every session idle longer than the TTL."""
        now = self.clock() if now is None else now
        cutoff = now - self.session_ttl
        with self._lock:
            expired = [
                session
                for session in self._sessions.values()
                if session.last_used <= cutoff
            ]
            for session in expired:
                del self._sessions[session.session_id]
            self._expired += len(expired)
        for session in expired:
            self._release(session)
        return [session.session_id for session in expired]

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._closed += len(sessions)
        for session in sessions:
            self._release(session)

    @staticmethod
    def _release(session: ServedSession) -> None:
        session.closed = True
        session.host.release()

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def by_tenant(self) -> dict[str, int]:
        with self._lock:
            counts: dict[str, int] = {}
            for session in self._sessions.values():
                counts[session.tenant] = counts.get(session.tenant, 0) + 1
            return counts

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "live": len(self._sessions),
                "created": self._created,
                "expired": self._expired,
                "closed": self._closed,
            }


__all__ = ["EngineHost", "ServedSession", "SessionRegistry"]
