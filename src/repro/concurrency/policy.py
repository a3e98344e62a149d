"""Per-engine execution policies for concurrent scheduling.

Engines differ in what concurrency they tolerate and what it buys:

- **SQLite** maintains one connection per thread (see
  :mod:`repro.engine.sqlite_engine`), releases the GIL inside the C
  library, and has no shared mutable Python state — scan groups for it
  run genuinely in parallel.
- **The pure-Python stores** (rowstore/vectorstore/matstore) keep
  tables and lazily-built index structures in shared dictionaries and
  are GIL-bound anyway; their work runs as a *serialized task queue* —
  one task at a time per engine instance — overlapping only with other
  engines' and sessions' work.
- **Wrappers** (cache, instrumentation, the slot gate) all derive from
  :class:`~repro.engine.interface.EngineWrapper`, which forwards every
  call and lets the capability flags follow the wrapped engine unless a
  wrapper declares its own. A wrapper that declares itself thread-safe
  (the cache, the latency model) wraps :func:`slot_gated` of its engine,
  so calls into a non-thread-safe engine still take that engine's slot.

Two engine attributes drive scheduling (declared on
:class:`~repro.engine.interface.Engine` and defaulting to ``False``):

``thread_safe``
    The engine may be *invoked* from multiple threads concurrently
    without corruption. Callers must wrap non-thread-safe engines in
    :func:`execution_slot`.
``parallel_scans``
    Concurrent invocations can actually overlap compute — scheduling
    extra workers at them is profitable, not just safe.

:func:`execution_slot` hands out the per-instance mutex that implements
the serialized queue. Locks live in a weak registry so an engine's
slot dies with the engine.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from typing import ContextManager

from repro.engine.interface import Engine, EngineWrapper

_REGISTRY_LOCK = threading.Lock()
_SLOTS: "weakref.WeakKeyDictionary[Engine, threading.RLock]" = (
    weakref.WeakKeyDictionary()
)


def thread_safe(engine: Engine) -> bool:
    """May this engine be called from multiple threads concurrently?"""
    return bool(getattr(engine, "thread_safe", False))


def parallel_scans(engine: Engine) -> bool:
    """Does concurrent invocation overlap actual compute for this engine?"""
    return bool(getattr(engine, "parallel_scans", False))


def process_shard_engine(engine: Engine) -> Engine | None:
    """The innermost engine able to export process shards, or ``None``.

    Walks the wrapper chain (slot gates, caches, instrumentation — any
    object exposing ``.inner``) looking for ``supports_process_shards``.
    The *unwrapped* engine is what the process pool exports from and
    what parent-side merges run against; wrappers keep doing their job
    on the parent because the executor only uses the returned engine
    for the export itself.
    """
    seen: set[int] = set()
    current: object = engine
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if getattr(current, "supports_process_shards", False):
            return current  # type: ignore[return-value]
        current = getattr(current, "inner", None)
    return None


def serialization_lock(engine: Engine) -> threading.RLock:
    """The per-instance mutex backing this engine's serialized queue."""
    with _REGISTRY_LOCK:
        lock = _SLOTS.get(engine)
        if lock is None:
            lock = threading.RLock()
            _SLOTS[engine] = lock
        return lock


def execution_slot(engine: Engine) -> ContextManager[None]:
    """Context manager gating one unit of work on ``engine``.

    Thread-safe engines get a no-op slot (their tasks overlap freely);
    everything else shares a per-instance reentrant lock, which turns a
    worker pool into a serialized task queue for that engine while
    still overlapping work across *different* engines.

    Reentrant so a task that holds its engine's slot can call helpers
    that defensively take it again; distinct tasks on distinct threads
    still exclude each other.
    """
    if thread_safe(engine):
        return contextlib.nullcontext()
    return serialization_lock(engine)


class SlotGatedEngine(EngineWrapper):
    """Serializes every call into a non-thread-safe engine.

    Leaf-granular: each call :class:`~repro.engine.interface.EngineWrapper`
    forwards but ``table_version`` (so a cache hit never waits behind a
    scan) runs inside the inner engine's :func:`execution_slot`, and
    the slot is never held across anything that can block on another
    thread (holding it for a longer span deadlocks against single-flight
    waits). Interleaving calls from different tasks is safe because
    shared-scan temp relations carry unique per-execution names.
    """

    thread_safe = True  # safe to call from any thread — that's the point
    parallel_scans = False

    def _gate(self) -> ContextManager[None]:
        return execution_slot(self._inner)


def slot_gated(engine: Engine) -> Engine:
    """The engine itself when thread-safe, else a slot-gating wrapper."""
    if thread_safe(engine):
        return engine
    return SlotGatedEngine(engine)


__all__ = [
    "SlotGatedEngine",
    "execution_slot",
    "parallel_scans",
    "process_shard_engine",
    "serialization_lock",
    "slot_gated",
    "thread_safe",
]
