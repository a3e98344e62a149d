"""RA106 — no bare threading primitives outside the pool packages.

Every thread in the system is supposed to come from one of three
places: the worker pool (``concurrency/``), the serving tier's
request/sweeper threads (``serving/``), or telemetry's context
plumbing (``telemetry/``). A ``threading.Thread`` spun up anywhere
else escapes the pool's accounting — no deterministic
``repro-worker-{i}`` name, no ``pool.worker_tasks`` gauge, no
contextvars propagation for spans — and a stray ``Lock`` invents a
new synchronization domain the lock-order analysis (RA101) can't see
the conventions for.

Flagged outside ``concurrency/``/``serving/``/``telemetry/``:
construction of ``threading.Thread``/``Timer``/``Lock``/``RLock``/
``Condition``/``Semaphore``/``BoundedSemaphore``/``Barrier`` (via the
module or a ``from threading import …`` name) and of
``ThreadPoolExecutor``/``ProcessPoolExecutor``.

Long-standing engine-internal locks (the SQLite writer, the LRU
cache) carry inline ``# repro: allow(RA106) — why`` suppressions:
they guard data structures, not parallelism, and the reasons are part
of the code now.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleInfo, Rule, enclosing_symbols, \
    register

_PRIMITIVES = {
    "Thread", "Timer", "Lock", "RLock", "Condition", "Semaphore",
    "BoundedSemaphore", "Barrier",
}
_EXECUTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor"}


@register
class BareThreadRule(Rule):
    code = "RA106"
    name = "bare-thread"
    summary = (
        "threading primitive or executor created outside "
        "concurrency/, serving/, telemetry/"
    )
    exempt_prefixes = (
        "repro.concurrency", "repro.serving", "repro.telemetry",
    )

    def check(self, module: ModuleInfo):
        imported = self._threading_imports(module.tree)
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                base = func.value
                if isinstance(base, ast.Name) and base.id == "threading" \
                        and func.attr in _PRIMITIVES:
                    name = f"threading.{func.attr}"
                elif func.attr in _EXECUTORS:
                    name = func.attr
            elif isinstance(func, ast.Name):
                if func.id in imported and (
                    func.id in _PRIMITIVES or func.id in _EXECUTORS
                ):
                    name = func.id
                elif func.id in _EXECUTORS:
                    name = func.id
            if name is not None:
                yield self.finding(
                    module, node,
                    f"{name} created outside concurrency/, serving/, "
                    f"telemetry/ — new parallelism goes through the "
                    f"worker pool",
                    symbols.get(id(node), ""),
                )

    def _threading_imports(self, tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "threading", "concurrent.futures",
            ):
                for alias in node.names:
                    names.add(alias.asname or alias.name)
        return names

