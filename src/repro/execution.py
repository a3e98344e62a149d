"""Unified execution policy for the whole query path.

Four PRs grew four execution knobs — ``batch`` (shared scans),
``workers`` (scan-group overlap), ``shards`` (row-range partial-aggregate
splits), ``multiplan`` (combined passes for unfiltered groups) — and each
was threaded as its own keyword through every layer from
:meth:`~repro.engine.interface.Engine.execute_batch` up to the CLIs.
:class:`ExecutionPolicy` replaces that per-knob threading with one frozen
value that travels the stack intact: every entry point takes
``policy=`` (a policy or a preset name, :func:`coerce_policy`), and it
is the only input that says how a batch executes. The per-knob
keywords were removed in 2.0.0.

Every knob combination still produces byte-identical results — the
policy changes *how* a refresh executes, never *what* it returns
(:mod:`repro.concurrency`, :mod:`repro.sharding`,
:mod:`repro.engine.multiplan` each document their piece of that
contract).

Validation happens once, at construction: ``shards > 1`` or
``multiplan=True`` without ``batch`` used to silently no-op ten layers
down (there are no scan groups to shard or combine outside batch mode);
``ExecutionPolicy`` refuses the combination with a
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, replace
from typing import Iterator

from repro.errors import ConfigError

#: Accepted ``backend`` values: in-process thread pools, or worker
#: processes fed via shared memory (:mod:`repro.concurrency.procpool`).
BACKENDS = ("threads", "processes")

#: ``auto()`` never sizes the pool past this many workers — beyond it
#: the GIL-bound stores stop scaling, and at laptop scale more SQLite
#: readers (one connection and page cache per thread) cost more than
#: the overlap buys.
AUTO_MAX_WORKERS = 8

#: ...and never below this many: threads overlap I/O and dispatch
#: latency even on one core, and a concurrent preset that silently
#: degenerates to one worker and one shard on a 1-CPU runner skips the
#: very machinery (cross-thread spans, shard tasks) it was asked for.
AUTO_MIN_WORKERS = 4

#: ``auto()`` targets at least this many rows per shard; smaller tables
#: are not worth the per-shard scan/merge overhead.
AUTO_ROWS_PER_SHARD = 50_000


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a batch of queries executes; never what it returns.

    The default policy routes through the shared-scan optimizer on a
    single worker — the exact ``execute_batch(queries)`` path. Fields
    mirror the four scale-out layers, bottom up:

    - ``batch`` — group the queries by (table, normalized filter) and
      run one shared scan per group (:mod:`repro.engine.batch`);
      ``False`` executes one engine call per query (the paper's
      sequential setup).
    - ``workers`` — overlap independent scan groups (or single queries
      in sequential mode) over a worker pool of this width
      (:mod:`repro.concurrency`).
    - ``shards`` — split each shardable group's base scan into this
      many row-range shard tasks merged via partial-aggregate rollup
      (:mod:`repro.sharding`). Batch-mode only.
    - ``multiplan`` — evaluate each unfiltered group's fusion classes
      in one combined pass (:mod:`repro.engine.multiplan`). Batch-mode
      only.
    - ``backend`` — where shard work runs: ``"threads"`` (the
      in-process worker pool) or ``"processes"`` (worker processes fed
      via shared-memory table exports,
      :mod:`repro.concurrency.procpool`), which overlaps *compute* for
      the GIL-bound pure-Python stores. Batch-mode only; engines that
      do not advertise ``supports_process_shards`` degrade to the
      thread backend.

    Future knobs (adaptive shard counts, cardinality-aware pass
    splitting, pipelined per-group merges — see ROADMAP.md) land here
    as new fields instead of new keywords on ten signatures.
    """

    batch: bool = True
    workers: int = 1
    shards: int = 1
    multiplan: bool = False
    backend: str = "threads"

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ConfigError("workers must be an integer >= 1")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool):
            raise ConfigError("shards must be an integer >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if not self.batch and self.shards > 1:
            raise ConfigError(
                "shards > 1 requires batch execution: row-range sharding "
                "splits scan groups, and sequential mode has none "
                "(pass batch=True, or shards=1)"
            )
        if not self.batch and self.multiplan:
            raise ConfigError(
                "multiplan=True requires batch execution: combined passes "
                "evaluate scan groups, and sequential mode has none "
                "(pass batch=True, or multiplan=False)"
            )
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; "
                f"choose from {', '.join(BACKENDS)}"
            )
        if not self.batch and self.backend == "processes":
            raise ConfigError(
                "backend='processes' requires batch execution: process "
                "workers execute sharded scan groups, and sequential "
                "mode has none (pass batch=True, or backend='threads')"
            )

    # -- presets ------------------------------------------------------------

    @classmethod
    def serial(cls) -> "ExecutionPolicy":
        """One engine call per query — the paper's sequential setup."""
        return cls(batch=False)

    @classmethod
    def batched(cls) -> "ExecutionPolicy":
        """Shared scans on a single worker (the default policy)."""
        return cls()

    @classmethod
    def concurrent(cls, workers: int | None = None) -> "ExecutionPolicy":
        """Shared scans with scan groups overlapped over a worker pool.

        ``workers=None`` sizes the pool from ``os.cpu_count()``
        (clamped between :data:`AUTO_MIN_WORKERS` and
        :data:`AUTO_MAX_WORKERS`).
        """
        if workers is None:
            workers = _auto_workers()
        return cls(workers=workers)

    @classmethod
    def max_throughput(cls) -> "ExecutionPolicy":
        """Every optimization on, sized from ``os.cpu_count()``.

        Shared scans, a cpu-sized worker pool (floored at
        :data:`AUTO_MIN_WORKERS`, so 1-CPU runners still exercise real
        concurrency), one shard per worker, and combined multi-plan
        passes. Results are still byte-identical to :meth:`serial` —
        only wall-clock and scan counts change. The backend stays
        ``"threads"``; :meth:`auto` is the preset that inspects the
        engine and machine to pick processes.
        """
        workers = _auto_workers()
        return cls(workers=workers, shards=workers, multiplan=True)

    @classmethod
    def auto(
        cls, engine=None, table: str | None = None
    ) -> "ExecutionPolicy":
        """Size workers, shards, and the backend from machine and data.

        Workers come from ``os.cpu_count()`` (clamped between
        :data:`AUTO_MIN_WORKERS` and :data:`AUTO_MAX_WORKERS` — the
        floor keeps 1-CPU runners on a real concurrent configuration
        instead of silently degenerating to one worker and one shard).
        With an ``engine`` and a ``table`` name, shards are sized from
        the engine's
        :meth:`~repro.engine.interface.Engine.table_row_count` so each
        shard scans at least :data:`AUTO_ROWS_PER_SHARD` rows — small
        tables stay unsharded (the per-shard merge would cost more than
        the split saves), and the shard count never exceeds the worker
        count (extra shards would just queue). An engine that cannot
        report a row count (``table_row_count`` → ``None``) also stays
        unsharded, mirroring the sharded executor's own degradation.

        With an ``engine``, the backend becomes ``"processes"`` when
        the machine actually has more than one CPU *and* the engine
        advertises process-shard support
        (:func:`repro.concurrency.policy.process_shard_engine`) —
        worker processes overlap compute where threads only overlap
        I/O. Note the backend check uses the raw ``os.cpu_count()``,
        not the floored worker count: extra threads still help on one
        core, extra processes do not.
        """
        workers = _auto_workers()
        shards = 1
        backend = "threads"
        if engine is not None:
            if (os.cpu_count() or 1) > 1:
                from repro.concurrency.policy import process_shard_engine

                if process_shard_engine(engine) is not None:
                    backend = "processes"
            if table is not None:
                rows = engine.table_row_count(table)
                if rows:
                    shards = max(
                        1, min(workers, rows // AUTO_ROWS_PER_SHARD)
                    )
        return cls(
            workers=workers, shards=shards, multiplan=True, backend=backend
        )

    #: Preset names accepted by :meth:`preset` and the CLIs' ``--policy``.
    PRESETS = ("serial", "batch", "concurrent", "max-throughput", "auto")

    @classmethod
    def preset(cls, name: str) -> "ExecutionPolicy":
        """Resolve a named preset (the CLI ``--policy`` vocabulary)."""
        normalized = name.replace("_", "-").lower()
        if normalized == "serial":
            return cls.serial()
        if normalized == "batch":
            return cls.batched()
        if normalized == "concurrent":
            return cls.concurrent()
        if normalized == "max-throughput":
            return cls.max_throughput()
        if normalized == "auto":
            return cls.auto()
        raise ConfigError(
            f"unknown execution-policy preset {name!r}; "
            f"choose from {', '.join(cls.PRESETS)}"
        )

    # -- introspection ------------------------------------------------------

    def describe(self) -> str:
        """One-line human summary (the CLIs print it at startup)."""
        if not self.batch:
            if self.workers > 1:
                return (
                    f"sequential: one engine call per query, "
                    f"{self.workers} workers overlap independent queries"
                )
            return "sequential: one engine call per query"
        parts = ["batch: shared scans per (table, filter) group"]
        if self.workers > 1:
            parts.append(f"{self.workers} workers")
        if self.shards > 1:
            parts.append(f"{self.shards} row-range shards/group")
        if self.multiplan:
            parts.append("multiplan combined passes")
        if self.backend == "processes":
            parts.append("process-backed shards (shared memory)")
        return ", ".join(parts)

    def evolve(self, **changes: object) -> "ExecutionPolicy":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)


def _auto_workers() -> int:
    return max(
        AUTO_MIN_WORKERS, min(os.cpu_count() or 1, AUTO_MAX_WORKERS)
    )


def coerce_policy(
    policy: "ExecutionPolicy | str | None",
) -> ExecutionPolicy:
    """Accept a policy or a preset name (the CLI/config surface);
    ``None`` means the default :class:`ExecutionPolicy`."""
    if policy is None:
        return ExecutionPolicy()
    if isinstance(policy, str):
        return ExecutionPolicy.preset(policy)
    if not isinstance(policy, ExecutionPolicy):
        raise ConfigError(
            f"policy must be an ExecutionPolicy or a preset name, "
            f"got {policy!r}"
        )
    return policy


def compose_cli_policy(
    preset: str | None,
    *,
    base: ExecutionPolicy | None = None,
    batch: bool | None = None,
    workers: int | None = None,
    shards: int | None = None,
    multiplan: bool | None = None,
    backend: str | None = None,
) -> ExecutionPolicy | None:
    """Compose a CLI's ``--policy`` preset with explicit per-knob flags.

    The individual flags are first-class CLI surface: each one given
    overrides the corresponding preset field, starting from ``base``
    (the CLI's historical default) when no preset was named. Returns
    ``None`` when the caller passed nothing at all, so the downstream
    config's own default applies.
    Invalid compositions (``--shards 4`` without batch mode) raise
    :class:`~repro.errors.ConfigError` — the old stack's silent no-op,
    made audible.
    """
    flags = {
        k: v
        for k, v in (
            ("batch", batch),
            ("workers", workers),
            ("shards", shards),
            ("multiplan", multiplan),
            ("backend", backend),
        )
        if v is not None
    }
    if preset is not None:
        base = ExecutionPolicy.preset(preset)
    elif not flags:
        return None
    elif base is None:
        base = ExecutionPolicy.serial()
    return base.evolve(**flags) if flags else base


def add_policy_arguments(parser, *, overlaps: str, scope: str) -> None:
    """Declare the execution-policy flags and ``--trace`` on ``parser``.

    The one CLI surface for saying how to execute: a ``--policy``
    preset, the per-knob flags that compose on top of it
    (:func:`policy_from_args`), and ``--trace`` (:func:`cli_trace`).
    ``overlaps`` says what ``--workers`` overlaps and ``scope`` names
    what ``--trace`` records.
    """
    import argparse

    parser.add_argument(
        "--policy", default=None, metavar="PRESET",
        choices=ExecutionPolicy.PRESETS,
        help="execution-policy preset: "
        f"{', '.join(ExecutionPolicy.PRESETS)} (individual "
        "--batch/--workers/--shards/--multiplan/--backend flags compose "
        "on top; default: serial, one engine call per query, the "
        "paper's sequential setup)",
    )
    parser.add_argument(
        "--batch", action=argparse.BooleanOptionalAction, default=None,
        help="execute each interaction's query fan-out through the "
        "shared-scan batch optimizer (--no-batch: one engine call per "
        "query)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=f"worker-pool width: overlaps {overlaps} (1 = sequential; "
        "results are identical for any value, only wall-clock changes)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="row-range shards per scan group: each batched fan-out's "
        "base scans split into this many per-shard tasks merged via "
        "partial-aggregate rollup (needs batch mode; 1 = unsharded; "
        "results are identical for any value)",
    )
    parser.add_argument(
        "--multiplan", action=argparse.BooleanOptionalAction, default=None,
        help="evaluate each unfiltered scan group's fusion classes in "
        "one combined pass — the initial render's one-scan-per-GROUP-BY "
        "shape collapses to one scan per table (needs batch mode; "
        "results are identical either way)",
    )
    parser.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="where batched shard work executes: threads (default) or "
        "worker processes fed from shared-memory table exports (needs "
        "batch mode; results are identical either way)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help=f"record the {scope}'s telemetry and write a Chrome "
        "trace-event JSON file (loadable in Perfetto / chrome://tracing)",
    )


def policy_from_args(parser, args) -> ExecutionPolicy:
    """The policy :func:`add_policy_arguments`' flags compose.

    Starts from ``ExecutionPolicy.serial()``, prints the
    ``execution policy:`` line, and exits with status 2 (through
    ``parser.error``) on an invalid composition.
    """
    try:
        policy = compose_cli_policy(
            args.policy,
            base=ExecutionPolicy.serial(),
            batch=args.batch,
            workers=args.workers,
            shards=args.shards,
            multiplan=args.multiplan,
            backend=args.backend,
        ) or ExecutionPolicy.serial()
    except ConfigError as exc:
        parser.error(
            f"{exc} — on this CLI, add --batch or pick a batch --policy "
            f"preset"
        )
    print(f"execution policy: {policy.describe()}")
    return policy


@contextlib.contextmanager
def cli_trace(path: str | None) -> Iterator[None]:
    """Record telemetry while the block runs; write it to ``path``.

    The file is a Chrome trace-event JSON, written even when the block
    raises. ``None`` (no ``--trace`` given) records nothing.
    """
    if path is None:
        yield
        return
    from repro.telemetry import Telemetry, write_chrome_trace

    telemetry = Telemetry().activate()
    try:
        yield
    finally:
        telemetry.deactivate()
        out = write_chrome_trace(telemetry.tracer, path)
        print(f"trace: {len(telemetry.tracer)} spans -> {out}")


__all__ = [
    "AUTO_MAX_WORKERS",
    "AUTO_MIN_WORKERS",
    "AUTO_ROWS_PER_SHARD",
    "BACKENDS",
    "ExecutionPolicy",
    "add_policy_arguments",
    "cli_trace",
    "coerce_policy",
    "compose_cli_policy",
    "policy_from_args",
]
