"""Replay an exported log's query stream against an engine.

Replays are the bridge from a recorded session (simulated here, human in
the paper's study) back to a live benchmark: each logged SQL text is
parsed and re-executed in order, producing fresh durations on the target
engine while checking that every query still returns the cardinality the
log recorded. A cardinality mismatch means the dataset or engine no
longer matches the one that produced the log — exactly the regression a
replay harness exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from repro.engine.interface import Engine, QueryResult
from repro.errors import SimbaError
from repro.logs.records import ExportedLog, LogEntry
from repro.sql.parser import parse_query


@dataclass(frozen=True)
class ReplayMismatch:
    """One replayed query whose result cardinality diverged from the log."""

    entry: LogEntry
    replayed_rows: int


@dataclass
class ReplayReport:
    """Outcome of replaying one log on one engine."""

    engine: str
    results: list[QueryResult] = field(default_factory=list)
    mismatches: list[ReplayMismatch] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.results)

    @property
    def matched(self) -> bool:
        """True when every replayed query matched its logged cardinality."""
        return not self.mismatches

    def durations_ms(self) -> list[float]:
        return [r.duration_ms for r in self.results]

    def average_duration_ms(self) -> float:
        durations = self.durations_ms()
        if not durations:
            return 0.0
        return sum(durations) / len(durations)


def replay_log(
    log: ExportedLog,
    engine: Engine,
    check_cardinality: bool = True,
    strict: bool = False,
    policy=None,
) -> ReplayReport:
    """Re-execute every query in ``log`` against ``engine``.

    The engine must already hold the dataset the log was recorded
    against. With ``strict=True`` the first cardinality mismatch raises;
    otherwise mismatches are collected in the report.

    Each interaction's fan-out — the consecutive entries sharing one
    ``step`` — replays as one unit through
    :meth:`~repro.engine.interface.Engine.execute_batch` under
    ``policy`` (an :class:`~repro.execution.ExecutionPolicy` or preset
    name). The default is the historical sequential replay,
    ``ExecutionPolicy.serial()``: one engine call per logged query, in
    order. A batch policy sends each step through the shared-scan
    optimizer, recreating the multi-query execution a batching
    dashboard backend performs; its ``shards``/``multiplan`` knobs split
    and combine the step's scan groups (:mod:`repro.sharding`,
    :mod:`repro.engine.multiplan`).

    ``workers > 1`` overlaps each step over a worker pool — its scan
    groups in batch mode, its individual queries otherwise. Results and
    mismatch reports are identical for every policy (queries record in
    log order). ``strict`` checks a step once it has run, so it raises
    at the first mismatching step, before any later step executes.
    """
    from repro.execution import ExecutionPolicy, coerce_policy

    policy = (
        ExecutionPolicy.serial() if policy is None else coerce_policy(policy)
    )
    report = ReplayReport(engine=engine.name)

    def record(entry: LogEntry, timed: QueryResult) -> None:
        report.results.append(timed)
        if check_cardinality and timed.rows_returned != entry.rows_returned:
            mismatch = ReplayMismatch(entry, timed.rows_returned)
            if strict:
                raise SimbaError(
                    f"replay mismatch at step {entry.step}: logged "
                    f"{entry.rows_returned} rows, replay returned "
                    f"{timed.rows_returned} for {entry.sql!r}"
                )
            report.mismatches.append(mismatch)

    for _, group in groupby(log.entries, key=lambda e: e.step):
        step_entries = list(group)
        queries = [parse_query(e.sql) for e in step_entries]
        timed_results = engine.execute_batch(queries, policy)
        for entry, timed in zip(step_entries, timed_results):
            record(entry, timed)
    return report
