"""Benchmark execution: run the configured grid, aggregate durations.

For each (dashboard, workflow, size) cell the runner instantiates a
fresh goal set per run (different seeds — the paper completes 8 runs per
parameter combination), simulates the session once per engine, and
records every query duration. Datasets are generated once per
(dashboard, size) and shared across engines and runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.dashboard.library import load_dashboard
from repro.engine.interface import Engine
from repro.engine.registry import create_engine
from repro.engine.table import Table
from repro.harness.config import BenchmarkConfig
from repro.metrics.report import DurationSummary, duration_summary
from repro.simulation.session import SessionSimulator
from repro.simulation.workflows import WorkflowNotApplicable, get_workflow
from repro.workload.datasets import generate_dataset


@dataclass
class RunResult:
    """One session's outcome within the benchmark grid."""

    dashboard: str
    workflow: str
    engine: str
    size_label: str
    rows: int
    run_index: int
    durations_ms: list[float]
    interactions: int
    queries: int
    goals_completed: int
    goals_total: int
    empty_results: int

    @property
    def average_duration(self) -> float:
        if not self.durations_ms:
            return 0.0
        return sum(self.durations_ms) / len(self.durations_ms)


@dataclass
class BenchmarkResult:
    """All run results plus aggregation helpers for the figures."""

    config: BenchmarkConfig
    runs: list[RunResult] = field(default_factory=list)
    skipped: list[tuple[str, str, str]] = field(default_factory=list)

    def durations(
        self,
        dashboard: str | None = None,
        workflow: str | None = None,
        engine: str | None = None,
        size_label: str | None = None,
    ) -> list[float]:
        """Pooled query durations matching the given filters."""
        pooled: list[float] = []
        for run in self.runs:
            if dashboard is not None and run.dashboard != dashboard:
                continue
            if workflow is not None and run.workflow != workflow:
                continue
            if engine is not None and run.engine != engine:
                continue
            if size_label is not None and run.size_label != size_label:
                continue
            pooled.extend(run.durations_ms)
        return pooled

    def summaries_by(self, *fields_: str) -> list[DurationSummary]:
        """Duration summaries grouped by the given RunResult fields.

        ``summaries_by("dashboard")`` yields Figure 7's series;
        ``summaries_by("workflow", "dashboard")`` yields Figure 8's.
        """
        groups: dict[tuple[str, ...], list[float]] = {}
        for run in self.runs:
            key = tuple(str(getattr(run, f)) for f in fields_)
            groups.setdefault(key, []).extend(run.durations_ms)
        return [
            duration_summary(" / ".join(key), durations)
            for key, durations in sorted(groups.items())
        ]


class BenchmarkRunner:
    """Executes a :class:`BenchmarkConfig` grid.

    With ``log_directory`` set, every session's log is exported as JSONL
    into that directory (one file per grid cell and run) — the §6.4
    artifact, ready for :mod:`repro.logs` replay and metrics.
    """

    def __init__(
        self,
        config: BenchmarkConfig,
        log_directory: str | None = None,
    ) -> None:
        self.config = config
        self._log_directory = log_directory

    def run(self, progress: bool = False) -> BenchmarkResult:
        """Run the full grid; returns pooled results.

        Workflow/dashboard pairs the workflow cannot target (MyRide vs
        correlation-bearing workflows) are recorded in ``skipped`` —
        the same incompatibility the paper reports in §6.2.3.

        With ``config.policy.workers > 1``, the independent engine x run cells
        of each dashboard overlap across a worker pool: sessions on
        thread-safe engines (SQLite's per-thread connections) run fully
        concurrently, while cells sharing a pure-Python engine
        serialize on that engine's execution slot but overlap with
        every other engine's cells. Cell results are gathered in grid
        order, so ``result.runs`` is identical to a sequential run.
        """
        from repro.concurrency.policy import execution_slot
        from repro.concurrency.sessions import run_tasks

        result = BenchmarkResult(self.config)
        for size_label, num_rows in sorted(
            self.config.sizes.items(), key=lambda kv: kv[1]
        ):
            for dashboard_name in self.config.dashboards:
                spec = load_dashboard(dashboard_name)
                table = generate_dataset(
                    dashboard_name, num_rows, seed=self.config.seed
                )
                reference = self._reference_table(dashboard_name, num_rows)
                engines = {
                    name: self._loaded_engine(name, table)
                    for name in self.config.engines
                }
                cells = []
                for workflow_name in self.config.workflows:
                    workflow = get_workflow(workflow_name)
                    for run_index in range(self.config.runs):
                        # A string seed: hash() of a tuple holding
                        # strings is salted per interpreter, which made
                        # one config a different workload in every run.
                        rng = random.Random(
                            f"{self.config.seed}:{workflow_name}:"
                            f"{dashboard_name}:{run_index}"
                        )
                        try:
                            goals = workflow.instantiate_for_dashboard(
                                spec, rng
                            )
                        except WorkflowNotApplicable:
                            result.skipped.append(
                                (dashboard_name, workflow_name, size_label)
                            )
                            break
                        for engine_name, engine in engines.items():
                            cells.append(self._cell_task(
                                execution_slot,
                                spec, table, reference, goals,
                                engine, engine_name,
                                dashboard_name, workflow_name,
                                size_label, num_rows, run_index,
                            ))
                for run_result in run_tasks(
                    cells, workers=self.config.policy.workers
                ):
                    result.runs.append(run_result)
                    if progress:
                        print(
                            f"[{size_label}] {run_result.dashboard} x "
                            f"{run_result.workflow} x {run_result.engine} "
                            f"run {run_result.run_index}: "
                            f"{run_result.average_duration:.2f} ms avg "
                            f"({run_result.queries} queries)"
                        )
                for engine in engines.values():
                    engine.close()
        return result

    def _cell_task(self, execution_slot, spec, table, reference, goals,
                   engine, engine_name, dashboard_name, workflow_name,
                   size_label, num_rows, run_index):
        """One engine x run grid cell as a schedulable closure."""

        def cell() -> RunResult:
            with execution_slot(engine):
                return self._run_session(
                    spec, table, reference, goals, engine, engine_name,
                    dashboard_name, workflow_name, size_label, num_rows,
                    run_index,
                )

        return cell

    # -- internals ----------------------------------------------------------------

    def _reference_table(self, dashboard_name: str, num_rows: int) -> Table:
        rows = min(num_rows, self.config.reference_rows)
        return generate_dataset(dashboard_name, rows, seed=self.config.seed)

    @staticmethod
    def _loaded_engine(name: str, table: Table) -> Engine:
        engine = create_engine(name)
        engine.load_table(table)
        return engine

    def _run_session(
        self,
        spec,
        table: Table,
        reference: Table,
        goals,
        engine: Engine,
        engine_name: str,
        dashboard_name: str,
        workflow_name: str,
        size_label: str,
        num_rows: int,
        run_index: int,
    ) -> RunResult:
        reference_engine = create_engine("vectorstore")
        reference_engine.load_table(reference)
        session_config = replace(
            self.config.session, seed=self.config.seed * 1_000 + run_index
        )
        simulator = SessionSimulator(
            spec,
            reference,  # dashboard parameter domains come from data stats
            [g.query for g in goals],
            measured_engine=engine,
            reference_engine=reference_engine,
            config=session_config,
            workflow_name=workflow_name,
        )
        log = simulator.run()
        if self._log_directory is not None:
            self._export_log(
                log, dashboard_name, workflow_name, engine_name,
                size_label, run_index,
            )
        return RunResult(
            dashboard=dashboard_name,
            workflow=workflow_name,
            engine=engine_name,
            size_label=size_label,
            rows=num_rows,
            run_index=run_index,
            durations_ms=log.query_durations(),
            interactions=log.interaction_count,
            queries=log.query_count,
            goals_completed=log.goals_completed,
            goals_total=log.goals_total,
            empty_results=log.empty_result_count(),
        )

    def _export_log(
        self,
        log,
        dashboard_name: str,
        workflow_name: str,
        engine_name: str,
        size_label: str,
        run_index: int,
    ) -> None:
        from pathlib import Path

        from repro.logs.io import write_jsonl
        from repro.logs.records import export_session

        directory = Path(self._log_directory)
        directory.mkdir(parents=True, exist_ok=True)
        filename = (
            f"{dashboard_name}_{workflow_name}_{engine_name}_"
            f"{size_label}_run{run_index}.jsonl"
        )
        write_jsonl(export_session(log), directory / filename)
