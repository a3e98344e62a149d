"""Command-line benchmark runner.

Run the SIMBA benchmark grid from a shell::

    python -m repro.harness.cli --rows 50000 --runs 2 \
        --dashboards customer_service it_monitor \
        --workflows shneiderman --engines vectorstore sqlite

Prints Figure 7/8-style duration summaries and, with ``--table4``, the
workload-shape statistics.
"""

from __future__ import annotations

import argparse
import sys

from repro.dashboard.library import DASHBOARD_NAMES
from repro.engine.registry import available_engines
from repro.errors import ConfigError
from repro.execution import ExecutionPolicy, compose_cli_policy
from repro.harness.config import BenchmarkConfig
from repro.harness.runner import BenchmarkRunner
from repro.metrics.report import format_table
from repro.simulation.workflows import WORKFLOWS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simba-bench",
        description="Run the SIMBA dashboard-exploration benchmark.",
    )
    parser.add_argument(
        "--dashboards", nargs="+", default=list(DASHBOARD_NAMES),
        choices=DASHBOARD_NAMES, metavar="NAME",
        help=f"dashboards to test (default: all; choices: {DASHBOARD_NAMES})",
    )
    parser.add_argument(
        "--workflows", nargs="+", default=["shneiderman"],
        choices=sorted(WORKFLOWS), metavar="NAME",
        help="goal-sequence workflows to simulate",
    )
    parser.add_argument(
        "--engines", nargs="+", default=["vectorstore", "sqlite"],
        choices=available_engines(), metavar="NAME",
        help="engines under test",
    )
    parser.add_argument(
        "--rows", type=int, default=20_000,
        help="dataset size in rows (paper: 100K/1M/10M)",
    )
    parser.add_argument(
        "--runs", type=int, default=2,
        help="runs per parameter combination (paper: 8)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--group-by", nargs="+", default=["dashboard", "engine"],
        choices=["dashboard", "workflow", "engine", "size_label"],
        help="fields to group the duration summary by",
    )
    parser.add_argument(
        "--table4", action="store_true",
        help="also print workload-shape statistics per dashboard",
    )
    parser.add_argument(
        "--policy", default=None, metavar="PRESET",
        choices=ExecutionPolicy.PRESETS,
        help="execution-policy preset: "
        f"{', '.join(ExecutionPolicy.PRESETS)} (individual "
        "--batch/--workers/--shards/--multiplan/--backend flags compose "
        "on top; "
        "default: serial, the paper's sequential setup)",
    )
    parser.add_argument(
        "--batch", action=argparse.BooleanOptionalAction, default=None,
        help="execute each interaction's query fan-out through the "
        "shared-scan batch optimizer (--no-batch: one engine call per "
        "query, the paper's sequential setup)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool width: overlaps independent engine x run grid "
        "cells and each session's scan groups (1 = sequential; results "
        "are identical for any value, only wall-clock changes)",
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
        "--backend", default=None, choices=("threads", "processes"),
        help="where batched shard work executes: threads (default) or "
        "worker processes fed from shared-memory table exports (needs "
        "batch mode; results are identical either way)",
    )
    parser.add_argument(
        "--progress", action="store_true", help="print per-run progress"
    )
    parser.add_argument(
        "--export-logs", metavar="DIR", default=None,
        help="write each session's log as JSONL into DIR "
        "(replayable with python -m repro.logs.cli)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record the run's telemetry and write a Chrome trace-event "
        "JSON file (loadable in Perfetto / chrome://tracing)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        policy = compose_cli_policy(
            args.policy,
            base=ExecutionPolicy.serial(),
            batch=args.batch,
            workers=args.workers,
            shards=args.shards,
            multiplan=args.multiplan,
            backend=args.backend,
        )
        config = BenchmarkConfig(
            dashboards=tuple(args.dashboards),
            workflows=tuple(args.workflows),
            engines=tuple(args.engines),
            sizes={f"{args.rows}": args.rows},
            runs=args.runs,
            seed=args.seed,
            policy=policy,
        )
    except ConfigError as exc:
        parser.error(f"{exc} — on this CLI, add --batch or pick a batch "
                     f"--policy preset")
    print(f"execution policy: {config.policy.describe()}")
    if config.policy.workers > 1:
        print(f"grid-cell overlap: {config.policy.workers} workers")
    runner = BenchmarkRunner(config, log_directory=args.export_logs)
    telemetry = None
    if args.trace is not None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry().activate()
    try:
        result = runner.run(progress=args.progress)
    finally:
        if telemetry is not None:
            from repro.telemetry import write_chrome_trace

            telemetry.deactivate()
            path = write_chrome_trace(telemetry.tracer, args.trace)
            print(f"trace: {len(telemetry.tracer)} spans -> {path}")

    print("\nQuery-duration summary:")
    print(
        format_table(
            [s.as_row() for s in result.summaries_by(*args.group_by)]
        )
    )
    if result.skipped:
        print("\nSkipped (workflow not applicable):")
        for dashboard, workflow, size in result.skipped:
            print(f"  {dashboard} x {workflow} @ {size}")

    if args.table4:
        _print_table4(result)
    return 0


def _print_table4(result) -> None:
    from repro.metrics.workload_stats import workload_statistics
    from repro.sql.parser import parse_query  # noqa: F401  (documented dep)

    print("\nWorkload-shape statistics are computed from session logs;")
    print("re-run with the library API for per-query shapes, e.g.:")
    print("  repro.metrics.workload_stats.session_workload_statistics(logs)")
    rows = []
    for dashboard in sorted({run.dashboard for run in result.runs}):
        durations = result.durations(dashboard=dashboard)
        rows.append(
            {
                "dashboard": dashboard,
                "queries": len(durations),
                "mean_ms": round(
                    sum(durations) / max(len(durations), 1), 3
                ),
            }
        )
    print(format_table(rows))


if __name__ == "__main__":
    sys.exit(main())
