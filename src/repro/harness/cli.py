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
from repro.execution import add_policy_arguments, cli_trace, policy_from_args
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
    add_policy_arguments(
        parser,
        overlaps="independent engine x run grid cells and each "
        "session's scan groups",
        scope="run",
    )
    parser.add_argument(
        "--progress", action="store_true", help="print per-run progress"
    )
    parser.add_argument(
        "--export-logs", metavar="DIR", default=None,
        help="write each session's log as JSONL into DIR "
        "(replayable with python -m repro.logs.cli)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    policy = policy_from_args(parser, args)
    try:
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
        parser.error(str(exc))
    if policy.workers > 1:
        print(f"grid-cell overlap: {policy.workers} workers")
    runner = BenchmarkRunner(config, log_directory=args.export_logs)
    with cli_trace(args.trace):
        result = runner.run(progress=args.progress)

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
