"""Command-line front end for session logs.

Three subcommands::

    # Simulate one session and write its log
    python -m repro.logs.cli simulate --dashboard customer_service \
        --workflow shneiderman --rows 20000 --out session.jsonl

    # Replay a log's query stream on another engine
    python -m repro.logs.cli replay session.jsonl --engine sqlite \
        --rows 20000

    # Print the paper-§7 exploration metrics of a log
    python -m repro.logs.cli metrics session.jsonl
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from repro.dashboard.library import DASHBOARD_NAMES, load_dashboard
from repro.engine.registry import available_engines, create_engine
from repro.execution import add_policy_arguments, cli_trace, policy_from_args
from repro.logs.eva import eva_metrics
from repro.logs.io import read_csv, read_jsonl, write_csv, write_jsonl
from repro.logs.records import export_session
from repro.logs.replay import replay_log
from repro.simulation.session import SessionConfig, SessionSimulator
from repro.simulation.workflows import WORKFLOWS, get_workflow
from repro.workload import generate_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simba-logs", description="Session-log tools."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run one session and export its log"
    )
    simulate.add_argument(
        "--dashboard", default="customer_service", choices=DASHBOARD_NAMES
    )
    simulate.add_argument(
        "--workflow", default="shneiderman", choices=sorted(WORKFLOWS)
    )
    simulate.add_argument(
        "--engine", default="vectorstore", choices=available_engines()
    )
    simulate.add_argument("--rows", type=int, default=20_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--out", required=True,
        help="output path (.jsonl or .csv decides the format)",
    )

    replay = commands.add_parser(
        "replay", help="re-execute a log's queries on an engine"
    )
    replay.add_argument("log", help="log file (.jsonl or .csv)")
    replay.add_argument(
        "--engine", default="sqlite", choices=available_engines()
    )
    replay.add_argument(
        "--rows", type=int, default=20_000,
        help="dataset rows (must match the recording for cardinalities)",
    )
    replay.add_argument(
        "--seed", type=int, default=0,
        help="dataset seed (must match the recording for cardinalities)",
    )
    replay.add_argument(
        "--no-check", action="store_true",
        help="skip cardinality checking",
    )
    add_policy_arguments(
        replay, overlaps="the replay's queries", scope="replay"
    )

    metrics = commands.add_parser(
        "metrics", help="print the §7 exploration metrics of a log"
    )
    metrics.add_argument("log", help="log file (.jsonl or .csv)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        return _simulate(args)
    if args.command == "replay":
        return _replay(args, policy_from_args(parser, args))
    return _metrics(args)


def _read_any(path: str):
    if path.endswith(".csv"):
        return read_csv(path)
    return read_jsonl(path)


def _simulate(args) -> int:
    spec = load_dashboard(args.dashboard)
    table = generate_dataset(args.dashboard, args.rows, seed=args.seed)
    measured = create_engine(args.engine)
    measured.load_table(table)
    reference_rows = max(500, min(2_000, args.rows))
    reference_table = generate_dataset(
        args.dashboard, reference_rows, seed=args.seed
    )
    reference = create_engine("vectorstore")
    reference.load_table(reference_table)

    workflow = get_workflow(args.workflow)
    goals = workflow.instantiate_for_dashboard(
        spec, random.Random(args.seed)
    )
    session = SessionSimulator(
        spec,
        reference_table,
        [g.query for g in goals],
        measured_engine=measured,
        reference_engine=reference,
        config=SessionConfig(seed=args.seed),
        workflow_name=args.workflow,
    ).run()

    log = export_session(session)
    out = Path(args.out)
    if out.suffix == ".csv":
        write_csv(log, out)
    else:
        write_jsonl(log, out)
    print(
        f"wrote {out}: {log.interaction_count} interactions, "
        f"{log.query_count} queries, "
        f"{log.goals_completed}/{log.goals_total} goals"
    )
    return 0


def _replay(args, policy) -> int:
    log = _read_any(args.log)
    engine = create_engine(args.engine)
    table = generate_dataset(log.dashboard, args.rows, seed=args.seed)
    engine.load_table(table)
    with cli_trace(args.trace):
        report = replay_log(
            log, engine, check_cardinality=not args.no_check, policy=policy
        )
    print(
        f"replayed {report.query_count} queries on {engine.name}: "
        f"mean {report.average_duration_ms():.3f} ms"
    )
    if not report.matched:
        print(f"cardinality mismatches: {len(report.mismatches)}")
        for mismatch in report.mismatches[:5]:
            print(
                f"  step {mismatch.entry.step}: logged "
                f"{mismatch.entry.rows_returned}, replayed "
                f"{mismatch.replayed_rows}"
            )
        return 1
    print("all cardinalities matched")
    return 0


def _metrics(args) -> int:
    log = _read_any(args.log)
    result = eva_metrics(log)
    print(f"dashboard             : {log.dashboard}")
    print(f"engine                : {log.engine}")
    print(f"workflow              : {log.workflow}")
    print(f"goals                 : {log.goals_completed}/{log.goals_total}")
    print(f"total interactions    : {result.total_interactions}")
    print(f"total queries         : {result.total_queries}")
    print(f"exploration time (ms) : {result.total_exploration_ms:.1f}")
    print(
        f"interaction rate      : "
        f"{result.interaction_rate_per_minute:.1f}/min"
    )
    print(
        f"response ms mean/p95/max: {result.mean_response_ms:.2f} / "
        f"{result.p95_response_ms:.2f} / {result.max_response_ms:.2f}"
    )
    print(
        f"attributes explored   : "
        f"{', '.join(sorted(result.attributes_explored))}"
    )
    print(
        f"empty-result fraction : {result.empty_result_fraction:.2%}"
    )
    print(f"model mix             : {result.model_mix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
