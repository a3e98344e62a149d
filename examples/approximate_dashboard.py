#!/usr/bin/env python3
"""Approximate visualization: trade accuracy for interactive latency.

The paper notes SIMBA "provides support for approximate visualization"
(§5). This example answers a dashboard question — abandonment per call
queue — three ways:

1. exactly, over the full table;
2. from a 5% sample with Horvitz–Thompson scaling and bootstrap
   confidence intervals;
3. progressively (online aggregation), refining until the estimate
   stabilizes.

Usage::

    python examples/approximate_dashboard.py [rows] [seed]
"""

import sys

from repro import create_engine, generate_dataset, parse_query
from repro.approx import (
    approximate_execute,
    progressive_execute,
    relative_error,
)

QUERY = (
    "SELECT queue, COUNT(*) AS calls, SUM(abandoned) AS abandoned "
    "FROM customer_service GROUP BY queue ORDER BY queue"
)


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 23

    print(f"Generating customer_service ({rows:,} rows)...")
    table = generate_dataset("customer_service", rows, seed=seed)
    query = parse_query(QUERY)

    exact_engine = create_engine("vectorstore")
    exact_engine.load_table(table)
    exact_timed = exact_engine.execute_timed(query)
    exact = exact_timed.result
    print(f"\nExact answer ({exact_timed.duration_ms:.1f} ms):")
    for row in exact.rows:
        print(f"  queue {row[0]}: {row[1]:,} calls, {row[2]:,} abandoned")

    print("\n5% sample with bootstrap 95% confidence intervals:")
    engine = create_engine("vectorstore")
    result = approximate_execute(
        engine, table, query, fraction=0.05, seed=seed, bootstrap=40
    )
    for index, row in enumerate(result.estimate.rows):
        interval = result.cell_interval(index, "calls")
        low, high = interval if interval else (float("nan"), float("nan"))
        print(
            f"  queue {row[0]}: ~{row[1]:,.0f} calls "
            f"(95% CI {low:,.0f} – {high:,.0f})"
        )
    error = relative_error(exact, result.estimate)
    print(f"  mean relative error vs exact: {error:.1%} "
          f"from {result.sample_rows:,} sampled rows")

    print("\nProgressive refinement (stop when change < 2%):")
    engine = create_engine("vectorstore")
    for update in progressive_execute(
        engine, table, query, seed=seed, epsilon=0.02
    ):
        error = relative_error(exact, update.estimate)
        change = "—" if update.change is None else f"{update.change:.1%}"
        print(
            f"  step {update.step}: read {update.rows_read:>8,} rows "
            f"({update.fraction:>5.0%})  error {error:>6.1%}  "
            f"change {change:>6}  "
            f"{'CONVERGED' if update.converged else ''}"
        )


if __name__ == "__main__":
    main()
