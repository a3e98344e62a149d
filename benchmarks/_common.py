"""Shared helpers for the paper benchmarks.

Each benchmark regenerates one table or figure from the paper's
evaluation (§6), prints the corresponding rows, and writes them to
``benchmarks/results/<name>.txt`` (ignored by git; CI uploads them).
Absolute numbers differ from the paper (simulated engines, laptop
scale); assertions check the *shape* claims instead. The table in
``docs/BENCHMARKS.md`` lists every benchmark with its status.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Default dataset size for benchmarks: large enough to separate the
#: engines, small enough for laptop runs. Override with SIMBA_BENCH_ROWS.
BENCH_ROWS = int(os.environ.get("SIMBA_BENCH_ROWS", "20000"))

#: Runs per parameter combination (the paper uses 8 on a 48-core server).
BENCH_RUNS = int(os.environ.get("SIMBA_BENCH_RUNS", "2"))


def write_result(name: str, text: str) -> None:
    """Persist one benchmark's rendered table and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===")
    print(text)
