#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see README.md beside this file).

One workload, one run (what the acceptance driver calls)::

    python3 benchmarks/e2e/run.py --workload explore --seed 0 --seconds 10 --trace 0

Every workload, untraced then traced, written as an artifact::

    python3 benchmarks/e2e/run.py [--smoke]

Repeatability of the same code, checked against BENCHMARK.json's bounds::

    python3 benchmarks/e2e/run.py --check-stability 10 [--vary-seed]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
LOCK = HERE / "inputs.lock.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
SMOKE_SECONDS = 1
#: Counts that depend on how two client threads interleave; every other
#: metric whose unit is "count" must repeat exactly run to run.
TIMING_DEPENDENT = {
    "serving.admission.max_queue_depth",
    "serving.registry.state_rebuilds",
}

perf = time.perf_counter


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="run only this workload, in this process (with "
                             "--check-stability: check only this workload)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed pass (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the separate traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="2000 rows, a small pool; artifacts go to "
                             "results/smoke/ only")
    parser.add_argument("--report", type=Path,
                        help="also write this run's full report as JSON")
    parser.add_argument("--check-stability", type=int, metavar="N",
                        help="run N sets and compare the spread of every "
                             "end-to-end cell with its bound")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --check-stability: another seed per set "
                             "(what the acceptance driver does)")
    parser.add_argument("--write-lock", action="store_true",
                        help="record the default seed's input hashes in "
                             "inputs.lock.json instead of checking them")
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-exec with PYTHONHASHSEED=0: string hashing is salted per
    process, and no input of the benchmark may depend on the salt."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


# ---------------------------------------------------------------------------
# One workload, one run
# ---------------------------------------------------------------------------


def check_lock(name: str, mode: str, hashes: dict, write: bool) -> None:
    lock = json.loads(LOCK.read_text()) if LOCK.exists() else {}
    if write:
        lock.setdefault(mode, {})[name] = hashes
        LOCK.write_text(json.dumps(lock, indent=2, sort_keys=True) + "\n")
        return
    pinned = lock.get(mode, {}).get(name)
    if pinned != hashes:
        sys.stderr.write(
            f"input hashes of {name!r} ({mode}, seed {DEFAULT_SEED}) differ "
            f"from inputs.lock.json:\n  pinned   {pinned}\n  generated {hashes}\n"
            f"Parent and change must see identical load.\n"
        )
        raise SystemExit(3)


class TimedPass:
    """Rounds of a workload, timed, verified and accounted.

    After each round the clock stops while that round's results are
    checked against the oracle and dropped, so the process never holds
    more than one round of results and ``peak_rss_mb`` does not grow
    with the number of rounds a host manages to run.
    """

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.ops = []  # outcomes dropped once verified
        self.wall = 0.0
        self.rounds = 0
        self.failed = 0
        self.sessions = 0
        self.verify_s = 0.0  # oracle and comparison, outside the clock

    def round(self, run) -> None:
        from e2ebench.workloads import Recorder

        recorder = Recorder(self.tracer, first_session=self.sessions)
        start = perf()
        run(recorder)
        self.wall += perf() - start
        self.rounds += 1
        self.sessions = recorder.sessions
        start = perf()
        self.failed += self.workload.verify(recorder.ops)
        self.verify_s += perf() - start
        for op in recorder.ops:
            op.outcome = None
        self.ops.extend(recorder.ops)

    def pool(self, rounds=None) -> "TimedPass":
        """The first ``rounds`` rounds of the pool (default: all), once."""
        workload = self.workload
        for index in range(rounds or len(workload.rounds)):
            self.round(lambda rec: workload.run_round(index, rec))
        return self

    def until(self, seconds: float) -> "TimedPass":
        """Whole passes over the pool - every run of a seed measures the
        same ops in the same mix, however fast the host - until the
        measured time is as close to ``seconds`` as whole passes get."""
        passes = 0
        while True:
            self.pool()
            passes += 1
            if self.wall + self.wall / passes / 2 >= seconds:
                return self


def run_workload(args) -> int:
    import resource

    from e2ebench import stats
    from e2ebench.workloads import WORKLOADS

    spec = benchmark_spec()
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    mode = "smoke" if args.smoke else "full"
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    try:
        setups = []
        for repeat in range(1 if args.smoke else SETUP_REPEATS):
            if repeat:
                workload.teardown()
            start = perf()
            workload.setup()
            setups.append(perf() - start)
        start = perf()
        workload.prepare()
        hashes = workload.input_hashes()
        prepare_s = perf() - start
        if args.seed == DEFAULT_SEED:
            check_lock(workload.name, mode, hashes, args.write_lock)

        # Warm-up: caches fill, lazy set-up ends.
        warm = TimedPass(workload).pool(workload.warm_rounds)
        cached = None
        if not args.trace:
            timed = TimedPass(workload).until(seconds)
        else:
            from e2ebench import probe

            # A traced pass is the pool exactly once - fixed work, so
            # counts repeat - after the same pool untraced, which
            # trace.overhead_share compares it with.
            reference = TimedPass(workload).pool()
            tracer = probe.Tracer(workload.root_layer)
            timed = TimedPass(workload, tracer)
            before = workload.facts()
            try:
                tracer.install()
                timed.pool()
                batch_stats = list(tracer.batch_stats)
                if hasattr(workload, "run_cached"):
                    cached = TimedPass(workload, tracer)
                    cached.sessions = timed.sessions
                    cached.round(workload.run_cached)
            finally:
                tracer.uninstall()
            rates = (len(reference.ops) / reference.wall,
                     len(timed.ops) / timed.wall)
            per_layer = probe.layer_metrics(
                tracer, timed.ops, batch_stats, (before, workload.facts()),
                workload.timing, rates)
            if cached is not None:
                per_layer.update(probe.engine_cache_metrics(
                    tracer, cached.ops, tracer.batch_stats[len(batch_stats):],
                    per_layer["engine.store.scan_ms_per_op"]))
            RESULTS.mkdir(exist_ok=True)
            probe.dump(tracer, RESULTS / f"trace_{workload.name}.json")

        ops, wall, rounds = timed.ops, timed.wall, timed.rounds
        failed = timed.failed + (cached.failed if cached is not None else 0)
        # An op is an interaction refresh; a session's first op (opening
        # the dashboard) is a population of its own, ten or more times
        # slower, and has its own metric.
        first = [op.ms for op in ops if op.step == 0]
        latencies = [op.ms for op in ops if op.step != 0]
        end_to_end = {
            "op_p50_ms": statistics.median(latencies),
            "op_p95_ms": stats.percentile(latencies, 95),
            "first_op_mean_ms": statistics.mean(first),
            "ops_per_s": len(ops) / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info = {
            "ops": len(ops),
            "first_ops": len(first),
            "rounds": rounds,
            "pool_rounds": len(workload.rounds),
            "timed_wall_s": wall,
            "warmup_s": warm.wall,
            "verify_s": warm.verify_s + timed.verify_s,
            "samples_beyond_p95": stats.samples_beyond(len(latencies), 95),
            "op_p99_ms": stats.percentile(latencies, 99),
            "failed_share": failed / len(ops),
            "setup_s_each": setups,
            "prepare_s": prepare_s,
            "setup_timing": workload.timing,
            "input_hashes": hashes,
            "wrong": workload.wrong[:10],
            "facts": workload.facts(),
            "probe_imported": "e2ebench.probe" in sys.modules,
        }
    finally:
        workload.teardown()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    print(f"# {workload.name} seed={args.seed} {mode} "
          f"{'traced' if args.trace else 'untraced'}: {len(ops)} ops in "
          f"{rounds} rounds, {wall:.2f} s timed, {failed} failed")
    for name, metric in metrics.items():
        print(f"{name:50s} {metric['value']:14.4f} {metric['unit']}")
    for line in workload.wrong[:10]:
        print(f"# WRONG {line}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    if args.report is not None:
        report = dict(result, workload=workload.name, seed=args.seed, mode=mode,
                      traced=bool(args.trace), rows=workload.rows,
                      clients=workload.clients, info=info)
        if args.trace:
            report["end_to_end_traced"] = end_to_end
        args.report.write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Every workload: artifacts, trajectory, stability
# ---------------------------------------------------------------------------


def child_run(workload, seed, trace, smoke, seconds, scratch: Path) -> dict:
    """One workload run in a process of its own (so peak RSS is its own)."""
    report = scratch / f"{workload}_{seed}_{trace}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace),
               "--report", str(report)]
    if smoke:
        command.append("--smoke")
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    sys.stdout.write("".join(
        line + "\n" for line in done.stdout.splitlines() if line.startswith("#")))
    sys.stdout.flush()
    if done.returncode not in (0, 1) or not report.exists():
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    result = json.loads(report.read_text())
    report.unlink()
    return result


def provenance(args, mode: str) -> dict:
    import platform

    def git(*command) -> str:
        try:
            done = subprocess.run(["git", *command], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--", "src", "benchmarks/e2e")),
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "mode": mode,
        "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def full_run(args) -> int:
    """Untraced then traced run of every workload; one artifact."""
    import tempfile

    spec = benchmark_spec()
    mode = "smoke" if args.smoke else "full"
    out = RESULTS / "smoke" if args.smoke else RESULTS
    out.mkdir(parents=True, exist_ok=True)
    header = provenance(args, mode)
    artifact = {"provenance": header, "claim": None, "workloads": {}}
    rows = []
    ok = True
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        for workload in [w["name"] for w in spec["workloads"]]:
            runs = [child_run(workload, args.seed, trace, args.smoke,
                              args.seconds, Path(scratch)) for trace in (0, 1)]
            untraced, traced = runs
            ok = ok and all(run["correct"] for run in runs)
            cell = {
                "rows": untraced["rows"],
                "correct": all(run["correct"] for run in runs),
                "input_hashes": untraced["info"]["input_hashes"],
                "end_to_end": untraced["metrics"],
                "per_layer": traced["metrics"],
                "info": {"untraced": untraced["info"], "traced": traced["info"],
                         "traced_end_to_end": traced["end_to_end_traced"]},
            }
            artifact["workloads"][workload] = cell
            rows.append({
                **header, "workload": workload, "rows": untraced["rows"],
                "correct": cell["correct"],
                **{k: v["value"] for k, v in untraced["metrics"].items()},
            })
    (out / "BENCH_e2e.json").write_text(json.dumps(artifact, indent=1) + "\n")
    with open(out / "trajectory.jsonl", "a") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    print(f"wrote {out / 'BENCH_e2e.json'} and {len(rows)} trajectory rows")
    return 0 if ok else 1


def check_stability(args) -> int:
    """N sets of the same code; every end-to-end cell against its bound,
    every exact count against itself.

    A cell's spread is (Q3 - Q1) / median of its N values, the measure
    the acceptance driver applies: on a shared host one set in ten or
    twenty runs into a noisy neighbour and comes out a fifth slower, and
    a (max - min) rule would fail on that set alone. The range is
    recorded beside it.
    """
    import tempfile

    from e2ebench import stats

    spec = benchmark_spec()
    sets = args.check_stability
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] == "count" and m["name"] not in TIMING_DEPENDENT]
    cells = {}
    violations = []
    RESULTS.mkdir(exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        for workload in names:
            seeds = [args.seed + (i if args.vary_seed else 0) for i in range(sets)]
            untraced = [child_run(workload, seed, 0, args.smoke, args.seconds,
                                  Path(scratch)) for seed in seeds]
            traced = [] if args.vary_seed else [
                child_run(workload, seed, 1, args.smoke, args.seconds,
                          Path(scratch)) for seed in seeds]
            failed = sum(run["failed"] for run in untraced + traced)
            if failed:
                violations.append(f"{workload}: {failed} failed ops")
            for metric in spec["end_to_end"]:
                values = [run["metrics"][metric["name"]]["value"] for run in untraced]
                spread = stats.iqr_spread(values)
                cells[f"{workload}/{metric['name']}"] = {
                    "values": values, "median": statistics.median(values),
                    "spread": spread, "range": stats.range_spread(values),
                    "bound": metric["bound"],
                }
                # setup_s is bounded on its median, not on its spread.
                if spread > metric["bound"] and metric["name"] != "setup_s":
                    violations.append(
                        f"{workload}/{metric['name']}: spread {spread:.3f} "
                        f"> bound {metric['bound']}")
            # With two clients and a shared cache, what an op costs in
            # calls depends on how the threads interleave.
            if any(run["clients"] > 1 for run in traced):
                continue
            for name in exact:
                values = {run["metrics"][name]["value"] for run in traced}
                if len(values) > 1:
                    violations.append(
                        f"{workload}/{name}: exact count varies {sorted(values)}")
    for cell, entry in cells.items():
        print(f"{cell:40s} median {entry['median']:12.4f} spread "
              f"{entry['spread']:.3f} range {entry['range']:.3f} "
              f"bound {entry['bound']}")
    for line in violations:
        print(f"VIOLATION {line}")
    mode = "smoke" if args.smoke else "full"
    table = {
        "provenance": provenance(args, mode), "sets": sets,
        "seeds": "one per set" if args.vary_seed else "the same for every set",
        "spread": "(Q3 - Q1) / median, statistics.quantiles(n=4)",
        "range": "(max - min) / median",
        "exact_counts_checked": [] if args.vary_seed else exact,
        "cells": cells, "violations": violations,
    }
    name = "STABILITY_seeds.json" if args.vary_seed else "STABILITY.json"
    # A table of one workload is a working aid, not the committed artifact.
    partial = args.smoke or args.workload is not None
    if args.workload is not None:
        name = f"{args.workload}_{name}"
    target = (RESULTS / "smoke" if partial else RESULTS)
    target.mkdir(parents=True, exist_ok=True)
    (target / name).write_text(json.dumps(table, indent=1) + "\n")
    return 1 if violations else 0


def main(argv) -> int:
    args = parse(argv)
    pin_hash_seed()
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"{ROOT / 'src' / 'repro'} not found: the benchmark "
                         f"measures the program in this checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.check_stability:
        return check_stability(args)
    if args.workload is None:
        return full_run(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
