"""Self-tests of the benchmark's own code (smoke-sized).

Not part of tier-1 (``pytest.ini`` collects ``tests/`` only); run with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from e2ebench import stats  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke_run(tmp_path, workload, trace, hash_seed="0"):
    report = tmp_path / f"{workload}_{trace}_{hash_seed}.json"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace), "--report", str(report)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return last, json.loads(report.read_text())


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_printed(tmp_path, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        last, report = smoke_run(tmp_path, workload, trace)
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
        # The probe module exists only in a traced process.
        assert report["info"]["probe_imported"] is bool(trace)


def test_inputs_do_not_depend_on_the_hash_salt(tmp_path):
    # BenchmarkRunner seeds goals with hash((seed, "<str>", ...)), which
    # is salted per process; the benchmark pins the salt and seeds its
    # own generators with strings.
    hashes = [
        smoke_run(tmp_path, "simulate", 0, hash_seed)[1]["info"]["input_hashes"]
        for hash_seed in ("1", "2")
    ]
    assert hashes[0] == hashes[1]
    lock = json.loads((HERE / "inputs.lock.json").read_text())
    assert hashes[0] == lock["smoke"]["simulate"]


def test_a_timed_pass_is_whole_passes_over_the_pool():
    # Every run of a seed measures the same ops in the same mix: the pass
    # never stops mid-pool, however long the host takes over a round.
    import time

    import run

    class Pool:
        rounds = [[0], [1], [2]]
        seen = []

        def run_round(self, index, rec):
            self.seen.append(index)
            time.sleep(0.01)

        def verify(self, ops):
            return 0

    timed = run.TimedPass(Pool()).until(0.05)
    assert timed.rounds >= 3 and timed.rounds % 3 == 0
    assert Pool.seen == [0, 1, 2] * (timed.rounds // 3)
    assert run.TimedPass(Pool()).until(0.0).rounds == 3  # at least once


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_ten_samples_beyond_rule():
    # A percentile is reported only with ten samples beyond it.
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9
    assert stats.samples_beyond(200, 99) == 2
    assert stats.samples_beyond(1000, 99) == 10


def test_spreads():
    assert stats.range_spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert 0 < stats.iqr_spread(values) < stats.range_spread(values)


def test_self_time_with_overlapping_cross_thread_children():
    spans = [
        # id, parent, start, end
        ("op", None, 0.0, 10.0),
        ("plan", "op", 1.0, 2.0),
        ("run", "op", 2.0, 9.0),
        # Two shard scans on two worker threads, overlapping each other,
        # the second outliving its parent's interval.
        ("shard0", "run", 3.0, 6.0),
        ("shard1", "run", 4.0, 9.5),
        ("scan0", "shard0", 3.5, 5.5),
    ]
    selfs = stats.self_times(spans)
    assert selfs["op"] == pytest.approx(10.0 - 1.0 - 7.0)
    assert selfs["plan"] == pytest.approx(1.0)
    # Children cover [3, 9] of run's [2, 9]: the union, clipped.
    assert selfs["run"] == pytest.approx(1.0)
    assert selfs["shard0"] == pytest.approx(1.0)
    assert selfs["shard1"] == pytest.approx(5.5)
    assert selfs["scan0"] == pytest.approx(2.0)


def _probe_targets():
    """(owner, attribute) of everything a traced run rebinds."""
    import importlib

    from e2ebench import probe

    paths = [(module, path) for _, module, path in probe.PROBES]
    paths += [(module, path) for module, path, _
              in probe.Tracer("facade")._special_probes()]
    paths += [(module, f"{cls}.{method}") for module, cls in probe.STORE_CLASSES
              for method in probe.STORE_METHODS]
    targets = []
    for module_name, path in paths:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            targets.append((getattr(module, class_name), attr))
        else:
            targets += [
                (other, path) for other in list(sys.modules.values())
                if getattr(other, "__name__", "").startswith("repro")
                and vars(other).get(path) is getattr(module, path)
            ]
    return targets


def test_every_wrapped_callable_is_restored():
    import repro  # noqa: F401  (every module that imports a probed name)
    from e2ebench import probe

    missing = object()
    targets = _probe_targets()
    before = [owner.__dict__.get(attr, missing) for owner, attr in targets]
    tracer = probe.Tracer("facade")
    tracer.install()
    during = [owner.__dict__.get(attr, missing) for owner, attr in targets]
    tracer.uninstall()
    after = [owner.__dict__.get(attr, missing) for owner, attr in targets]
    # Store classes that only inherit a method are left alone.
    assert sum(d is not b for d, b in zip(during, before)) >= len(probe.PROBES)
    assert all(a is b for a, b in zip(after, before))
