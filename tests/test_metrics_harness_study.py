"""Tests for metrics, the benchmark harness, and the user-study module."""

import pytest

from repro.errors import ConfigError
from repro.harness import BenchmarkConfig, BenchmarkRunner, table3_matrix
from repro.metrics import duration_summary, format_table, workload_statistics
from repro.metrics.workload_stats import MeanStd, _mean_std


class TestMeanStd:
    def test_empty(self):
        stat = _mean_std([])
        assert stat.mean == 0.0
        assert stat.count == 0

    def test_single_value(self):
        stat = _mean_std([5.0])
        assert stat.mean == 5.0
        assert stat.std == 0.0

    def test_known_values(self):
        stat = _mean_std([1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)
        assert stat.std == pytest.approx(1.0)

    def test_format(self):
        assert str(MeanStd(1.5, 0.25, 10)) == "1.5 ± 0.2"


class TestWorkloadStatistics:
    def test_from_sql_strings(self):
        stats = workload_statistics(
            [
                "SELECT q, COUNT(x) FROM t WHERE a = 1 GROUP BY q",
                "SELECT a, b FROM t WHERE a = 1 AND b = 2",
            ],
            label="demo",
        )
        assert stats.query_count == 2
        assert stats.plain_columns.mean == pytest.approx(1.5)
        assert stats.aggregated_columns.mean == pytest.approx(0.5)
        assert stats.filters.mean == pytest.approx(1.5)

    def test_as_row_format(self):
        stats = workload_statistics(["SELECT a FROM t"], label="x")
        row = stats.as_row()
        assert row["statistic"] == "x"
        assert "±" in row["count_plain_columns"]


class TestDurationSummary:
    def test_empty(self):
        summary = duration_summary("x", [])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_quartiles_ordered(self):
        summary = duration_summary("x", [float(i) for i in range(100)])
        assert summary.p25 <= summary.median <= summary.p75 <= summary.p95
        assert summary.iqr == pytest.approx(summary.p75 - summary.p25)

    def test_as_row(self):
        row = duration_summary("x", [1.0, 2.0]).as_row()
        assert row["label"] == "x"
        assert row["queries"] == 2


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment(self):
        text = format_table([{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")


class TestBenchmarkConfig:
    def test_defaults_valid(self):
        BenchmarkConfig()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            BenchmarkConfig(engines=("oracle-12c",))

    def test_unknown_workflow_rejected(self):
        with pytest.raises(ConfigError):
            BenchmarkConfig(workflows=("random-walk",))

    def test_unknown_dashboard_rejected(self):
        with pytest.raises(ConfigError):
            BenchmarkConfig(dashboards=("excel",))

    def test_zero_runs_rejected(self):
        with pytest.raises(ConfigError):
            BenchmarkConfig(runs=0)

    def test_paper_scale_matches_table3(self):
        config = BenchmarkConfig.paper_scale()
        assert config.sizes == {
            "100K": 100_000, "1M": 1_000_000, "10M": 10_000_000,
        }
        assert config.runs == 8

    def test_table3_matrix_enumeration(self):
        config = BenchmarkConfig(
            dashboards=("circulation", "myride"),
            workflows=("shneiderman",),
            sizes={"1K": 1000},
        )
        rows = table3_matrix(config)
        assert len(rows) == 2
        assert rows[0]["goal_sequence"] == "shneiderman"


class TestBenchmarkRunner:
    @pytest.fixture(scope="class")
    def result(self):
        config = BenchmarkConfig(
            dashboards=("customer_service", "myride"),
            workflows=("shneiderman", "battle_heer"),
            engines=("vectorstore", "sqlite"),
            sizes={"800": 800},
            runs=1,
            reference_rows=800,
        )
        return BenchmarkRunner(config).run()

    def test_myride_battle_heer_skipped(self, result):
        assert ("myride", "battle_heer", "800") in result.skipped

    def test_run_count(self, result):
        # (cs x 2 workflows + myride x 1 workflow) x 2 engines x 1 run
        assert len(result.runs) == 6

    def test_durations_filterable(self, result):
        cs = result.durations(dashboard="customer_service")
        assert cs
        sqlite_only = result.durations(engine="sqlite")
        assert len(sqlite_only) < len(cs) + len(
            result.durations(dashboard="myride")
        )

    def test_summaries_by_dashboard(self, result):
        labels = {s.label for s in result.summaries_by("dashboard")}
        assert labels == {"customer_service", "myride"}

    def test_summaries_by_two_fields(self, result):
        summaries = result.summaries_by("workflow", "engine")
        assert all(" / " in s.label for s in summaries)

    def test_every_run_has_queries(self, result):
        for run in result.runs:
            assert run.queries > 0
            assert run.durations_ms
            assert run.average_duration > 0


class TestStudy:
    def test_study_structure(self):
        from repro.study import run_user_study

        result = run_user_study(seed=4, rows=800, num_experts=4)
        assert result.total_guesses == 8
        assert set(result.guesses_by_dashboard) == {
            "it_monitor", "customer_service",
        }
        assert 0.0 <= result.p_value <= 1.0
        rows = result.as_rows()
        assert rows[-1]["dashboard"] == "overall"

    def test_features_recorded(self):
        from repro.study import run_user_study

        result = run_user_study(seed=4, rows=800, num_experts=2)
        for dashboard in ("it_monitor", "customer_service"):
            features = result.features[dashboard]
            assert "simba_repeat_signal" in features
            assert features["human_repeat_signal"] == 0.0

    def test_judge_flips_coin_below_sensitivity(self):
        import random

        from repro.simulation.session import SessionLog
        from repro.study.discriminator import ExpertJudge

        empty_log = SessionLog(dashboard="d", engine="e", workflow=None)
        judge = ExpertJudge(rng=random.Random(0))
        guesses = {
            judge.guess_simulated(empty_log, empty_log) for _ in range(20)
        }
        assert guesses == {0, 1}  # pure coin flips

    def test_suppress_repeated_empty(self):
        from repro.simulation.session import (
            InteractionRecord,
            SessionLog,
        )
        from repro.dashboard.state import Interaction, InteractionKind
        from repro.engine.interface import QueryResult, ResultSet
        from repro.study.experiment import suppress_repeated_empty

        def record(step, empty):
            rs = ResultSet(["a"], [] if empty else [(1,)])
            qr = QueryResult(rs, 1.0, "e", "SELECT a FROM t")
            return InteractionRecord(
                step=step,
                goal_index=0,
                model="markov",
                interaction=Interaction(InteractionKind.RESET),
                queries=[qr],
                progress_after=0.0,
            )

        log = SessionLog(dashboard="d", engine="e", workflow=None)
        log.records = [record(1, True), record(2, True), record(3, False)]
        cleaned = suppress_repeated_empty(log)
        assert len(cleaned.records) == 2  # second empty dropped


class TestHarnessLogExport:
    def test_runner_exports_jsonl_logs(self, tmp_path):
        from repro.harness.config import BenchmarkConfig
        from repro.harness.runner import BenchmarkRunner
        from repro.logs.io import read_jsonl
        from repro.logs.replay import replay_log
        from repro.engine.registry import create_engine
        from repro.workload import generate_dataset

        config = BenchmarkConfig(
            dashboards=("customer_service",),
            workflows=("shneiderman",),
            engines=("vectorstore",),
            sizes={"tiny": 2_000},
            runs=1,
            seed=4,
        )
        directory = tmp_path / "logs"
        result = BenchmarkRunner(config, log_directory=str(directory)).run()
        files = sorted(directory.glob("*.jsonl"))
        assert len(files) == len(result.runs) == 1
        log = read_jsonl(files[0])
        assert log.query_count == result.runs[0].queries

        # The exported log replays cleanly against the same dataset.
        engine = create_engine("vectorstore")
        engine.load_table(generate_dataset("customer_service", 2_000, seed=4))
        assert replay_log(log, engine).matched


class TestHarnessSessionConfig:
    def test_cells_keep_every_session_field(self, monkeypatch):
        """Each grid cell reseeds the configured session and keeps every
        other field — dynamic goal order included (regression: the
        runner rebuilt SessionConfig field by field and dropped it)."""
        from dataclasses import replace

        import repro.harness.runner as runner
        from repro.simulation.session import SessionConfig

        built = []
        real = runner.SessionSimulator

        def recording(*args, **kwargs):
            built.append(kwargs["config"])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "SessionSimulator", recording)
        session = SessionConfig(
            dynamic_goal_order=True, max_steps_per_goal=3, max_total_steps=6
        )
        config = replace(BenchmarkConfig.smoke(), session=session, seed=2)
        BenchmarkRunner(config).run()
        assert [c.seed for c in built] == [2_000]
        assert all(c.dynamic_goal_order for c in built)
        assert all(replace(c, seed=session.seed) == session for c in built)


#: Runs a small grid and prints the goals it drew and what the sessions
#: did, as JSON. Run in children because the hash salt is per process.
_GRID_SCRIPT = """
import json
import repro.simulation.workflows as workflows
from repro.harness import BenchmarkConfig, BenchmarkRunner

goal_sql = []
instantiate = workflows.Workflow.instantiate_for_dashboard

def recording(self, spec, rng=None):
    goals = instantiate(self, spec, rng)
    goal_sql.append([str(goal.query) for goal in goals])
    return goals

workflows.Workflow.instantiate_for_dashboard = recording
result = BenchmarkRunner(BenchmarkConfig(
    dashboards=("customer_service",), workflows=("shneiderman", "crossfilter"),
    engines=("vectorstore",), sizes={"tiny": 300}, runs=2, seed=3,
)).run()
print(json.dumps({
    "goals": goal_sql,
    "runs": [
        [r.workflow, r.run_index, r.interactions, r.queries, r.goals_completed]
        for r in result.runs
    ],
}))
"""


class TestRunnerReproducibility:
    def test_same_config_is_the_same_workload_in_every_interpreter(self):
        """Goal draws were seeded with ``hash()`` of a tuple of strings,
        which is salted per process."""
        import json
        import os
        import subprocess
        import sys

        outputs = []
        for salt in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", _GRID_SCRIPT],
                env=dict(os.environ, PYTHONHASHSEED=salt),
                capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1]
        assert len(outputs[0]["goals"]) == 4  # 2 workflows x 2 runs
        assert all(run[2] > 0 for run in outputs[0]["runs"])
