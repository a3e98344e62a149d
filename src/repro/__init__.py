"""SIMBA: a SImulation-BAsed benchmark for interactive data exploration.

Reproduction of "An Adaptive Benchmark for Modeling User Exploration of
Large Datasets" (SIGMOD 2025). The package simulates how analysts
explore dashboards toward analysis goals and measures DBMS performance
under the resulting query workloads.

Quickstart — one import, one session, one execution policy::

    import repro

    session = repro.connect(
        "sqlite", policy=repro.ExecutionPolicy.concurrent(4)
    )
    session.load(repro.generate_dataset("customer_service", 10_000, seed=0))
    results = session.refresh("customer_service")
    print(session.stats)

Execution strategy is configured once through
:class:`~repro.execution.ExecutionPolicy` (presets: ``serial()``,
``concurrent(workers)``, ``max_throughput()``, ``auto()``) and travels
the whole stack as a single ``policy=`` value; every policy returns
byte-identical results. The full simulation API
(:class:`SessionSimulator`, :class:`BenchmarkRunner`, …) remains
importable piecewise. The pre-policy per-knob keywords
(``batch=``/``workers=``/``shards=``/``multiplan=``) were removed in
2.0.0; ``policy=`` is the only way to say how a batch executes.

See docs/ARCHITECTURE.md for the full system inventory and
docs/BENCHMARKS.md for the benchmarks and what they measure.
"""

from repro.algebra import GOAL_TEMPLATES, get_template, translate
from repro.concurrency import RefreshJob, ScanGroupExecutor, refresh_many
from repro.dashboard import DashboardSpec, DashboardState, Interaction
from repro.dashboard.library import DASHBOARD_NAMES, all_dashboards, load_dashboard
from repro.engine import (
    CachedEngine,
    Engine,
    ResultSet,
    Table,
    available_engines,
    create_engine,
)
from repro.execution import ExecutionPolicy
from repro.facade import Session, SessionStats, connect
from repro.logs import eva_metrics, export_session, replay_log
from repro.equivalence import EquivalenceSuite
from repro.harness import BenchmarkConfig, BenchmarkRunner, table3_matrix
from repro.idebench import IDEBenchConfig, IDEBenchSimulator
from repro.simulation import (
    MarkovModel,
    OracleModel,
    SessionConfig,
    SessionLog,
    SessionSimulator,
    get_workflow,
)
from repro.serving import (
    DashboardServer,
    ServingApp,
    ServingClient,
    ServingConfig,
)
from repro.sql import parse_query
from repro.study import run_user_study
from repro.telemetry import ExplainReport, Telemetry
from repro.workload import DATASET_NAMES, generate_dataset
from repro.workload.normalize import DimensionSpec, normalize_star

__version__ = "2.0.0"

__all__ = [
    "BenchmarkConfig",
    "BenchmarkRunner",
    "CachedEngine",
    "DASHBOARD_NAMES",
    "DATASET_NAMES",
    "DashboardServer",
    "DashboardSpec",
    "DashboardState",
    "DimensionSpec",
    "Engine",
    "EquivalenceSuite",
    "ExecutionPolicy",
    "ExplainReport",
    "GOAL_TEMPLATES",
    "IDEBenchConfig",
    "IDEBenchSimulator",
    "Interaction",
    "MarkovModel",
    "OracleModel",
    "RefreshJob",
    "ResultSet",
    "ScanGroupExecutor",
    "ServingApp",
    "ServingClient",
    "ServingConfig",
    "Session",
    "SessionConfig",
    "SessionLog",
    "SessionSimulator",
    "SessionStats",
    "Table",
    "Telemetry",
    "all_dashboards",
    "available_engines",
    "connect",
    "create_engine",
    "eva_metrics",
    "export_session",
    "generate_dataset",
    "get_template",
    "get_workflow",
    "load_dashboard",
    "normalize_star",
    "parse_query",
    "refresh_many",
    "replay_log",
    "run_user_study",
    "table3_matrix",
    "translate",
]
