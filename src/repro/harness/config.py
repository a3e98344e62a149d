"""Benchmark configuration (paper Table 3).

The paper's experiments permute three parameters — dataset size
(100K/1M/10M rows), goal-template sequence (Shneiderman, Battle & Heer,
Crossfilter), and dashboard (the six of Figure 6) — against four DBMSs,
with 8 runs per combination. :func:`table3_matrix` enumerates exactly
that grid; :class:`BenchmarkConfig` lets callers scale any axis down
(laptop-scale defaults) or up (paper-scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dashboard.library import DASHBOARD_NAMES
from repro.engine.registry import available_engines
from repro.errors import ConfigError
from repro.simulation.session import SessionConfig
from repro.simulation.workflows import WORKFLOWS

#: The paper's dataset sizes (Table 3).
PAPER_SIZES: dict[str, int] = {
    "100K": 100_000,
    "1M": 1_000_000,
    "10M": 10_000_000,
}

#: Laptop-scale default sizes preserving the 1:10:100 ratio.
DEFAULT_SIZES: dict[str, int] = {
    "3K": 3_000,
    "30K": 30_000,
}


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark experiment: the axes to permute and session tuning."""

    dashboards: tuple[str, ...] = tuple(DASHBOARD_NAMES)
    workflows: tuple[str, ...] = ("shneiderman", "battle_heer", "crossfilter")
    engines: tuple[str, ...] = ("rowstore", "vectorstore", "matstore", "sqlite")
    sizes: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_SIZES)
    )
    runs: int = 3
    seed: int = 0
    #: Rows in the reference table used for goal-coverage logic (kept
    #: small so planning cost does not scale with the measured dataset).
    reference_rows: int = 2_000
    #: The execution policy for the whole experiment: an
    #: :class:`~repro.execution.ExecutionPolicy` (or preset name, the
    #: CLI's ``--policy``); ``None`` means ``ExecutionPolicy.serial()``.
    #: Two effects: ``policy.workers`` sizes the runner's pool for
    #: overlapping independent engine x run grid cells, and a
    #: ``session`` left at its default policy takes this one (an
    #: explicitly configured session keeps its own — the session config
    #: is the single source of truth downstream). After construction
    #: this field holds a resolved ``ExecutionPolicy``; results are
    #: identical for every policy — only wall-clock and the *measured*
    #: durations change (overlapped queries contend for cores).
    policy: object = None
    #: Fixed-duration sessions by default: each goal segment runs its
    #: full step budget even if the goal completes early, matching the
    #: paper's time-boxed exploration studies and keeping per-dashboard
    #: workloads comparable in size.
    session: SessionConfig = field(
        default_factory=lambda: SessionConfig(
            run_to_max=True, max_steps_per_goal=12, stall_limit=8
        )
    )

    def __post_init__(self) -> None:
        known_engines = set(available_engines())
        for engine in self.engines:
            if engine not in known_engines:
                raise ConfigError(f"unknown engine {engine!r}")
        for workflow in self.workflows:
            if workflow not in WORKFLOWS:
                raise ConfigError(f"unknown workflow {workflow!r}")
        for dashboard in self.dashboards:
            if dashboard not in DASHBOARD_NAMES:
                raise ConfigError(f"unknown dashboard {dashboard!r}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not self.sizes:
            raise ConfigError("at least one dataset size is required")
        from dataclasses import replace

        from repro.execution import ExecutionPolicy, coerce_policy

        serial = ExecutionPolicy.serial()
        policy = serial if self.policy is None else coerce_policy(self.policy)
        object.__setattr__(self, "policy", policy)
        if self.session.policy == serial and policy != serial:
            # A session left at its default follows the experiment.
            object.__setattr__(
                self, "session", replace(self.session, policy=policy)
            )

    @classmethod
    def paper_scale(cls) -> "BenchmarkConfig":
        """The full Table 3 grid at the paper's sizes (8 runs)."""
        return cls(sizes=dict(PAPER_SIZES), runs=8)

    @classmethod
    def smoke(cls) -> "BenchmarkConfig":
        """A minimal configuration for CI smoke tests."""
        return cls(
            dashboards=("customer_service",),
            workflows=("shneiderman",),
            engines=("vectorstore",),
            sizes={"1K": 1_000},
            runs=1,
            reference_rows=1_000,
        )


def table3_matrix(config: BenchmarkConfig | None = None) -> list[dict[str, object]]:
    """Enumerate the experiment grid as rows (the content of Table 3)."""
    config = config or BenchmarkConfig()
    rows: list[dict[str, object]] = []
    for size_label, num_rows in sorted(
        config.sizes.items(), key=lambda kv: kv[1]
    ):
        for workflow in config.workflows:
            for dashboard in config.dashboards:
                rows.append(
                    {
                        "dataset_size": size_label,
                        "rows": num_rows,
                        "goal_sequence": workflow,
                        "dashboard": dashboard,
                    }
                )
    return rows
