"""Exploration-session simulation: interleaved Oracle + Markov (§4.3).

A :class:`SessionSimulator` drives one simulated analyst through one
dashboard toward an ordered goal set:

- the session starts open-ended (Markov-dominated) and becomes
  goal-focused over time via exponential decay of P(Markov), Figure 5;
- goals are pursued in order; when goal *i* is covered the simulation
  continues from the current dashboard state toward goal *i+1*;
- every emitted SQL query is executed on the system-under-test engine
  and timed — query durations are the benchmark's primary metric.

The reference engine (used for goal-coverage logic) and the measured
engine are separate so that goal bookkeeping never pollutes timings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.dashboard.spec import DashboardSpec
from repro.dashboard.state import DashboardState, Interaction
from repro.engine.interface import Engine, QueryResult
from repro.engine.table import Table
from repro.equivalence.results import ResultCache
from repro.errors import SimulationError
from repro.simulation.goals import GoalTracker
from repro.simulation.markov import MarkovModel
from repro.simulation.oracle import OracleModel
from repro.sql.ast import Query


@dataclass(frozen=True)
class SessionConfig:
    """Tunable parameters of a simulated session.

    ``p_markov_initial`` and ``decay_rate`` define
    ``P(Markov at step t) = p0 * exp(-decay * t)`` (paper Figure 5).
    The defaults yield session lengths consistent with the 12-minute
    exploration studies the paper tunes against: novice-like sessions of
    roughly 15-40 interactions.
    """

    p_markov_initial: float = 1.0
    decay_rate: float = 0.15
    max_steps_per_goal: int = 40
    max_total_steps: int = 120
    #: Abandon the current goal after this many consecutive interactions
    #: with no coverage progress once the session is goal-focused
    #: (P(Markov) < 0.5). Mirrors analysts giving up on a dead end.
    stall_limit: int = 10
    markov_preset: str = "balanced"
    lookahead: int = 1
    #: When True, each goal segment runs its full step budget even after
    #: the goal completes — fixed-duration sessions like the paper's
    #: 12-minute analyst studies.
    run_to_max: bool = False
    #: When True, goals are re-ordered dynamically: before each segment
    #: the simulation pursues the pending goal with the highest current
    #: coverage (the "dynamically generate goal orderings based on the
    #: current model and dashboard states" extension of §4.3).
    dynamic_goal_order: bool = False
    #: How each interaction's emitted queries execute: an
    #: :class:`~repro.execution.ExecutionPolicy` (or preset name).
    #: ``None`` resolves to the historical sequential default —
    #: ``ExecutionPolicy.serial()``, one engine call per query, the
    #: paper's setup. After construction this field always holds a
    #: resolved ``ExecutionPolicy``; results are byte-identical for
    #: every policy (:mod:`repro.concurrency`, :mod:`repro.sharding`,
    #: :mod:`repro.engine.multiplan`). Swap it with
    #: ``dataclasses.replace(config, policy=...)``.
    policy: object = None
    seed: int = 0

    def __post_init__(self) -> None:
        from repro.execution import ExecutionPolicy, coerce_policy

        policy = (
            ExecutionPolicy.serial()
            if self.policy is None
            else coerce_policy(self.policy)
        )
        object.__setattr__(self, "policy", policy)

    def p_markov(self, step: int) -> float:
        """Probability of using the Markov model at global step ``step``."""
        return self.p_markov_initial * math.exp(-self.decay_rate * step)

    @classmethod
    def novice(cls, seed: int = 0) -> "SessionConfig":
        """Familiarity preset: long open-ended phase (§4.3)."""
        return cls(
            p_markov_initial=1.0,
            decay_rate=0.06,
            markov_preset="novice",
            seed=seed,
        )

    @classmethod
    def expert(cls, seed: int = 0) -> "SessionConfig":
        """Familiarity preset: near-immediate goal focus (§4.3)."""
        return cls(
            p_markov_initial=0.5,
            decay_rate=0.4,
            markov_preset="expert",
            seed=seed,
        )


@dataclass
class InteractionRecord:
    """One executed interaction with its emitted, timed queries."""

    step: int
    goal_index: int
    model: str  # "oracle" | "markov" | "initial"
    interaction: Interaction | None
    queries: list[QueryResult]
    progress_after: float

    @property
    def empty_results(self) -> int:
        """How many emitted queries returned zero rows.

        The paper's user-study experts used repeated zero-result queries
        as their tell for simulated logs (§6.4); this surfaces it.
        """
        return sum(1 for q in self.queries if q.rows_returned == 0)

    def describe(self) -> str:
        if self.interaction is None:
            return "initial render"
        return self.interaction.describe()


@dataclass
class SessionLog:
    """The full record of one simulated exploration session."""

    dashboard: str
    engine: str
    workflow: str | None
    records: list[InteractionRecord] = field(default_factory=list)
    goals_completed: int = 0
    goals_total: int = 0

    @property
    def interaction_count(self) -> int:
        return sum(1 for r in self.records if r.interaction is not None)

    @property
    def query_count(self) -> int:
        return sum(len(r.queries) for r in self.records)

    def query_durations(self) -> list[float]:
        """Wall-clock durations (ms) of every query issued."""
        return [q.duration_ms for r in self.records for q in r.queries]

    def average_duration(self) -> float:
        durations = self.query_durations()
        if not durations:
            return 0.0
        return sum(durations) / len(durations)

    def empty_result_count(self) -> int:
        return sum(r.empty_results for r in self.records)

    def model_mix(self) -> dict[str, int]:
        """How many interactions each model contributed."""
        mix: dict[str, int] = {}
        for record in self.records:
            if record.interaction is not None:
                mix[record.model] = mix.get(record.model, 0) + 1
        return mix

    def queries(self) -> list[str]:
        """All emitted SQL texts, in order."""
        return [q.sql for r in self.records for q in r.queries]

    def to_rows(self) -> list[dict[str, object]]:
        """Flat log rows (the artifact shown to user-study experts)."""
        rows: list[dict[str, object]] = []
        for record in self.records:
            for query in record.queries:
                rows.append(
                    {
                        "step": record.step,
                        "interaction": record.describe(),
                        "sql": query.sql,
                        "rows_returned": query.rows_returned,
                        "duration_ms": round(query.duration_ms, 3),
                    }
                )
        return rows


class SessionSimulator:
    """Simulates one analyst exploring one dashboard toward a goal set."""

    def __init__(
        self,
        spec: DashboardSpec,
        table: Table,
        goal_queries: list[Query],
        measured_engine: Engine,
        reference_engine: Engine,
        config: SessionConfig | None = None,
        workflow_name: str | None = None,
    ) -> None:
        if not goal_queries:
            raise SimulationError("session requires at least one goal query")
        self.spec = spec
        self.table = table
        self.goal_queries = goal_queries
        self.measured_engine = measured_engine
        self.config = config or SessionConfig()
        self.workflow_name = workflow_name
        self.cache = ResultCache(reference_engine)
        self.rng = random.Random(self.config.seed)
        self.state = DashboardState(spec, table)
        self.markov = MarkovModel(
            self.config.markov_preset,
            random.Random(self.config.seed + 1),
        )

    def run(self) -> SessionLog:
        """Execute the full session and return its log."""
        log = SessionLog(
            dashboard=self.spec.name,
            engine=self.measured_engine.name,
            workflow=self.workflow_name,
            goals_total=len(self.goal_queries),
        )
        observed: list[Query] = []
        step = 0

        # Initial render: every visualization fires its base query.
        initial = self.state.initial_queries()
        log.records.append(
            InteractionRecord(
                step=step,
                goal_index=0,
                model="initial",
                interaction=None,
                queries=self._measure_all(initial),
                progress_after=0.0,
            )
        )
        observed.extend(initial)

        pending = list(enumerate(self.goal_queries))
        while pending:
            if self.config.dynamic_goal_order:
                pending.sort(
                    key=lambda item: self._current_coverage(
                        item[1], observed
                    ),
                    reverse=True,
                )
            goal_index, goal = pending.pop(0)
            tracker = GoalTracker([goal], self.cache)
            tracker.observe(observed)
            oracle = OracleModel(
                tracker,
                lookahead=self.config.lookahead,
                rng=random.Random(self.config.seed + 2 + goal_index),
            )
            self.markov.reset()
            goal_steps = 0
            stalled = 0
            while (
                (self.config.run_to_max or not tracker.complete)
                and goal_steps < self.config.max_steps_per_goal
                and step < self.config.max_total_steps
            ):
                step += 1
                goal_steps += 1
                interaction, model_name = self._choose(oracle, step)
                if interaction is None:
                    break
                emitted = self.state.apply(interaction)
                gained = tracker.observe(emitted)
                observed.extend(emitted)
                log.records.append(
                    InteractionRecord(
                        step=step,
                        goal_index=goal_index,
                        model=model_name,
                        interaction=interaction,
                        queries=self._measure_all(emitted),
                        progress_after=tracker.progress,
                    )
                )
                if gained > 0:
                    stalled = 0
                elif self.config.p_markov(step) < 0.5:
                    # Goal-focused but not progressing: count the stall
                    # and abandon the goal once it exceeds the limit,
                    # like an analyst giving up on a dead end.
                    stalled += 1
                    if stalled >= self.config.stall_limit:
                        break
            if tracker.complete:
                log.goals_completed += 1
            if step >= self.config.max_total_steps:
                break
        return log

    # -- internals ----------------------------------------------------------------

    def _choose(
        self, oracle: OracleModel, step: int
    ) -> tuple[Interaction | None, str]:
        """Draw the model for this step and ask it for an interaction.

        When the Oracle cannot make progress (no interaction covers new
        goal cells) the Markov model takes over for the step, mirroring
        how a real analyst explores when the next move is not obvious.
        """
        use_markov = self.rng.random() < self.config.p_markov(step)
        if use_markov:
            interaction = self.markov.next_interaction(self.state)
            if interaction is not None:
                return interaction, "markov"
        interaction = oracle.next_interaction(self.state)
        if interaction is not None:
            return interaction, "oracle"
        interaction = self.markov.next_interaction(self.state)
        if interaction is not None:
            return interaction, "markov"
        return None, "none"

    def _current_coverage(
        self, goal: Query, observed: list[Query]
    ) -> float:
        """Coverage a goal would start with, for dynamic ordering."""
        tracker = GoalTracker([goal], self.cache)
        tracker.observe(observed)
        return tracker.progress

    def _measure_all(self, queries: list[Query]) -> list[QueryResult]:
        """Run one interaction's emitted fan-out on the measured engine.

        ``config.policy`` decides the strategy
        (:meth:`~repro.engine.interface.Engine.execute_batch`): batch
        policies send the whole fan-out through the shared-scan
        optimizer as a single unit — the execution strategy under test
        — while sequential policies preserve the paper's
        one-call-per-query behavior, workers overlapping the independent
        units either way; results are byte-identical.
        """
        return self.measured_engine.execute_batch(
            list(queries), self.config.policy
        )
