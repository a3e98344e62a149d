"""The three-tier equivalence decision procedure (paper §4.1.2).

:class:`EquivalenceSuite` tries, in order of cost:

1. syntactic equivalence (normalized text / >95% similarity),
2. semantic equivalence (SPES-style canonical forms),
3. result equivalence (execute and test coverage).

It records which method decided, which the evaluation section uses to
report how often each tier fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.engine.interface import Engine
from repro.equivalence.results import (
    ResultCache,
    coverage_fraction,
    covers,
    goal_set_covered,
    goal_set_overlap,
)
from repro.equivalence.semantic import (
    semantically_equivalent,
    semantically_subsumes,
)
from repro.equivalence.syntactic import (
    SIMILARITY_THRESHOLD,
    syntactically_equivalent,
)
from repro.sql.ast import Query


class EquivalenceMethod(Enum):
    """Which tier decided an equivalence question."""

    SYNTACTIC = "syntactic"
    SEMANTIC = "semantic"
    RESULT = "result"
    NONE = "none"


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of one equivalence test."""

    equivalent: bool
    method: EquivalenceMethod

    def __bool__(self) -> bool:
        return self.equivalent


@dataclass
class SuiteStatistics:
    """Counts how often each tier fired (for evaluation reporting)."""

    syntactic: int = 0
    semantic: int = 0
    result: int = 0
    misses: int = 0

    def record(self, method: EquivalenceMethod) -> None:
        if method is EquivalenceMethod.SYNTACTIC:
            self.syntactic += 1
        elif method is EquivalenceMethod.SEMANTIC:
            self.semantic += 1
        elif method is EquivalenceMethod.RESULT:
            self.result += 1
        else:
            self.misses += 1


class EquivalenceSuite:
    """Three-tier equivalence/subsumption checker bound to one engine.

    Parameters
    ----------
    engine:
        Reference engine used by the result-equivalence tier. Result
        executions are cached across calls.
    similarity_threshold:
        String-similarity cutoff for the syntactic tier (paper: 0.95).
    enable_syntactic / enable_semantic / enable_result:
        Tier toggles, used by the equivalence ablation benchmark.
    """

    def __init__(
        self,
        engine: Engine,
        similarity_threshold: float = SIMILARITY_THRESHOLD,
        enable_syntactic: bool = True,
        enable_semantic: bool = True,
        enable_result: bool = True,
    ) -> None:
        self.cache = ResultCache(engine)
        self.similarity_threshold = similarity_threshold
        self.enable_syntactic = enable_syntactic
        self.enable_semantic = enable_semantic
        self.enable_result = enable_result
        self.statistics = SuiteStatistics()

    # -- pairwise equivalence --------------------------------------------------

    def equivalent(self, goal: Query, candidate: Query) -> EquivalenceVerdict:
        """Test whether ``candidate`` is equivalent to ``goal``."""
        if self.enable_syntactic and syntactically_equivalent(
            goal, candidate, self.similarity_threshold
        ):
            verdict = EquivalenceVerdict(True, EquivalenceMethod.SYNTACTIC)
            self.statistics.record(verdict.method)
            return verdict
        if self.enable_semantic and semantically_equivalent(goal, candidate):
            verdict = EquivalenceVerdict(True, EquivalenceMethod.SEMANTIC)
            self.statistics.record(verdict.method)
            return verdict
        if self.enable_result:
            goal_result = self.cache.execute(goal)
            candidate_result = self.cache.execute(candidate)
            if covers(goal_result, [candidate_result]) and covers(
                candidate_result, [goal_result]
            ):
                verdict = EquivalenceVerdict(True, EquivalenceMethod.RESULT)
                self.statistics.record(verdict.method)
                return verdict
        verdict = EquivalenceVerdict(False, EquivalenceMethod.NONE)
        self.statistics.record(verdict.method)
        return verdict

    def subsumes(self, goal: Query, candidate: Query) -> EquivalenceVerdict:
        """Test whether ``candidate``'s results cover ``goal``'s."""
        if self.enable_semantic and semantically_subsumes(goal, candidate):
            verdict = EquivalenceVerdict(True, EquivalenceMethod.SEMANTIC)
            self.statistics.record(verdict.method)
            return verdict
        if self.enable_result:
            goal_result = self.cache.execute(goal)
            candidate_result = self.cache.execute(candidate)
            if covers(goal_result, [candidate_result]):
                verdict = EquivalenceVerdict(True, EquivalenceMethod.RESULT)
                self.statistics.record(verdict.method)
                return verdict
        verdict = EquivalenceVerdict(False, EquivalenceMethod.NONE)
        self.statistics.record(verdict.method)
        return verdict

    # -- goal-set operations ---------------------------------------------------

    def goal_completed(
        self, goal_queries: list[Query], observed_queries: list[Query]
    ) -> bool:
        """The paper's completion test over whole goal sets."""
        if not self.enable_result:
            # Without the result tier, fall back to pairwise equivalence:
            # every goal query must match some observed query.
            return all(
                any(
                    self.equivalent(goal, seen).equivalent
                    for seen in observed_queries
                )
                for goal in goal_queries
            )
        return goal_set_covered(goal_queries, observed_queries, self.cache)

    def progress(
        self, goal_queries: list[Query], observed_queries: list[Query]
    ) -> float:
        """Mean goal coverage in [0, 1] — the Oracle's heuristic θ."""
        return goal_set_overlap(goal_queries, observed_queries, self.cache)
