"""The Oracle model: LookAhead forward planning (paper §4.1, Algorithm 1).

The Oracle receives the goal set and the interaction layer of the graph
representation, and repeatedly picks the interaction maximizing the
heuristic θ — the overlap between the goal result sets and the result
sets the candidate state would have observed (θ(s, R_g) = |R_g ∩ R(s)|).

Planning is re-done after every executed step ("perform partial plan,
observe current state, re-plan"), matching Algorithm 1's interleaving of
planning and acting. Lookahead depth is configurable; depth 1 is the
paper's default behaviour, depth 2 explores one extra step and is
exercised by the ablation benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dashboard.state import DashboardState, Interaction, InteractionKind
from repro.simulation.goals import GoalTracker


@dataclass(frozen=True)
class PlannedStep:
    """One planned interaction with its heuristic score."""

    interaction: Interaction
    gain: int


class OracleModel:
    """Greedy LookAhead planner over the dashboard interaction layer.

    Parameters
    ----------
    tracker:
        Shared goal-coverage tracker (θ's bookkeeping).
    lookahead:
        Planning depth. Depth 1 scores each applicable interaction by
        its immediate gain; depth 2 adds the best follow-up gain.
    beam_width:
        At depth >= 2, only the top ``beam_width`` depth-1 candidates
        are expanded (full expansion is quadratic in the action count).
    rng:
        Used only to break exact ties, keeping runs reproducible.
    """

    name = "oracle"

    def __init__(
        self,
        tracker: GoalTracker,
        lookahead: int = 1,
        beam_width: int = 5,
        rng: random.Random | None = None,
    ) -> None:
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        self.tracker = tracker
        self.lookahead = lookahead
        self.beam_width = beam_width
        self.rng = rng or random.Random(0)
        self.plans_evaluated = 0

    # -- Algorithm 1's Lookahead procedure -------------------------------------

    def next_interaction(
        self, state: DashboardState
    ) -> Interaction | None:
        """Pick the applicable interaction maximizing θ.

        Returns ``None`` when no applicable interaction makes progress
        (the "return failure" branch of Algorithm 1) — the session layer
        then either stops or lets the Markov model roam.
        """
        candidates = self._score_candidates(state)
        if not candidates:
            return None
        best_gain = max(step.gain for step in candidates)
        if best_gain <= 0 and self.lookahead == 1:
            return self._escape_clear(state)
        if self.lookahead >= 2:
            candidates = self._deepen(state, candidates)
            best_gain = max(step.gain for step in candidates)
            if best_gain <= 0:
                return self._escape_clear(state)
        top = [step for step in candidates if step.gain == best_gain]
        return self.rng.choice(top).interaction

    def _escape_clear(self, state: DashboardState) -> Interaction | None:
        """Two-step recovery: clear a goal-irrelevant active filter.

        When no single interaction gains coverage, the usual cause is a
        leftover filter from the open-ended phase distorting every
        aggregate. Clearing it gains nothing *immediately* (the restored
        queries were already seen), so the greedy heuristic would stall;
        a real analyst simply removes the stale filter and continues.
        """
        relevant_columns = self.tracker.pending_columns()
        if not relevant_columns:
            return None
        for widget_id in sorted(state.widget_state):
            if state.widget_state[widget_id] is None:
                continue
            if state.widgets[widget_id].spec.column not in relevant_columns:
                return Interaction(
                    InteractionKind.WIDGET_CLEAR, widget_id
                )
        for viz_id in sorted(state.viz_selection):
            selections = state.viz_selection[viz_id]
            if selections and all(
                column not in relevant_columns for column, _ in selections
            ):
                return Interaction(InteractionKind.VIZ_CLEAR, viz_id)
        return None

    def _score_candidates(
        self, state: DashboardState
    ) -> list[PlannedStep]:
        """Depth-1 scoring: the gain of each goal-relevant interaction."""
        return [
            PlannedStep(interaction, self._gain_of(state, interaction))
            for interaction in self._relevant_interactions(state)
        ]

    def _gain_of(self, state: DashboardState, interaction: Interaction) -> int:
        """θ of one plan: apply ``interaction`` to a copy, score what it emits.

        Queries already observed count for nothing
        (:meth:`GoalTracker.gain` skips them).
        """
        candidate = state.copy()
        self.plans_evaluated += 1
        return self.tracker.gain(candidate.apply(interaction))

    def _relevant_interactions(
        self, state: DashboardState
    ) -> list[Interaction]:
        """Prune the action space to goal-relevant interactions.

        An interaction is relevant when it filters a column the pending
        goals reference, or when it clears an active filter (clearing
        irrelevant filters restores the unrestricted aggregates goals
        usually need). Falls back to the full action space if pruning
        empties it — correctness over speed.
        """
        relevant_columns = self.tracker.pending_columns()
        available = state.available_interactions()
        if not relevant_columns:
            return available
        pruned: list[Interaction] = []
        for interaction in available:
            kind = interaction.kind
            if kind in (
                InteractionKind.WIDGET_CLEAR,
                InteractionKind.VIZ_CLEAR,
                InteractionKind.RESET,
            ):
                pruned.append(interaction)
            elif kind is InteractionKind.VIZ_SELECT:
                column, _ = interaction.value  # type: ignore[misc]
                if column in relevant_columns:
                    pruned.append(interaction)
            else:  # widget toggle/set
                widget = state.widgets[interaction.target]
                if widget.spec.column in relevant_columns:
                    pruned.append(interaction)
        return pruned or available

    def _deepen(
        self, state: DashboardState, candidates: list[PlannedStep]
    ) -> list[PlannedStep]:
        """Depth-2 refinement over the best depth-1 candidates."""
        candidates = sorted(
            candidates, key=lambda step: step.gain, reverse=True
        )
        beam = candidates[: self.beam_width]
        deepened: list[PlannedStep] = []
        for step in beam:
            candidate = state.copy()
            candidate.apply_affected(step.interaction)
            # Approximate: the follow-up gain ignores overlap between the
            # two steps' contributions, which only ever overestimates by
            # cells both steps cover — acceptable for a beam heuristic.
            follow_up = max(
                (
                    self._gain_of(candidate, second)
                    for second in candidate.available_interactions()
                ),
                default=0,
            )
            deepened.append(
                PlannedStep(step.interaction, step.gain + follow_up)
            )
        return deepened
