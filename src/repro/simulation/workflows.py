"""Benchmark workflows: ordered goal-template sequences (paper §6.2.3).

The paper derives three workflows from the literature and uses them as
the goal orderings driving its simulations (Table 3):

- **Shneiderman** — "overview first, zoom and filter, then
  details-on-demand": an overview goal, then a filtering goal, then an
  identification goal. Contains no correlation goal, which is why it is
  the only workflow compatible with the MyRide dashboard.
- **Battle & Heer** — the exploration profile observed in their Tableau
  study: characterize a distribution, test a correlation, then compare
  groups.
- **Crossfilter (Battle et al.)** — the rapid cross-filtering profile of
  the Crossfilter benchmark: temporal pattern first, correlation, then
  threshold filtering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.algebra.templates import (
    GOAL_TEMPLATES,
    TemplateParameterError,
    get_template,
)
from repro.algebra.translate import GoalQuery
from repro.dashboard.spec import DashboardSpec
from repro.engine.table import Schema
from repro.errors import ConfigError, GoalError


class WorkflowNotApplicable(GoalError):
    """Raised when a dashboard cannot support a workflow's goals.

    Mirrors the paper's finding that MyRide is incompatible with the
    Battle & Heer and Crossfilter workflows (too few quantitative
    columns exposed for correlation goals).
    """


@dataclass(frozen=True)
class Workflow:
    """An ordered sequence of goal templates."""

    name: str
    citation: str
    template_names: tuple[str, ...]

    def __post_init__(self) -> None:
        for template_name in self.template_names:
            if template_name not in GOAL_TEMPLATES:
                raise ConfigError(
                    f"workflow {self.name!r} references unknown template "
                    f"{template_name!r}"
                )

    def instantiate(
        self,
        table: str,
        schema: Schema,
        rng: random.Random | None = None,
        usable_columns: set[str] | None = None,
    ) -> list[GoalQuery]:
        """Produce the ordered goal set for one dashboard/dataset.

        Each template is instantiated against the schema restricted to
        the columns the dashboard actually exposes, so goals are
        expressible through the dashboard's interaction space.
        """
        rng = rng or random.Random(0)
        goals: list[GoalQuery] = []
        for template_name in self.template_names:
            template = get_template(template_name)
            try:
                goal = template.instantiate_for_schema(
                    table, schema, rng, usable_columns
                )
            except TemplateParameterError as exc:
                raise WorkflowNotApplicable(
                    f"workflow {self.name!r} cannot run: {exc}"
                ) from exc
            goals.append(goal)
        return goals

    def instantiate_for_dashboard(
        self,
        spec: DashboardSpec,
        rng: random.Random | None = None,
    ) -> list[GoalQuery]:
        """Instantiate against a dashboard's *capabilities*.

        Uses :mod:`repro.simulation.goalgen` so every goal is achievable
        through the dashboard's interaction space (the paper's
        "dashboards constrain the range of exploration goals" insight).
        """
        from repro.simulation.goalgen import generate_goal_set

        try:
            return generate_goal_set(
                self.template_names, spec, rng or random.Random(0)
            )
        except TemplateParameterError as exc:
            raise WorkflowNotApplicable(
                f"workflow {self.name!r} cannot run on dashboard "
                f"{spec.name!r}: {exc}"
            ) from exc

    def is_applicable_to_dashboard(self, spec: DashboardSpec) -> bool:
        """Whether this workflow's goals can target ``spec`` at all."""
        try:
            self.instantiate_for_dashboard(spec, random.Random(0))
        except WorkflowNotApplicable:
            return False
        return True


#: The three workflows of Table 3.
WORKFLOWS: dict[str, Workflow] = {
    "shneiderman": Workflow(
        name="shneiderman",
        citation="Shneiderman, The Eyes Have It (1996)",
        template_names=(
            "measuring_differences",  # overview: compare groups
            "filtering",              # zoom and filter
            "identification",         # details on demand
        ),
    ),
    "battle_heer": Workflow(
        name="battle_heer",
        citation="Battle & Heer, Characterizing Exploratory Visual Analysis (2019)",
        template_names=(
            "analyzing_spread",
            "finding_correlations",
            "measuring_differences",
        ),
    ),
    "crossfilter": Workflow(
        name="crossfilter",
        citation="Battle et al., Database Benchmarking for Real-Time Interactive Querying (2020)",
        template_names=(
            "temporal_patterns",
            "finding_correlations",
            "filtering",
        ),
    ),
}


def get_workflow(name: str) -> Workflow:
    """Look up a workflow by name."""
    try:
        return WORKFLOWS[name]
    except KeyError:
        raise ConfigError(
            f"unknown workflow {name!r}; available: {sorted(WORKFLOWS)}"
        ) from None
