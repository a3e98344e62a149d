"""Dashboard state, interactions, and filter propagation.

:class:`DashboardState` is the joint representation in action: it holds
the interaction-layer state (widget selections, mark selections) and
derives the data-layer state (one SQL query per visualization) on
demand. Applying an :class:`Interaction` updates the state and returns
the queries re-emitted by every affected visualization — exactly the
propagation process of paper §3.0.3 and Example 3.1.

States are cheaply copyable so the Oracle planner can expand candidate
next-states without mutating the live dashboard.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.dashboard.components import (
    MAX_OPTIONS,
    VisualizationRuntime,
    WidgetRuntime,
)
from repro.dashboard.datalayer import base_query, build_refresh, with_filters
from repro.dashboard.graph import DashboardGraph
from repro.dashboard.spec import DashboardSpec
from repro.engine.table import Table
from repro.errors import InteractionError
from repro.sql.ast import Expression, Query


#: Entries the query table of one dashboard may hold before it starts
#: over, so a long-lived session's table stays a few megabytes.
QUERY_MEMO_LIMIT = 4096


class InteractionKind(Enum):
    """The interaction vocabulary of the simulation.

    All are *data manipulations* in the paper's taxonomy (they use the
    dashboard as-is). Interface manipulations (adding/removing
    visualizations) are modeled separately by the IDEBench baseline,
    which is not constrained by a fixed dashboard.
    """

    WIDGET_TOGGLE = "widget_toggle"  # checkbox/multiselect member on/off
    WIDGET_SET = "widget_set"        # radio/dropdown selection or slider range
    WIDGET_CLEAR = "widget_clear"    # deactivate a widget's filter
    VIZ_SELECT = "viz_select"        # click a mark to cross-filter
    VIZ_CLEAR = "viz_clear"          # clear mark selections
    RESET = "reset"                  # reset the whole dashboard


@dataclass(frozen=True)
class Interaction:
    """One atomic user interaction.

    ``value`` depends on the kind: an option member for toggles, a
    member or ``(low, high)`` tuple for sets, a ``(column, value)``
    pair for mark selections, ``None`` for clears/reset.
    """

    kind: InteractionKind
    target: str | None = None
    value: object = None

    def describe(self) -> str:
        """Human-readable log line (used in the user-study logs)."""
        if self.kind is InteractionKind.RESET:
            return "reset dashboard"
        if self.kind is InteractionKind.WIDGET_TOGGLE:
            return f"toggle {self.value!r} on {self.target}"
        if self.kind is InteractionKind.WIDGET_SET:
            return f"set {self.target} to {self.value!r}"
        if self.kind is InteractionKind.WIDGET_CLEAR:
            return f"clear {self.target}"
        if self.kind is InteractionKind.VIZ_SELECT:
            column, value = self.value  # type: ignore[misc]
            return f"select {column}={value!r} in {self.target}"
        return f"clear selection in {self.target}"


class DashboardState:
    """Live dashboard: interaction-layer state + data-layer queries."""

    def __init__(
        self,
        spec: DashboardSpec,
        table: Table,
        graph: DashboardGraph | None = None,
    ) -> None:
        self.spec = spec
        self.table = table
        self.graph = graph or DashboardGraph(spec)
        self.widgets = {
            w.id: WidgetRuntime(w, table) for w in spec.interface.widgets
        }
        self.visualizations = {
            v.id: VisualizationRuntime(v, table)
            for v in spec.interface.visualizations
        }
        # Interaction-layer state.
        self.widget_state: dict[str, object] = {
            w_id: None for w_id in self.widgets
        }
        self.viz_selection: dict[str, frozenset[tuple[str, object]]] = {
            v_id: frozenset() for v_id in self.visualizations
        }
        self._reset_query_tables()

    def _reset_query_tables(self) -> None:
        """Give this state empty query tables of its own.

        New dicts rather than ``clear()``: clones made before an
        interface manipulation keep the old spec and the old tables.
        """
        self._base_queries: dict[str, Query] = {}
        self._queries: dict[tuple, Query] = {}

    # -- copying (for planner lookahead) ---------------------------------------

    def copy(self) -> "DashboardState":
        clone = DashboardState.__new__(DashboardState)
        clone.spec = self.spec
        clone.table = self.table
        clone.graph = self.graph
        clone.widgets = self.widgets
        clone.visualizations = self.visualizations
        clone.widget_state = dict(self.widget_state)
        clone.viz_selection = dict(self.viz_selection)
        clone._base_queries = self._base_queries
        clone._queries = self._queries
        return clone

    def state_key(self) -> tuple:
        """Hashable key identifying this interaction-layer state."""
        widget_part = tuple(
            (w_id, _freeze(self.widget_state[w_id]))
            for w_id in sorted(self.widget_state)
        )
        viz_part = tuple(
            (v_id, tuple(sorted(self.viz_selection[v_id], key=repr)))
            for v_id in sorted(self.viz_selection)
        )
        return (widget_part, viz_part)

    # -- data layer ------------------------------------------------------------

    def filters_for(self, viz_id: str) -> list[Expression]:
        """Collect active filters from every influencer of ``viz_id``."""
        filters: list[Expression] = []
        for influencer in self.graph.influencers(viz_id):
            kind = self.graph.kind(influencer)
            if kind == "widget":
                runtime = self.widgets[influencer]
                predicate = runtime.filter_for(self.widget_state[influencer])
                if predicate is not None:
                    filters.append(predicate)
            else:
                selections = self.viz_selection.get(influencer, frozenset())
                if selections:
                    filters.extend(
                        self.visualizations[influencer].filter_for_selection(
                            selections
                        )
                    )
        return filters

    def query_for(self, viz_id: str) -> Query:
        """The SQL query currently backing one visualization.

        It depends only on the visualization and the state of its
        influencers, so it is built once per such combination and kept
        in a table this state shares with its :meth:`copy` clones: the
        candidate states a planner expands step after step get the
        same ``Query`` objects back (and with them their rendered SQL).
        """
        key = (viz_id,) + tuple(
            _exact_key(
                self.widget_state[influencer]
                if influencer in self.widgets
                else self.viz_selection.get(influencer)
            )
            for influencer in self.graph.influencers(viz_id)
        )
        query = self._queries.get(key)
        if query is None:
            base = self._base_queries.get(viz_id)
            if base is None:
                base = self._base_queries[viz_id] = base_query(
                    self.visualizations[viz_id].spec, self.spec
                )
            query = with_filters(base, self.filters_for(viz_id))
            if len(self._queries) >= QUERY_MEMO_LIMIT:
                self._queries.clear()
            self._queries[key] = query
        return query

    def all_queries(self) -> dict[str, Query]:
        """Data-layer snapshot: every visualization's current query."""
        return {v_id: self.query_for(v_id) for v_id in self.visualizations}

    def initial_queries(self) -> list[Query]:
        """Queries emitted when the dashboard first renders."""
        return [self.query_for(v_id) for v_id in sorted(self.visualizations)]

    # -- refresh paths (batch API) ---------------------------------------------

    def refresh(self, engine, viz_ids=None, policy=None):
        """Execute the current queries of (all or selected) nodes.

        ``policy`` (an :class:`~repro.execution.ExecutionPolicy` or
        preset name) picks the execution strategy; the default routes
        through the shared-scan batch executor
        (:meth:`~repro.engine.interface.Engine.execute_batch`) on one
        worker. Every policy returns byte-identical results — workers
        overlap scan groups, shards split base scans with
        partial-aggregate rollup, multiplan combines unfiltered groups
        into one pass (:mod:`repro.concurrency`, :mod:`repro.sharding`,
        :mod:`repro.engine.multiplan`). Returns timed results keyed by
        visualization id.
        """
        from repro.execution import coerce_policy
        from repro.telemetry import trace as _trace

        policy = coerce_policy(policy)
        refresh = build_refresh(self, viz_ids)
        tracer = _trace.ACTIVE
        if tracer is None:
            return refresh.execute(engine, policy)
        with tracer.span(
            "refresh",
            dashboard=self.spec.name,
            policy=policy.describe(),
        ) as span:
            results = refresh.execute(engine, policy)
            span.attrs["queries"] = len(results)
            return results

    def apply_and_refresh(
        self, interaction: Interaction, engine, policy=None
    ):
        """Apply an interaction and execute its fan-out as one batch.

        The re-emitted queries of every affected visualization are
        evaluated together under ``policy`` — the shared-scan path a
        live dashboard backend takes on each user gesture. Returns
        timed results keyed by visualization id.
        """
        from repro.execution import coerce_policy

        policy = coerce_policy(policy)
        affected = self.apply_affected(interaction)
        return self.refresh(engine, viz_ids=affected, policy=policy)

    # -- applying interactions ---------------------------------------------------

    def apply(self, interaction: Interaction) -> list[Query]:
        """Apply an interaction; return the re-emitted queries.

        The affected visualizations are those reachable from the
        interaction's source via directed edges (§3.0.3); each re-emits
        its updated query against the DBMS.
        """
        return [
            self.query_for(v_id)
            for v_id in self.apply_affected(interaction)
        ]

    def apply_affected(self, interaction: Interaction) -> list[str]:
        """Apply an interaction; return the affected visualization ids.

        This is the mutation half of :meth:`apply` — refresh paths use
        the id list to batch the re-emitted queries per interaction.
        """
        kind = interaction.kind
        if kind is InteractionKind.RESET:
            for w_id in self.widget_state:
                self.widget_state[w_id] = None
            for v_id in self.viz_selection:
                self.viz_selection[v_id] = frozenset()
            return sorted(self.visualizations)

        target = interaction.target
        if target is None:
            raise InteractionError(f"{kind.value} requires a target")

        if kind in (
            InteractionKind.WIDGET_TOGGLE,
            InteractionKind.WIDGET_SET,
            InteractionKind.WIDGET_CLEAR,
        ):
            self._apply_widget(kind, target, interaction.value)
        elif kind is InteractionKind.VIZ_SELECT:
            self._apply_viz_select(target, interaction.value)
        elif kind is InteractionKind.VIZ_CLEAR:
            if target not in self.viz_selection:
                raise InteractionError(f"unknown visualization {target!r}")
            self.viz_selection[target] = frozenset()
        else:  # pragma: no cover - enum is exhaustive
            raise InteractionError(f"unhandled interaction kind {kind!r}")

        return self.graph.reachable_visualizations(target)

    def _apply_widget(
        self, kind: InteractionKind, widget_id: str, value: object
    ) -> None:
        if widget_id not in self.widgets:
            raise InteractionError(f"unknown widget {widget_id!r}")
        runtime = self.widgets[widget_id]
        current = self.widget_state[widget_id]
        if kind is InteractionKind.WIDGET_CLEAR:
            self.widget_state[widget_id] = None
            return
        if kind is InteractionKind.WIDGET_TOGGLE:
            if not runtime.spec.is_categorical:
                raise InteractionError(
                    f"cannot toggle range widget {widget_id!r}"
                )
            runtime.validate_member(value)
            members = set(current) if isinstance(current, frozenset) else set()
            if value in members:
                members.discard(value)
            else:
                if runtime.is_exclusive:
                    members = set()
                members.add(value)
            self.widget_state[widget_id] = (
                frozenset(members) if members else None
            )
            return
        # WIDGET_SET
        if runtime.spec.is_categorical:
            runtime.validate_member(value)
            self.widget_state[widget_id] = frozenset([value])
            return
        if not isinstance(value, tuple) or len(value) != 2:
            raise InteractionError(
                f"range widget {widget_id!r} requires a (low, high) value"
            )
        low, high = value
        runtime.validate_range(low, high)
        self.widget_state[widget_id] = (low, high)

    def _apply_viz_select(self, viz_id: str, value: object) -> None:
        if viz_id not in self.visualizations:
            raise InteractionError(f"unknown visualization {viz_id!r}")
        runtime = self.visualizations[viz_id]
        if not runtime.spec.selectable:
            raise InteractionError(
                f"visualization {viz_id!r} is not selectable"
            )
        if not isinstance(value, tuple) or len(value) != 2:
            raise InteractionError(
                "mark selection requires a (column, value) pair"
            )
        column, member = value
        valid = runtime.selectable_values()
        if (column, member) not in valid:
            raise InteractionError(
                f"({column!r}, {member!r}) is not selectable in {viz_id!r}"
            )
        pair = (column, member)
        current = self.viz_selection[viz_id]
        if pair in current:
            # Clicking the selected mark deselects it.
            self.viz_selection[viz_id] = frozenset()
        else:
            # Clicking a mark replaces the selection (Tableau-style; the
            # paper's Figure 4 shows each click emitting a single-member
            # filter).
            self.viz_selection[viz_id] = frozenset([pair])

    # -- interface manipulations (§3.0.2) ------------------------------------------

    def add_visualization(
        self,
        viz_spec,
        link_from: tuple[str, ...] = (),
        link_to: tuple[str, ...] = (),
    ) -> list[Query]:
        """Interface manipulation: add a visualization to the dashboard.

        The paper's interaction layer supports *interface manipulations*
        that "modify the original dashboard definition (e.g., to
        add/remove a visualization)". The new visualization is wired
        into the graph (``link_from`` components cross-filter it;
        ``link_to`` components receive its selections) and immediately
        renders, emitting its query.
        """
        from dataclasses import replace

        from repro.dashboard.graph import DashboardGraph
        from repro.dashboard.spec import LinkSpec

        interface = self.spec.interface
        new_links = tuple(
            LinkSpec(source, viz_spec.id) for source in link_from
        ) + tuple(LinkSpec(viz_spec.id, target) for target in link_to)
        new_interface = replace(
            interface,
            visualizations=interface.visualizations + (viz_spec,),
            links=interface.links + new_links,
        )
        new_spec = replace(self.spec, interface=new_interface)
        new_spec.validate()
        self.spec = new_spec
        self.graph = DashboardGraph(new_spec)
        self._reset_query_tables()
        self.visualizations[viz_spec.id] = VisualizationRuntime(
            viz_spec, self.table
        )
        self.viz_selection[viz_spec.id] = frozenset()
        return [self.query_for(viz_spec.id)]

    def remove_visualization(self, viz_id: str) -> list[Query]:
        """Interface manipulation: remove a visualization.

        Widgets targeting the visualization lose that target; a widget
        whose *only* target it was would become inert, so removal is
        refused in that case (delete the widget first).
        """
        from dataclasses import replace

        from repro.dashboard.graph import DashboardGraph

        if viz_id not in self.visualizations:
            raise InteractionError(f"unknown visualization {viz_id!r}")
        interface = self.spec.interface
        for widget in interface.widgets:
            if widget.targets == (viz_id,):
                raise InteractionError(
                    f"widget {widget.id!r} targets only {viz_id!r}; "
                    f"remove the widget first"
                )
        new_widgets = tuple(
            replace(
                w,
                targets=tuple(t for t in w.targets if t != viz_id),
            )
            for w in interface.widgets
        )
        new_interface = replace(
            interface,
            visualizations=tuple(
                v for v in interface.visualizations if v.id != viz_id
            ),
            widgets=new_widgets,
            links=tuple(
                l
                for l in interface.links
                if l.source != viz_id and l.target != viz_id
            ),
        )
        new_spec = replace(self.spec, interface=new_interface)
        new_spec.validate()
        self.spec = new_spec
        self.graph = DashboardGraph(new_spec)
        self._reset_query_tables()
        del self.visualizations[viz_id]
        del self.viz_selection[viz_id]
        return []

    # -- enumeration (the planner's action space) ---------------------------------

    def available_interactions(
        self, max_options: int = MAX_OPTIONS
    ) -> list[Interaction]:
        """Every interaction a user could perform right now.

        One entry per serial manipulation — the paper notes users click
        one checkbox at a time, so each toggle/selection is atomic.
        """
        actions: list[Interaction] = []
        for w_id in sorted(self.widgets):
            runtime = self.widgets[w_id]
            current = self.widget_state[w_id]
            if runtime.spec.is_categorical:
                for option in runtime.options[:max_options]:
                    actions.append(
                        Interaction(
                            InteractionKind.WIDGET_TOGGLE, w_id, option
                        )
                    )
                    # "Select only this member" — one user gesture
                    # (uncheck the rest, check this one) that Figure 4's
                    # per-queue filters correspond to.
                    if (
                        isinstance(current, frozenset)
                        and current
                        and current != frozenset([option])
                    ):
                        actions.append(
                            Interaction(
                                InteractionKind.WIDGET_SET, w_id, option
                            )
                        )
            else:
                for step in runtime.ranges[: max_options * 2]:
                    value = (step.low, step.high)
                    if current == value:
                        continue
                    actions.append(
                        Interaction(InteractionKind.WIDGET_SET, w_id, value)
                    )
            if current is not None:
                actions.append(
                    Interaction(InteractionKind.WIDGET_CLEAR, w_id)
                )
        for v_id in sorted(self.visualizations):
            runtime = self.visualizations[v_id]
            for pair in runtime.selectable_values(max_options):
                actions.append(
                    Interaction(InteractionKind.VIZ_SELECT, v_id, pair)
                )
            if self.viz_selection[v_id]:
                actions.append(Interaction(InteractionKind.VIZ_CLEAR, v_id))
        return actions


def _exact_key(value: object) -> object:
    """Hashable stand-in for one component's state in the query table.

    Built from ``repr`` because ``1``, ``1.0`` and ``True`` compare
    equal (as do ``0.0`` and ``-0.0``) but render as different SQL;
    ``repr`` tells every literal type the data layer accepts apart.
    """
    if value is None:
        return None
    if isinstance(value, frozenset):
        return frozenset(map(repr, value))
    return repr(value)


def _freeze(value: object) -> object:
    if isinstance(value, frozenset):
        return tuple(sorted(value, key=repr))
    return value
