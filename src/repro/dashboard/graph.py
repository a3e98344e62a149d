"""The interaction layer: a directed graph over dashboard components.

Nodes are visualizations and widgets; a directed edge ``source ->
target`` means interacting with the source changes the target (paper
§3.0.2). Edges come from widget ``targets`` lists and explicit
viz-to-viz cross-filter links. Filter propagation follows outbound
edges transitively.
"""

from __future__ import annotations

import networkx as nx

from repro.dashboard.spec import DashboardSpec
from repro.errors import SpecificationError


class DashboardGraph:
    """The joint representation's interaction layer."""

    def __init__(self, spec: DashboardSpec) -> None:
        self.spec = spec
        self.graph = nx.DiGraph()
        for viz in spec.interface.visualizations:
            self.graph.add_node(viz.id, kind="visualization", spec=viz)
        for widget in spec.interface.widgets:
            self.graph.add_node(widget.id, kind="widget", spec=widget)
        for widget in spec.interface.widgets:
            for target in widget.targets:
                self.graph.add_edge(widget.id, target, kind="filter")
        for link in spec.interface.links:
            self.graph.add_edge(link.source, link.target, kind="crossfilter")
        # The graph is fixed once built (interface manipulations build a
        # new DashboardGraph), so each reachability walk is done once.
        self._reachable: dict[str, list[str]] = {}
        self._influencers: dict[str, list[str]] = {}

    # -- structure queries -----------------------------------------------------

    @property
    def visualization_ids(self) -> list[str]:
        return [
            n
            for n, data in self.graph.nodes(data=True)
            if data["kind"] == "visualization"
        ]

    @property
    def widget_ids(self) -> list[str]:
        return [
            n
            for n, data in self.graph.nodes(data=True)
            if data["kind"] == "widget"
        ]

    def kind(self, node_id: str) -> str:
        if node_id not in self.graph:
            raise SpecificationError(f"unknown component {node_id!r}")
        return self.graph.nodes[node_id]["kind"]

    def reachable_visualizations(self, source_id: str) -> list[str]:
        """Visualizations affected by interacting with ``source_id``.

        This is the recursive filter propagation of §3.0.3: all
        visualization nodes reachable via directed edges from the
        source (excluding the source itself for widgets; a selectable
        visualization does not filter itself either).
        """
        reachable = self._reachable.get(source_id)
        if reachable is None:
            if source_id not in self.graph:
                raise SpecificationError(f"unknown component {source_id!r}")
            reachable = self._reachable[source_id] = sorted(
                n
                for n in nx.descendants(self.graph, source_id)
                if self.graph.nodes[n]["kind"] == "visualization"
            )
        return list(reachable)

    def influencers(self, viz_id: str) -> list[str]:
        """Components whose state filters ``viz_id`` (reverse reachability)."""
        influencers = self._influencers.get(viz_id)
        if influencers is None:
            if viz_id not in self.graph:
                raise SpecificationError(f"unknown component {viz_id!r}")
            influencers = self._influencers[viz_id] = sorted(
                nx.ancestors(self.graph, viz_id)
            )
        return list(influencers)

    def out_degree_stats(self) -> dict[str, float]:
        """Link-density statistics (used in the Figure 9 analysis)."""
        degrees = [
            len(self.reachable_visualizations(n)) for n in self.widget_ids
        ]
        for viz_id in self.visualization_ids:
            spec = self.graph.nodes[viz_id]["spec"]
            if spec.selectable:
                degrees.append(len(self.reachable_visualizations(viz_id)))
        if not degrees:
            return {"avg": 0.0, "min": 0.0, "max": 0.0}
        return {
            "avg": sum(degrees) / len(degrees),
            "min": float(min(degrees)),
            "max": float(max(degrees)),
        }

    def __repr__(self) -> str:
        return (
            f"DashboardGraph({self.spec.name!r}, "
            f"{len(self.visualization_ids)} visualizations, "
            f"{len(self.widget_ids)} widgets, "
            f"{self.graph.number_of_edges()} edges)"
        )
