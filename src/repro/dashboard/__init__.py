"""Dashboard specification language and joint graph representation (§3).

- :mod:`repro.dashboard.spec` — JSON Database/Interface specifications
  (merging IDEBench, Polaris/VizQL, and Vega-Lite formats);
- :mod:`repro.dashboard.components` — visualization and interaction
  widget semantics;
- :mod:`repro.dashboard.graph` — the interaction-layer graph;
- :mod:`repro.dashboard.state` — dashboard state and filter propagation;
- :mod:`repro.dashboard.datalayer` — node -> SQL query generation;
- :mod:`repro.dashboard.library` — the six paper dashboards, each
  defined once by its JSON file under ``specs/``. To add a library
  dashboard, add ``specs/<name>.json`` and a matching generator in
  :mod:`repro.workload.datasets`.
"""

from repro.dashboard.graph import DashboardGraph
from repro.dashboard.spec import (
    ColumnSpec,
    DashboardSpec,
    DatabaseSpec,
    InterfaceSpec,
    VisualizationSpec,
    WidgetSpec,
)
from repro.dashboard.state import DashboardState, Interaction, InteractionKind

__all__ = [
    "ColumnSpec",
    "DashboardGraph",
    "DashboardSpec",
    "DashboardState",
    "DatabaseSpec",
    "Interaction",
    "InteractionKind",
    "InterfaceSpec",
    "VisualizationSpec",
    "WidgetSpec",
]
