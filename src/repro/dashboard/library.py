"""The six real-world dashboards of the paper's evaluation (Figure 6).

Each dashboard is defined once, by its JSON spec file under
``repro/dashboard/specs/`` (the paper's input format); this module only
loads them. The specs are reconstructed from the paper's descriptions:
component counts and wiring follow §6.1/§6.3, and column-role counts
match Figure 6's (Q, C) annotations via the matching generators in
:mod:`repro.workload.datasets`. Dashboard types follow Sarikaya et al.'s
categories, as in the paper.

- Customer Service — Figure 1/2; operational decision making; 10Q, 6C
- Circulation Activity by Library — strategic; 2Q, 2C; two visualizations
- Supply Chain — strategic; 5Q, 18C
- UBC Energy Map — strategic; 22Q, 4C
- MyRide — quantified self; 10Q, 3C; two visualizations
- IT Monitor — operational; 3Q, 5C; three visualizations

To add a library dashboard, add ``specs/<name>.json`` and a matching
generator in :mod:`repro.workload.datasets`.
"""

from __future__ import annotations

import pathlib

from repro.dashboard.spec import DashboardSpec
from repro.errors import ConfigError

_SPECS_DIR = pathlib.Path(__file__).parent / "specs"

#: The six dashboards of Figure 6, by name.
DASHBOARD_NAMES = sorted(path.stem for path in _SPECS_DIR.glob("*.json"))


def load_dashboard(name: str) -> DashboardSpec:
    """Load one of the six paper dashboards by name from its JSON spec."""
    if name not in DASHBOARD_NAMES:
        raise ConfigError(
            f"unknown dashboard {name!r}; available: {DASHBOARD_NAMES}"
        )
    path = _SPECS_DIR / f"{name}.json"
    return DashboardSpec.from_json(path.read_text(encoding="utf-8"))


def all_dashboards() -> dict[str, DashboardSpec]:
    """All six dashboards keyed by name."""
    return {name: load_dashboard(name) for name in DASHBOARD_NAMES}
