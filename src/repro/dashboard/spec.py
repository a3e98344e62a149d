"""JSON dashboard specification language (paper §3.0.1).

Three components, mirroring the paper:

- **Database Specification** (inherited from IDEBench): tables and typed
  columns, portable across DBMSs;
- **Interface Specification** (extends IDEBench and Vega-Lite): the
  visualizations and interaction widgets of a complete dashboard and
  how they interconnect;
- **Interaction Specification** (optional): which widget/visualization
  interactions are enabled and any custom parameter domains.

Every spec object round-trips through plain dicts (``to_dict`` /
``from_dict``), so dashboards can be stored as JSON files exactly as the
paper describes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.engine.table import ColumnDef, Schema
from repro.engine.types import DataType
from repro.errors import SpecificationError

#: Visualization types with their mark semantics.
VISUALIZATION_TYPES = frozenset(
    {"bar", "line", "area", "pie", "scatter", "map", "table", "stat"}
)

#: Interaction widget types. Checkboxes/radio produce categorical filters,
#: sliders/brushes produce range filters — the paper notes these pairs
#: share SQL semantics (§2.1).
WIDGET_TYPES = frozenset(
    {"checkbox", "radio", "dropdown", "multiselect", "slider",
     "range_slider", "date_range", "search"}
)

#: Widget types whose filter is a set-membership predicate.
CATEGORICAL_WIDGETS = frozenset(
    {"checkbox", "radio", "dropdown", "multiselect", "search"}
)

#: Widget types whose filter is a range predicate.
RANGE_WIDGETS = frozenset({"slider", "range_slider", "date_range"})

_TYPE_NAMES = {t.value: t for t in DataType}


@dataclass(frozen=True)
class ColumnSpec:
    """One column of the database specification."""

    name: str
    type: str  # DataType value name, e.g. "integer"

    def __post_init__(self) -> None:
        if self.type not in _TYPE_NAMES:
            raise SpecificationError(
                f"column {self.name!r} has unknown type {self.type!r}; "
                f"expected one of {sorted(_TYPE_NAMES)}"
            )

    @property
    def dtype(self) -> DataType:
        return _TYPE_NAMES[self.type]

    def to_dict(self) -> dict:
        return {"name": self.name, "type": self.type}

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnSpec":
        return cls(name=data["name"], type=data["type"])


@dataclass(frozen=True)
class DatabaseSpec:
    """Dataset description (IDEBench-style): one denormalized table."""

    table: str
    columns: tuple[ColumnSpec, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SpecificationError(
                f"duplicate columns in database spec: {names}"
            )

    def schema(self) -> Schema:
        return Schema([ColumnDef(c.name, c.dtype) for c in self.columns])

    def column(self, name: str) -> ColumnSpec:
        for column in self.columns:
            if column.name == name:
                return column
        raise SpecificationError(
            f"unknown column {name!r} in table {self.table!r}"
        )

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "columns": [c.to_dict() for c in self.columns],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DatabaseSpec":
        return cls(
            table=data["table"],
            columns=tuple(
                ColumnSpec.from_dict(c) for c in data["columns"]
            ),
        )


@dataclass(frozen=True)
class MeasureSpec:
    """One aggregated measure of a visualization: ``agg(column)``."""

    agg: str  # count / sum / avg / min / max
    column: str | None = None  # None means COUNT(*)

    def __post_init__(self) -> None:
        if self.agg.lower() not in {"count", "sum", "avg", "min", "max"}:
            raise SpecificationError(f"unknown aggregation {self.agg!r}")
        object.__setattr__(self, "agg", self.agg.lower())

    def to_dict(self) -> dict:
        return {"agg": self.agg, "column": self.column}

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureSpec":
        return cls(agg=data["agg"], column=data.get("column"))


@dataclass(frozen=True)
class DimensionSpec:
    """One grouping dimension: a column plus optional binning.

    ``bin`` is either a numeric width (quantitative binning) or a
    temporal unit name (``"hour"``, ``"day"``, ``"month"``, ``"year"``).
    """

    column: str
    bin: object | None = None

    def to_dict(self) -> dict:
        return {"column": self.column, "bin": self.bin}

    @classmethod
    def from_dict(cls, data: dict) -> "DimensionSpec":
        return cls(column=data["column"], bin=data.get("bin"))


@dataclass(frozen=True)
class VisualizationSpec:
    """One visualization: type, dimensions, measures, selectability.

    ``selectable`` marks dimensions whose marks the user can click to
    cross-filter linked visualizations (embedded interaction widgets in
    the paper's terms).
    """

    id: str
    type: str
    dimensions: tuple[DimensionSpec, ...] = ()
    measures: tuple[MeasureSpec, ...] = ()
    title: str = ""
    selectable: bool = True

    def __post_init__(self) -> None:
        if self.type not in VISUALIZATION_TYPES:
            raise SpecificationError(
                f"visualization {self.id!r} has unknown type {self.type!r}"
            )
        if not self.dimensions and not self.measures:
            raise SpecificationError(
                f"visualization {self.id!r} needs dimensions or measures"
            )

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "type": self.type,
            "dimensions": [d.to_dict() for d in self.dimensions],
            "measures": [m.to_dict() for m in self.measures],
            "title": self.title,
            "selectable": self.selectable,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VisualizationSpec":
        return cls(
            id=data["id"],
            type=data["type"],
            dimensions=tuple(
                DimensionSpec.from_dict(d)
                for d in data.get("dimensions", [])
            ),
            measures=tuple(
                MeasureSpec.from_dict(m) for m in data.get("measures", [])
            ),
            title=data.get("title", ""),
            selectable=data.get("selectable", True),
        )


@dataclass(frozen=True)
class WidgetSpec:
    """One interaction widget: type, filtered column, link targets.

    ``targets`` lists the visualization (or widget) ids this widget
    filters — each target becomes a directed edge in the interaction
    layer. ``options``/``domain`` may pin the parameter space; when
    absent, parameters are derived from the dataset (distinct values
    for categorical widgets, extents for range widgets).
    """

    id: str
    type: str
    column: str
    targets: tuple[str, ...]
    title: str = ""
    options: tuple[object, ...] | None = None
    domain: tuple[object, object] | None = None

    def __post_init__(self) -> None:
        if self.type not in WIDGET_TYPES:
            raise SpecificationError(
                f"widget {self.id!r} has unknown type {self.type!r}"
            )
        if not self.targets:
            raise SpecificationError(
                f"widget {self.id!r} has no targets; it would be inert"
            )

    @property
    def is_categorical(self) -> bool:
        return self.type in CATEGORICAL_WIDGETS

    @property
    def is_range(self) -> bool:
        return self.type in RANGE_WIDGETS

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "type": self.type,
            "column": self.column,
            "targets": list(self.targets),
            "title": self.title,
            "options": list(self.options) if self.options else None,
            "domain": list(self.domain) if self.domain else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WidgetSpec":
        options = data.get("options")
        domain = data.get("domain")
        return cls(
            id=data["id"],
            type=data["type"],
            column=data["column"],
            targets=tuple(data["targets"]),
            title=data.get("title", ""),
            options=tuple(options) if options else None,
            domain=tuple(domain) if domain else None,
        )


@dataclass(frozen=True)
class LinkSpec:
    """A viz-to-viz cross-filtering link (selecting in source filters target)."""

    source: str
    target: str

    def to_dict(self) -> dict:
        return {"source": self.source, "target": self.target}

    @classmethod
    def from_dict(cls, data: dict) -> "LinkSpec":
        return cls(source=data["source"], target=data["target"])


@dataclass(frozen=True)
class InterfaceSpec:
    """The complete dashboard interface: visualizations, widgets, links."""

    visualizations: tuple[VisualizationSpec, ...]
    widgets: tuple[WidgetSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()

    def __post_init__(self) -> None:
        ids = [v.id for v in self.visualizations] + [
            w.id for w in self.widgets
        ]
        if len(set(ids)) != len(ids):
            raise SpecificationError(f"duplicate component ids: {ids}")

    @property
    def component_ids(self) -> set[str]:
        return {v.id for v in self.visualizations} | {
            w.id for w in self.widgets
        }

    def visualization(self, viz_id: str) -> VisualizationSpec:
        for viz in self.visualizations:
            if viz.id == viz_id:
                return viz
        raise SpecificationError(f"unknown visualization {viz_id!r}")

    def widget(self, widget_id: str) -> WidgetSpec:
        for widget in self.widgets:
            if widget.id == widget_id:
                return widget
        raise SpecificationError(f"unknown widget {widget_id!r}")

    def to_dict(self) -> dict:
        return {
            "visualizations": [v.to_dict() for v in self.visualizations],
            "widgets": [w.to_dict() for w in self.widgets],
            "links": [l.to_dict() for l in self.links],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InterfaceSpec":
        return cls(
            visualizations=tuple(
                VisualizationSpec.from_dict(v)
                for v in data.get("visualizations", [])
            ),
            widgets=tuple(
                WidgetSpec.from_dict(w) for w in data.get("widgets", [])
            ),
            links=tuple(
                LinkSpec.from_dict(l) for l in data.get("links", [])
            ),
        )


@dataclass(frozen=True)
class DashboardSpec:
    """A full dashboard: name, type, database, and interface."""

    name: str
    dashboard_type: str  # Sarikaya et al. category
    database: DatabaseSpec
    interface: InterfaceSpec
    description: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Cross-check interface references against the database spec."""
        columns = set(self.database.column_names)
        for viz in self.interface.visualizations:
            for dim in viz.dimensions:
                if dim.column not in columns:
                    raise SpecificationError(
                        f"visualization {viz.id!r} references unknown "
                        f"column {dim.column!r}"
                    )
            for measure in viz.measures:
                if measure.column is not None and measure.column not in columns:
                    raise SpecificationError(
                        f"visualization {viz.id!r} references unknown "
                        f"column {measure.column!r}"
                    )
        component_ids = self.interface.component_ids
        for widget in self.interface.widgets:
            if widget.column not in columns:
                raise SpecificationError(
                    f"widget {widget.id!r} references unknown column "
                    f"{widget.column!r}"
                )
            for target in widget.targets:
                if target not in component_ids:
                    raise SpecificationError(
                        f"widget {widget.id!r} targets unknown component "
                        f"{target!r}"
                    )
        for link in self.interface.links:
            if link.source not in component_ids or link.target not in component_ids:
                raise SpecificationError(
                    f"link {link.source!r} -> {link.target!r} references "
                    f"unknown components"
                )

    # -- statistics used in the evaluation ------------------------------------

    @property
    def num_visualizations(self) -> int:
        return len(self.interface.visualizations)

    @property
    def num_widgets(self) -> int:
        return len(self.interface.widgets)

    def used_columns(self) -> set[str]:
        """All database columns the interface exposes (drives goal-gen)."""
        used: set[str] = set()
        for viz in self.interface.visualizations:
            used.update(d.column for d in viz.dimensions)
            used.update(
                m.column for m in viz.measures if m.column is not None
            )
        used.update(w.column for w in self.interface.widgets)
        return used

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dashboard_type": self.dashboard_type,
            "description": self.description,
            "database": self.database.to_dict(),
            "interface": self.interface.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "DashboardSpec":
        """Build a spec from plain dicts; a malformed document (a missing
        key, a wrong container type) raises :class:`SpecificationError`."""
        try:
            return cls(
                name=data["name"],
                dashboard_type=data.get("dashboard_type", "unspecified"),
                description=data.get("description", ""),
                database=DatabaseSpec.from_dict(data["database"]),
                interface=InterfaceSpec.from_dict(data["interface"]),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise SpecificationError(
                f"malformed dashboard spec: {exc!r}"
            ) from exc

    @classmethod
    def from_json(cls, text: str) -> "DashboardSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecificationError(
                f"dashboard spec is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)
