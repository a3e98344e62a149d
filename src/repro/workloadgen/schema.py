"""Typed schema library for synthetic workload generation.

A :class:`WorkloadSchema` describes a table the way the *generator*
thinks about it — every field carries a semantic role:

- ``measure``     — a quantitative column aggregates run over;
- ``timestamp``   — a temporal column line charts bin and brushes filter;
- ``category``    — a low/medium-cardinality string column used for
  grouping and membership filters, with controllable cardinality and a
  Zipf-style skew knob;
- ``identifier``  — a high-cardinality string key (session ids, device
  ids). Category fields may declare ``derived_from=<identifier>``,
  which makes them *functionally dependent* on that identifier — the
  exact shape :func:`repro.workload.normalize.normalize_star` extracts
  into star-schema dimension tables.

Roles are what make generated dashboards *valid by construction*: the
intent generators (:mod:`repro.workloadgen.intents`) only group by
category/identifier fields, only aggregate measure fields, and only bin
timestamp fields, so every emitted spec passes
:meth:`~repro.dashboard.spec.DashboardSpec.validate`.

Determinism contract: schemas are frozen values; the data generator
(:mod:`repro.workloadgen.data`) derives all randomness from string
seeds (``random.Random(str)`` seeds via SHA-512, stable across
processes and Python versions), and measure floats land on a dyadic
grid (quarters) by default so SUM/AVG are IEEE-exact under every
:class:`~repro.execution.ExecutionPolicy` — the property the stress
matrix's byte-identity assertions rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dashboard.spec import ColumnSpec, DatabaseSpec
from repro.engine.table import ColumnDef, Schema
from repro.engine.types import DataType
from repro.errors import ConfigError

#: The semantic roles a field can carry.
FIELD_ROLES = ("measure", "timestamp", "category", "identifier")


@dataclass(frozen=True)
class FieldSpec:
    """One field of a workload schema: a name, a role, and knobs.

    Only the knobs relevant to the role are read:

    - category/identifier: ``cardinality`` (and ``skew`` for
      categories — 0.0 is uniform, larger concentrates mass on the
      first members Zipf-style; ``derived_from`` pins the value to a
      function of an identifier field, creating a functional
      dependency);
    - measure: ``low``/``high`` value bounds, ``integer`` for an
      integer column, ``dyadic`` to snap float values to quarters so
      sums are exactly associative;
    - timestamp: ``span_days`` of generated history.
    """

    name: str
    role: str
    cardinality: int = 8
    skew: float = 0.0
    derived_from: str | None = None
    low: int = 0
    high: int = 100
    integer: bool = False
    dyadic: bool = True
    span_days: int = 30

    def __post_init__(self) -> None:
        if self.role not in FIELD_ROLES:
            raise ConfigError(
                f"field {self.name!r} has unknown role {self.role!r}; "
                f"expected one of {FIELD_ROLES}"
            )
        if self.role in ("category", "identifier") and self.cardinality < 1:
            raise ConfigError(
                f"field {self.name!r} needs cardinality >= 1"
            )
        if self.role == "measure" and self.low >= self.high:
            raise ConfigError(
                f"measure {self.name!r} needs low < high "
                f"(got {self.low}..{self.high})"
            )
        if self.derived_from is not None and self.role != "category":
            raise ConfigError(
                f"field {self.name!r}: only category fields can be "
                f"derived_from an identifier"
            )

    @property
    def dtype(self) -> DataType:
        if self.role == "measure":
            return DataType.INTEGER if self.integer else DataType.FLOAT
        if self.role == "timestamp":
            return DataType.TIMESTAMP
        return DataType.STRING


def measure(
    name: str,
    low: int = 0,
    high: int = 100,
    integer: bool = False,
    dyadic: bool = True,
) -> FieldSpec:
    """A quantitative field aggregates run over."""
    return FieldSpec(
        name, "measure", low=low, high=high, integer=integer, dyadic=dyadic
    )


def timestamp(name: str, span_days: int = 30) -> FieldSpec:
    """A temporal field with ``span_days`` of generated history."""
    return FieldSpec(name, "timestamp", span_days=span_days)


def category(
    name: str,
    cardinality: int = 8,
    skew: float = 0.0,
    derived_from: str | None = None,
) -> FieldSpec:
    """A groupable/filterable string field of the given cardinality."""
    return FieldSpec(
        name,
        "category",
        cardinality=cardinality,
        skew=skew,
        derived_from=derived_from,
    )


def identifier(name: str, cardinality: int = 1000) -> FieldSpec:
    """A high-cardinality key field (the GROUP BY worst case)."""
    return FieldSpec(name, "identifier", cardinality=cardinality)


@dataclass(frozen=True)
class WorkloadSchema:
    """A named table description the generators instantiate.

    ``name`` doubles as the generated table's name and the
    ``database.table`` of every dashboard spec emitted over it.
    """

    name: str
    fields: tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate field names in schema: {names}")
        by_name = {f.name: f for f in self.fields}
        for field in self.fields:
            if field.derived_from is not None:
                parent = by_name.get(field.derived_from)
                if parent is None or parent.role != "identifier":
                    raise ConfigError(
                        f"field {field.name!r} derived_from "
                        f"{field.derived_from!r}, which is not an "
                        f"identifier field of schema {self.name!r}"
                    )
        if not self.by_role("measure"):
            raise ConfigError(f"schema {self.name!r} needs >= 1 measure")
        if not self.by_role("category"):
            raise ConfigError(f"schema {self.name!r} needs >= 1 category")

    def by_role(self, role: str) -> list[FieldSpec]:
        """All fields carrying the given semantic role, in order."""
        if role not in FIELD_ROLES:
            raise ConfigError(f"unknown role {role!r}")
        return [f for f in self.fields if f.role == role]

    def field(self, name: str) -> FieldSpec:
        for field in self.fields:
            if field.name == name:
                return field
        raise ConfigError(
            f"unknown field {name!r} in schema {self.name!r}"
        )

    def engine_schema(self) -> Schema:
        """The generated table's engine-level schema."""
        return Schema([ColumnDef(f.name, f.dtype) for f in self.fields])

    def database_spec(self) -> DatabaseSpec:
        """The Database Specification every generated dashboard embeds."""
        return DatabaseSpec(
            table=self.name,
            columns=tuple(
                ColumnSpec(f.name, f.dtype.value) for f in self.fields
            ),
        )



# ---------------------------------------------------------------------------
# Built-in schemas: three table shapes the six hand-written dashboards
# do not cover (clickstream, star-shaped retail, vehicle telemetry).
# ---------------------------------------------------------------------------


def _web_analytics() -> WorkloadSchema:
    """Clickstream events: skewed page popularity, many sessions."""
    return WorkloadSchema(
        "web_analytics",
        (
            category("page", cardinality=40, skew=1.1),
            category("country", cardinality=12),
            category("device", cardinality=3),
            identifier("session_id", cardinality=2500),
            category("user_tier", cardinality=4, derived_from="session_id"),
            measure("hits", low=1, high=20, integer=True),
            measure("latency_ms", low=0, high=800),
            timestamp("ts", span_days=14),
        ),
    )


def _retail_sales() -> WorkloadSchema:
    """Order lines over a store dimension (star-schema friendly)."""
    return WorkloadSchema(
        "retail_sales",
        (
            identifier("store_id", cardinality=60),
            category("region", cardinality=12, derived_from="store_id"),
            category("banner", cardinality=4, derived_from="store_id"),
            category("product_line", cardinality=8, skew=0.8),
            category("promo", cardinality=2),
            measure("units", low=1, high=12, integer=True),
            measure("revenue", low=1, high=500),
            timestamp("sold_at", span_days=90),
        ),
    )


def _fleet_telemetry() -> WorkloadSchema:
    """Vehicle telemetry: one identifier per vehicle, dense measures."""
    return WorkloadSchema(
        "fleet_telemetry",
        (
            identifier("vehicle_id", cardinality=240),
            category("depot", cardinality=10, derived_from="vehicle_id"),
            category("route", cardinality=25, skew=0.6),
            category("status", cardinality=4),
            measure("speed", low=0, high=120),
            measure("fuel_pct", low=0, high=100),
            measure("stops", low=0, high=30, integer=True),
            timestamp("ts", span_days=7),
        ),
    )


_BUILTIN = {
    "web_analytics": _web_analytics,
    "retail_sales": _retail_sales,
    "fleet_telemetry": _fleet_telemetry,
}

#: The built-in workload schemas, by name.
SCHEMA_NAMES = tuple(sorted(_BUILTIN))


def workload_schema(name: str) -> WorkloadSchema:
    """Build one of the built-in workload schemas by name."""
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise ConfigError(
            f"unknown workload schema {name!r}; available: "
            f"{list(SCHEMA_NAMES)}"
        ) from None
