"""Unit tests for the dashboard specification language."""

import pytest

from repro.dashboard.spec import (
    ColumnSpec,
    DashboardSpec,
    DatabaseSpec,
    DimensionSpec,
    InterfaceSpec,
    LinkSpec,
    MeasureSpec,
    VisualizationSpec,
    WidgetSpec,
)
from repro.errors import SpecificationError


def minimal_database():
    return DatabaseSpec(
        table="t",
        columns=(
            ColumnSpec("q", "string"),
            ColumnSpec("x", "float"),
            ColumnSpec("d", "date"),
        ),
    )


def minimal_viz(viz_id="v1"):
    return VisualizationSpec(
        id=viz_id,
        type="bar",
        dimensions=(DimensionSpec("q"),),
        measures=(MeasureSpec("sum", "x"),),
    )


class TestColumnSpec:
    def test_valid_types(self):
        for name in ("integer", "float", "string", "boolean", "date",
                     "timestamp"):
            ColumnSpec("c", name)

    def test_invalid_type_raises(self):
        with pytest.raises(SpecificationError):
            ColumnSpec("c", "varchar")

    def test_dtype_mapping(self):
        from repro.engine.types import DataType

        assert ColumnSpec("c", "float").dtype is DataType.FLOAT


class TestDatabaseSpec:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SpecificationError):
            DatabaseSpec("t", (ColumnSpec("a", "string"),) * 2)

    def test_schema_conversion(self):
        schema = minimal_database().schema()
        assert schema.names == ["q", "x", "d"]

    def test_unknown_column_raises(self):
        with pytest.raises(SpecificationError):
            minimal_database().column("zzz")


class TestVisualizationSpec:
    def test_unknown_type_rejected(self):
        with pytest.raises(SpecificationError):
            VisualizationSpec(id="v", type="hologram",
                              dimensions=(DimensionSpec("q"),))

    def test_empty_viz_rejected(self):
        with pytest.raises(SpecificationError):
            VisualizationSpec(id="v", type="bar")

    def test_measure_agg_validated(self):
        with pytest.raises(SpecificationError):
            MeasureSpec("median", "x")

    def test_count_star_measure(self):
        measure = MeasureSpec("count", None)
        assert measure.column is None


class TestWidgetSpec:
    def test_unknown_type_rejected(self):
        with pytest.raises(SpecificationError):
            WidgetSpec(id="w", type="knob", column="q", targets=("v1",))

    def test_no_targets_rejected(self):
        with pytest.raises(SpecificationError):
            WidgetSpec(id="w", type="checkbox", column="q", targets=())

    def test_categorical_vs_range(self):
        checkbox = WidgetSpec(id="w", type="checkbox", column="q",
                              targets=("v1",))
        slider = WidgetSpec(id="s", type="slider", column="x",
                            targets=("v1",))
        assert checkbox.is_categorical and not checkbox.is_range
        assert slider.is_range and not slider.is_categorical


class TestDashboardValidation:
    def build(self, **overrides):
        params = dict(
            name="d",
            dashboard_type="test",
            database=minimal_database(),
            interface=InterfaceSpec(
                visualizations=(minimal_viz(),),
                widgets=(
                    WidgetSpec(id="w1", type="checkbox", column="q",
                               targets=("v1",)),
                ),
            ),
        )
        params.update(overrides)
        return DashboardSpec(**params)

    def test_valid_spec_builds(self):
        spec = self.build()
        assert spec.num_visualizations == 1
        assert spec.num_widgets == 1

    def test_viz_with_unknown_column_rejected(self):
        viz = VisualizationSpec(
            id="v1", type="bar",
            dimensions=(DimensionSpec("missing"),),
            measures=(MeasureSpec("sum", "x"),),
        )
        with pytest.raises(SpecificationError):
            self.build(interface=InterfaceSpec(visualizations=(viz,)))

    def test_widget_with_unknown_column_rejected(self):
        interface = InterfaceSpec(
            visualizations=(minimal_viz(),),
            widgets=(
                WidgetSpec(id="w", type="checkbox", column="missing",
                           targets=("v1",)),
            ),
        )
        with pytest.raises(SpecificationError):
            self.build(interface=interface)

    def test_widget_with_unknown_target_rejected(self):
        interface = InterfaceSpec(
            visualizations=(minimal_viz(),),
            widgets=(
                WidgetSpec(id="w", type="checkbox", column="q",
                           targets=("ghost",)),
            ),
        )
        with pytest.raises(SpecificationError):
            self.build(interface=interface)

    def test_link_with_unknown_endpoint_rejected(self):
        interface = InterfaceSpec(
            visualizations=(minimal_viz(),),
            links=(LinkSpec("v1", "ghost"),),
        )
        with pytest.raises(SpecificationError):
            self.build(interface=interface)

    def test_duplicate_component_ids_rejected(self):
        with pytest.raises(SpecificationError):
            InterfaceSpec(
                visualizations=(minimal_viz("same"),),
                widgets=(
                    WidgetSpec(id="same", type="checkbox", column="q",
                               targets=("same",)),
                ),
            )

    def test_used_columns(self):
        spec = self.build()
        assert spec.used_columns() == {"q", "x"}


class TestSerialization:
    def test_json_roundtrip(self, cs_spec):
        clone = DashboardSpec.from_json(cs_spec.to_json())
        assert clone == cs_spec

    def test_dict_roundtrip_all_library_dashboards(self):
        from repro.dashboard.library import all_dashboards

        for spec in all_dashboards().values():
            assert DashboardSpec.from_dict(spec.to_dict()) == spec

    def test_json_is_plain_data(self, cs_spec):
        import json

        data = json.loads(cs_spec.to_json())
        assert data["name"] == "customer_service"
        assert isinstance(data["interface"]["visualizations"], list)

    @pytest.mark.parametrize(
        "text", ["{}", "[]", '{"name": "x"}', "not json"]
    )
    def test_malformed_json_raises_specification_error(self, text):
        with pytest.raises(SpecificationError) as info:
            DashboardSpec.from_json(text)
        assert info.value.__cause__ is not None

    def test_validation_errors_keep_their_message(self, cs_spec):
        data = cs_spec.to_dict()
        data["interface"]["widgets"][0]["column"] = "no_such_column"
        with pytest.raises(SpecificationError, match="references unknown"):
            DashboardSpec.from_dict(data)
