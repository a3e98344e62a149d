"""Tests for the dashboard graph, data layer, components, and state."""

import pytest

from repro.dashboard.components import RangeStep, WidgetRuntime
from repro.dashboard.datalayer import (
    base_query,
    filtered_query,
    membership_filter,
    range_filter,
)
from repro.dashboard.graph import DashboardGraph
from repro.dashboard.state import DashboardState, Interaction, InteractionKind
from repro.errors import InteractionError, SpecificationError
from repro.sql.formatter import format_query
from repro.sql.parser import parse_query


@pytest.fixture()
def state(cs_spec, cs_data):
    return DashboardState(cs_spec, cs_data)


class TestGraph:
    def test_node_partition(self, cs_spec):
        graph = DashboardGraph(cs_spec)
        assert len(graph.visualization_ids) == 5
        assert len(graph.widget_ids) == 4

    def test_widget_reaches_all_targets(self, cs_spec):
        graph = DashboardGraph(cs_spec)
        reached = graph.reachable_visualizations("queue_checkbox")
        assert set(reached) == set(graph.visualization_ids)

    def test_viz_crossfilter_reaches_links(self, cs_spec):
        graph = DashboardGraph(cs_spec)
        reached = graph.reachable_visualizations("calls_by_queue")
        assert "lost_calls" in reached
        assert "calls_by_queue" not in reached  # not itself

    def test_influencers_inverse_of_reachability(self, cs_spec):
        graph = DashboardGraph(cs_spec)
        assert "queue_checkbox" in graph.influencers("lost_calls")

    def test_unknown_node_raises(self, cs_spec):
        graph = DashboardGraph(cs_spec)
        with pytest.raises(SpecificationError):
            graph.reachable_visualizations("ghost")

    def test_out_degree_stats(self, cs_spec):
        stats = DashboardGraph(cs_spec).out_degree_stats()
        assert stats["avg"] > 0
        assert stats["max"] <= 5


class TestDataLayer:
    def test_base_query_matches_figure2(self, cs_spec):
        viz = cs_spec.interface.visualization("total_calls_by_hour")
        query = base_query(viz, cs_spec)
        assert parse_query(format_query(query)) == parse_query(
            "SELECT queue, hour, callDirection, COUNT(calls) AS count_calls "
            "FROM customer_service GROUP BY queue, hour, callDirection"
        )

    def test_stat_viz_has_no_group_by(self, cs_spec):
        viz = cs_spec.interface.visualization("lost_calls")
        query = base_query(viz, cs_spec)
        assert not query.group_by
        assert "COUNT(lostCalls)" in format_query(query)

    def test_filters_are_sorted_deterministically(self, cs_spec):
        viz = cs_spec.interface.visualization("lost_calls")
        f1 = membership_filter("queue", ["A"])
        f2 = range_filter("hour", 9, 17)
        a = format_query(filtered_query(viz, cs_spec, [f1, f2]))
        b = format_query(filtered_query(viz, cs_spec, [f2, f1]))
        assert a == b

    def test_membership_filter_sorts_members(self):
        assert format_query_expr(membership_filter("q", ["B", "A"])) == (
            "q IN ('A', 'B')"
        )

    def test_membership_filter_empty_raises(self):
        with pytest.raises(SpecificationError):
            membership_filter("q", [])

    def test_range_filter(self):
        assert format_query_expr(range_filter("h", 1, 5)) == (
            "h BETWEEN 1 AND 5"
        )


class TestWidgetRuntime:
    def test_checkbox_options_from_data(self, cs_spec, cs_data):
        widget = cs_spec.interface.widget("queue_checkbox")
        runtime = WidgetRuntime(widget, cs_data)
        assert runtime.options == ["A", "B", "C", "D"]

    def test_slider_ranges_from_domain(self, cs_spec, cs_data):
        widget = cs_spec.interface.widget("hour_slider")
        runtime = WidgetRuntime(widget, cs_data)
        assert runtime.ranges
        assert all(isinstance(s, RangeStep) for s in runtime.ranges)
        assert runtime.ranges[0].low == 0

    def test_filter_for_none_state(self, cs_spec, cs_data):
        widget = cs_spec.interface.widget("queue_checkbox")
        runtime = WidgetRuntime(widget, cs_data)
        assert runtime.filter_for(None) is None

    def test_selecting_everything_is_no_filter(self, cs_spec, cs_data):
        widget = cs_spec.interface.widget("queue_checkbox")
        runtime = WidgetRuntime(widget, cs_data)
        assert runtime.filter_for(frozenset("ABCD")) is None

    def test_filter_for_members(self, cs_spec, cs_data):
        widget = cs_spec.interface.widget("queue_checkbox")
        runtime = WidgetRuntime(widget, cs_data)
        predicate = runtime.filter_for(frozenset(["B", "A"]))
        assert format_query_expr(predicate) == "queue IN ('A', 'B')"

    def test_invalid_member_rejected(self, cs_spec, cs_data):
        widget = cs_spec.interface.widget("queue_checkbox")
        runtime = WidgetRuntime(widget, cs_data)
        with pytest.raises(InteractionError):
            runtime.validate_member("Z")

    def test_inverted_range_rejected(self, cs_spec, cs_data):
        widget = cs_spec.interface.widget("hour_slider")
        runtime = WidgetRuntime(widget, cs_data)
        with pytest.raises(InteractionError):
            runtime.validate_range(10, 2)


class TestDashboardState:
    def test_initial_queries_one_per_viz(self, state):
        assert len(state.initial_queries()) == 5

    def test_checkbox_filter_propagates_to_all(self, state):
        emitted = state.apply(
            Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A")
        )
        assert len(emitted) == 5
        for query in emitted:
            assert "queue IN ('A')" in format_query(query)

    def test_toggle_twice_removes_filter(self, state):
        toggle = Interaction(
            InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A"
        )
        state.apply(toggle)
        emitted = state.apply(toggle)
        for query in emitted:
            assert "WHERE" not in format_query(query)

    def test_radio_is_exclusive(self, state):
        state.apply(
            Interaction(
                InteractionKind.WIDGET_TOGGLE, "direction_radio", "incoming"
            )
        )
        emitted = state.apply(
            Interaction(
                InteractionKind.WIDGET_TOGGLE, "direction_radio", "outgoing"
            )
        )
        text = format_query(emitted[0])
        assert "outgoing" in text
        assert "incoming" not in text

    def test_widget_set_replaces_members(self, state):
        state.apply(
            Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A")
        )
        state.apply(
            Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "B")
        )
        emitted = state.apply(
            Interaction(InteractionKind.WIDGET_SET, "queue_checkbox", "C")
        )
        assert "queue IN ('C')" in format_query(emitted[0])

    def test_slider_set(self, state):
        emitted = state.apply(
            Interaction(InteractionKind.WIDGET_SET, "hour_slider", (9, 17))
        )
        assert "hour BETWEEN 9 AND 17" in format_query(emitted[0])

    def test_widget_clear(self, state):
        state.apply(
            Interaction(InteractionKind.WIDGET_SET, "hour_slider", (9, 17))
        )
        emitted = state.apply(
            Interaction(InteractionKind.WIDGET_CLEAR, "hour_slider")
        )
        for query in emitted:
            assert "BETWEEN" not in format_query(query)

    def test_mark_selection_replaces(self, state):
        state.apply(
            Interaction(
                InteractionKind.VIZ_SELECT, "calls_by_queue",
                ("repID", "rep-00"),
            )
        )
        emitted = state.apply(
            Interaction(
                InteractionKind.VIZ_SELECT, "calls_by_queue",
                ("repID", "rep-01"),
            )
        )
        text = format_query(emitted[0])
        assert "rep-01" in text
        assert "rep-00" not in text

    def test_mark_reselect_deselects(self, state):
        pair = ("repID", "rep-00")
        state.apply(
            Interaction(InteractionKind.VIZ_SELECT, "calls_by_queue", pair)
        )
        emitted = state.apply(
            Interaction(InteractionKind.VIZ_SELECT, "calls_by_queue", pair)
        )
        for query in emitted:
            assert "rep-00" not in format_query(query)

    def test_selection_does_not_filter_source(self, state):
        state.apply(
            Interaction(
                InteractionKind.VIZ_SELECT, "calls_by_queue",
                ("repID", "rep-00"),
            )
        )
        own_query = state.query_for("calls_by_queue")
        assert "rep-00" not in format_query(own_query)

    def test_reset_restores_baseline(self, state):
        state.apply(
            Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A")
        )
        emitted = state.apply(Interaction(InteractionKind.RESET))
        assert len(emitted) == 5
        for query in emitted:
            assert "WHERE" not in format_query(query)

    def test_filters_combine_across_widgets(self, state):
        state.apply(
            Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A")
        )
        state.apply(
            Interaction(InteractionKind.WIDGET_SET, "hour_slider", (9, 17))
        )
        text = format_query(state.query_for("lost_calls"))
        assert "queue IN ('A')" in text
        assert "hour BETWEEN 9 AND 17" in text

    def test_unknown_widget_raises(self, state):
        with pytest.raises(InteractionError):
            state.apply(
                Interaction(InteractionKind.WIDGET_TOGGLE, "ghost", "A")
            )

    def test_toggle_on_range_widget_raises(self, state):
        with pytest.raises(InteractionError):
            state.apply(
                Interaction(InteractionKind.WIDGET_TOGGLE, "hour_slider", 5)
            )

    def test_invalid_selection_raises(self, state):
        with pytest.raises(InteractionError):
            state.apply(
                Interaction(
                    InteractionKind.VIZ_SELECT, "calls_by_queue",
                    ("repID", "nobody"),
                )
            )

    def test_unselectable_viz_rejects_selection(self, state):
        with pytest.raises(InteractionError):
            state.apply(
                Interaction(
                    InteractionKind.VIZ_SELECT, "lost_calls", ("queue", "A")
                )
            )

    def test_copy_isolates_state(self, state):
        clone = state.copy()
        clone.apply(
            Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A")
        )
        assert state.widget_state["queue_checkbox"] is None
        assert clone.widget_state["queue_checkbox"] is not None

    def test_state_key_changes_with_state(self, state):
        before = state.state_key()
        state.apply(
            Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A")
        )
        assert state.state_key() != before

    def test_available_interactions_nonempty(self, state):
        actions = state.available_interactions()
        kinds = {a.kind for a in actions}
        assert InteractionKind.WIDGET_TOGGLE in kinds
        assert InteractionKind.VIZ_SELECT in kinds

    def test_available_includes_clear_when_active(self, state):
        state.apply(
            Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A")
        )
        actions = state.available_interactions()
        assert any(
            a.kind is InteractionKind.WIDGET_CLEAR
            and a.target == "queue_checkbox"
            for a in actions
        )

    def test_interaction_describe(self):
        assert "reset" in Interaction(InteractionKind.RESET).describe()
        toggle = Interaction(InteractionKind.WIDGET_TOGGLE, "w", "A")
        assert "toggle" in toggle.describe()


class TestQueryTable:
    """``query_for`` keeps one ``Query`` per (visualization, influencer
    state) in a table a state shares with its copies — and with nothing
    else."""

    TOGGLE_A = Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "A")
    TOGGLE_B = Interaction(InteractionKind.WIDGET_TOGGLE, "queue_checkbox", "B")

    @staticmethod
    def _select(state, viz_id):
        pair = state.visualizations[viz_id].selectable_values()[0]
        return Interaction(InteractionKind.VIZ_SELECT, viz_id, pair)

    def test_equal_influencer_state_returns_the_same_query(self, state):
        first = state.copy()
        second = state.copy()
        first.apply(self.TOGGLE_A)
        second.apply(self.TOGGLE_B)
        second.apply(self.TOGGLE_B)  # B off again ...
        second.apply(self.TOGGLE_A)  # ... then A on: same state, other path
        for viz_id in state.visualizations:
            assert first.query_for(viz_id) is second.query_for(viz_id)
            assert state.query_for(viz_id) is not first.query_for(viz_id)

    def test_matches_a_query_built_from_scratch(self, state, cs_spec):
        state.apply(self.TOGGLE_A)
        state.apply(Interaction(InteractionKind.WIDGET_SET, "hour_slider", (9, 17)))
        state.apply(self._select(state, "calls_by_queue"))
        for viz_id, runtime in state.visualizations.items():
            scratch = filtered_query(
                runtime.spec, cs_spec, state.filters_for(viz_id)
            )
            assert state.query_for(viz_id) == scratch
            assert format_query(state.query_for(viz_id)) == format_query(scratch)

    def test_only_influencers_are_in_the_key(self, state):
        """A visualization's own mark selection does not filter it."""
        before = state.query_for("calls_by_queue")
        state.apply(self._select(state, "calls_by_queue"))
        assert state.query_for("calls_by_queue") is before

    def test_equal_but_differently_typed_values_are_kept_apart(self, state):
        """``9 == 9.0`` in Python, but ``BETWEEN 9 AND 17`` is other SQL
        than ``BETWEEN 9.0 AND 17``."""
        ints = state.copy()
        floats = state.copy()
        ints.apply(Interaction(InteractionKind.WIDGET_SET, "hour_slider", (9, 17)))
        floats.apply(
            Interaction(InteractionKind.WIDGET_SET, "hour_slider", (9.0, 17))
        )
        viz_id = state.graph.reachable_visualizations("hour_slider")[0]
        assert "BETWEEN 9 AND 17" in format_query(ints.query_for(viz_id))
        assert "BETWEEN 9.0 AND 17" in format_query(floats.query_for(viz_id))

    def test_a_rebuilt_state_starts_an_empty_table(self, state, cs_spec, cs_data):
        state.apply(self.TOGGLE_A)
        rebuilt = DashboardState(cs_spec, cs_data)
        rebuilt.apply(self.TOGGLE_A)
        assert rebuilt._queries is not state._queries
        for viz_id in state.visualizations:
            assert rebuilt.query_for(viz_id) == state.query_for(viz_id)
            assert rebuilt.query_for(viz_id) is not state.query_for(viz_id)

    def test_session_load_drops_the_states_and_their_tables(self, cs_data):
        import repro

        with repro.connect("vectorstore") as session:
            session.load(cs_data)
            before = session.dashboard("customer_service")
            before.initial_queries()
            session.load(cs_data)
            after = session.dashboard("customer_service")
        assert after is not before
        assert after._queries is not before._queries
        assert not after._queries

    def test_interface_manipulation_starts_over(self, state):
        from repro.dashboard.spec import (
            DimensionSpec,
            MeasureSpec,
            VisualizationSpec,
        )

        clone = state.copy()
        old = {v: state.query_for(v) for v in state.visualizations}
        table = state._queries
        state.add_visualization(
            VisualizationSpec(
                id="lost_by_team", type="bar",
                dimensions=(DimensionSpec("team"),),
                measures=(MeasureSpec("count", "lostCalls"),),
            ),
            link_to=("calls_by_queue",),
        )
        assert state._queries is not table
        assert clone._queries is table  # the clone keeps the old spec
        assert "lost_by_team" in state.graph.influencers("calls_by_queue")
        state.apply(self._select(state, "lost_by_team"))
        assert "team IN" in format_query(state.query_for("calls_by_queue"))
        assert clone.query_for("calls_by_queue") is old["calls_by_queue"]
        state.remove_visualization("lost_by_team")
        assert "team IN" not in format_query(state.query_for("calls_by_queue"))

    def test_the_table_is_bounded(self, state, monkeypatch):
        import repro.dashboard.state as state_module

        monkeypatch.setattr(state_module, "QUERY_MEMO_LIMIT", 4)
        for option in state.widgets["queue_checkbox"].options:
            probe = state.copy()
            probe.apply(
                Interaction(InteractionKind.WIDGET_SET, "queue_checkbox", option)
            )
            assert len(state._queries) <= 4
        assert state._queries  # and still in use after starting over


class TestLibrary:
    def test_all_dashboards_load_and_validate(self):
        from repro.dashboard.library import all_dashboards

        boards = all_dashboards()
        assert len(boards) == 6

    def test_figure6_visualization_counts(self):
        from repro.dashboard.library import load_dashboard

        expectations = {
            "circulation": 2,
            "myride": 2,
            "it_monitor": 3,
            "customer_service": 5,
        }
        for name, count in expectations.items():
            assert load_dashboard(name).num_visualizations == count

    def test_figure6_column_role_counts(self):
        from repro.dashboard.library import load_dashboard

        expectations = {  # (quantitative, categorical) per Figure 6
            "circulation": (2, 2),
            "supply_chain": (5, 18),
            "ubc_energy": (22, 4),
            "myride": (10, 3),
            "it_monitor": (3, 5),
            "customer_service": (10, 6),
        }
        for name, (quant, cat) in expectations.items():
            schema = load_dashboard(name).database.schema()
            assert len(schema.numeric_columns()) == quant, name
            assert len(schema.categorical_columns()) == cat, name

    def test_unknown_dashboard_raises(self):
        from repro.dashboard.library import load_dashboard
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            load_dashboard("nope")


def format_query_expr(expr):
    from repro.sql.formatter import format_expression

    return format_expression(expr)


class TestJsonSpecFiles:
    """The shipped JSON files are the canonical dashboard artifacts."""

    def test_json_files_are_canonical(self):
        import pathlib

        import repro.dashboard.library as library

        specs_dir = pathlib.Path(library.__file__).parent / "specs"
        for name in library.DASHBOARD_NAMES:
            text = (specs_dir / f"{name}.json").read_text(encoding="utf-8")
            assert library.load_dashboard(name).to_json() + "\n" == text, name

    def test_database_columns_match_generators(self):
        from repro.dashboard.library import DASHBOARD_NAMES, load_dashboard
        from repro.workload.datasets import dataset_schema

        for name in DASHBOARD_NAMES:
            spec_columns = [
                (c.name, c.type) for c in load_dashboard(name).database.columns
            ]
            generated = [
                (c.name, c.dtype.value) for c in dataset_schema(name).columns
            ]
            assert spec_columns == generated, name

    def test_dashboard_names_are_the_six_paper_dashboards(self):
        from repro.dashboard.library import DASHBOARD_NAMES

        assert DASHBOARD_NAMES == [
            "circulation",
            "customer_service",
            "it_monitor",
            "myride",
            "supply_chain",
            "ubc_energy",
        ]

    @pytest.mark.parametrize(
        "name", ["nope", "../specs/customer_service", "customer_service.json"]
    )
    def test_unknown_name_raises_before_reading_files(self, name, monkeypatch):
        import pathlib

        from repro.dashboard.library import load_dashboard
        from repro.errors import ConfigError

        def no_reads(*args, **kwargs):
            raise AssertionError("an unknown name reached the filesystem")

        monkeypatch.setattr(pathlib.Path, "read_text", no_reads)
        with pytest.raises(ConfigError, match="unknown dashboard"):
            load_dashboard(name)
