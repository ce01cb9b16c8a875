"""Edge-case coverage for the Roofnet / Wigle topology loaders.

The generated layouts feed the largest experiments; a silently broken
spec (missing node, rotted route, non-finite coordinate) would surface
hours into a sweep as an unrelated ``KeyError``.  These tests pin the
loaders' structural guarantees and the ``TopologySpec.validate`` gate
they all pass through.
"""

import json
import math

import pytest

from repro.topology.roofnet import (
    connectivity_from_positions,
    pick_khop_pairs,
    roofnet_scenario,
    roofnet_topology,
)
from repro.topology.spec import FlowSpec, TopologyError, TopologySpec
from repro.topology.wigle import STATION_R, STATION_S, wigle_topology


class TestSpecValidation:
    def test_empty_node_set_rejected(self):
        spec = TopologySpec(name="empty", positions={})
        with pytest.raises(TopologyError, match="no nodes"):
            spec.validate()

    def test_non_finite_position_rejected(self):
        spec = TopologySpec(name="bad", positions={0: (0.0, float("nan")), 1: (1.0, 1.0)})
        with pytest.raises(TopologyError, match="not finite"):
            spec.validate()
        spec = TopologySpec(name="bad", positions={0: (float("inf"), 0.0)})
        with pytest.raises(TopologyError, match="not finite"):
            spec.validate()

    def test_duplicate_flow_ids_rejected(self):
        spec = TopologySpec(
            name="dup",
            positions={0: (0.0, 0.0), 1: (10.0, 0.0)},
            flows=[
                FlowSpec(flow_id=1, src=0, dst=1),
                FlowSpec(flow_id=1, src=1, dst=0),
            ],
        )
        with pytest.raises(TopologyError, match="duplicate flow id"):
            spec.validate()

    def test_flow_referencing_unknown_node_rejected(self):
        spec = TopologySpec(
            name="dangling",
            positions={0: (0.0, 0.0), 1: (10.0, 0.0)},
            flows=[FlowSpec(flow_id=1, src=0, dst=99)],
        )
        with pytest.raises(TopologyError, match="unknown node 99"):
            spec.validate()

    def test_route_through_unknown_node_rejected(self):
        spec = TopologySpec(
            name="ghost-hop",
            positions={0: (0.0, 0.0), 1: (10.0, 0.0)},
            route_sets={"ROUTE0": {(0, 1): [0, 7, 1]}},
        )
        with pytest.raises(TopologyError, match="unknown node 7"):
            spec.validate()

    def test_route_not_joining_endpoints_rejected(self):
        spec = TopologySpec(
            name="broken-route",
            positions={0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0)},
            route_sets={"ROUTE0": {(0, 2): [0, 1]}},
        )
        with pytest.raises(TopologyError, match="does not join"):
            spec.validate()

    def test_valid_spec_passes_and_chains(self):
        spec = TopologySpec(
            name="ok",
            positions={0: (0.0, 0.0), 1: (10.0, 0.0)},
            flows=[FlowSpec(flow_id=1, src=0, dst=1)],
            route_sets={"ROUTE0": {(0, 1): [0, 1]}},
        )
        assert spec.validate() is spec


class TestRoofnetLoader:
    def test_layout_is_deterministic_per_seed(self):
        assert roofnet_topology(seed=7).positions == roofnet_topology(seed=7).positions
        assert roofnet_topology(seed=7).positions != roofnet_topology(seed=8).positions

    def test_all_positions_finite_and_in_band(self):
        spec = roofnet_topology()
        for x, y in spec.positions.values():
            assert math.isfinite(x) and math.isfinite(y)
            # clusters span ~1 km x 0.5 km; 3-sigma spread keeps nodes well inside
            assert -200.0 < x < 1300.0
            assert -200.0 < y < 800.0

    def test_connectivity_of_empty_node_set(self):
        graph = connectivity_from_positions({})
        assert len(graph) == 0
        assert sum(len(neighbours) for neighbours in graph.values()) == 0

    def test_pick_khop_pairs_raises_when_no_pair_exists(self):
        spec = roofnet_topology()
        with pytest.raises(RuntimeError, match="no 40-hop pair"):
            pick_khop_pairs(spec, hop_counts=(40,))

    def test_scenario_routes_cover_every_flow(self):
        spec = roofnet_scenario()
        routes = spec.route_sets["ROUTE0"]
        for flow in spec.flows:
            assert (flow.src, flow.dst) in routes
            path = routes[(flow.src, flow.dst)]
            assert path[0] == flow.src and path[-1] == flow.dst

    def test_scenario_with_hidden_terminals_validates(self):
        spec = roofnet_scenario(include_hidden=True)
        hidden = [flow for flow in spec.flows if flow.kind == "udp-saturating"]
        assert hidden, "hidden terminals requested but none placed"
        # validate() ran inside the loader; flows are unique and routed
        assert len({flow.flow_id for flow in spec.flows}) == len(spec.flows)

    def test_roundtrip_through_json_preserves_layout(self):
        spec = roofnet_scenario()
        rebuilt = TopologySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.to_dict() == spec.to_dict()
        rebuilt.validate()


class TestWigleLoader:
    def test_flow_ids_unique_and_routed(self):
        spec = wigle_topology()
        assert len({flow.flow_id for flow in spec.flows}) == len(spec.flows)
        routes = spec.route_sets["ROUTE0"]
        for flow in spec.flows:
            assert (flow.src, flow.dst) in routes

    def test_hidden_pair_present_only_when_requested(self):
        with_hidden = wigle_topology(include_hidden=True)
        without = wigle_topology(include_hidden=False)
        assert STATION_S in with_hidden.positions and STATION_R in with_hidden.positions
        assert STATION_S not in without.positions and STATION_R not in without.positions
        assert len(without.flows) == len(with_hidden.flows) - 1

    def test_hidden_source_is_far_from_left_sources(self):
        spec = wigle_topology()
        sx, sy = spec.positions[STATION_S]
        x1, y1 = spec.positions[1]
        assert math.hypot(sx - x1, sy - y1) > 650.0

    def test_flow_paths_match_labels(self):
        labels = [flow.label for flow in wigle_topology(include_hidden=False).flows]
        assert "1-4-6-8" in labels and "8-7-5" in labels

    def test_positions_are_unique(self):
        spec = wigle_topology()
        assert len(set(spec.positions.values())) == len(spec.positions)
