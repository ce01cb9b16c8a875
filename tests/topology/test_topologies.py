"""The paper's topologies: structural properties the evaluation relies on."""

import math

import pytest

from repro.phy.params import PhyParams
from repro.phy.propagation import ShadowingPropagation
from repro.routing.graph import hop_distances
from repro.topology.roofnet import connectivity_from_positions, pick_khop_pairs, roofnet_scenario, roofnet_topology
from repro.topology.spec import TopologySpec
from repro.topology.standard import fig1_topology, fig5a_topology, fig5b_topology, line_topology
from repro.topology.wigle import STATION_S, wigle_topology


def link_quality(spec: TopologySpec, a: int, b: int) -> float:
    """Shadowing-model delivery probability between two nodes of a spec."""
    model = ShadowingPropagation()
    phy = PhyParams()
    ax, ay = spec.positions[a]
    bx, by = spec.positions[b]
    distance = math.hypot(ax - bx, ay - by)
    return model.reception_probability(phy.tx_power_dbm, distance, phy.rx_threshold_dbm)


class TestFig1:
    def test_eight_stations(self):
        assert len(fig1_topology().positions) == 8

    def test_three_flows(self):
        spec = fig1_topology()
        assert [(f.src, f.dst) for f in spec.flows] == [(0, 3), (0, 4), (5, 7)]

    def test_route_sets_match_table2(self):
        spec = fig1_topology()
        assert spec.routes("ROUTE0")[(0, 3)] == [0, 1, 2, 3]
        assert spec.routes("ROUTE1")[(0, 3)] == [0, 1, 3]
        assert spec.routes("ROUTE2")[(0, 3)] == [0, 2, 3]
        assert spec.routes("ROUTE0")[(5, 7)] == [5, 6, 1, 7]

    def test_relay_hops_are_reliable(self):
        spec = fig1_topology()
        for a, b in [(0, 1), (1, 2), (2, 3), (2, 4), (5, 6), (6, 1)]:
            assert link_quality(spec, a, b) > 0.9, (a, b)

    def test_direct_links_are_poor(self):
        spec = fig1_topology()
        # The "S" routes must be far less reliable than the relayed hops, which
        # is why one-hop routing is inefficient (Section IV-A).
        for a, b in [(0, 3), (0, 4), (5, 7)]:
            assert link_quality(spec, a, b) < 0.55, (a, b)

    def test_route2_is_weaker_than_route0(self):
        spec = fig1_topology()
        # ROUTE2's first hop (0-2) and flow-3 relay (5-1) are the weak links.
        assert link_quality(spec, 0, 2) < link_quality(spec, 0, 1)
        assert link_quality(spec, 5, 1) < link_quality(spec, 5, 6)

    def test_flow_lookup(self):
        spec = fig1_topology()
        assert spec.flow(1).dst == 3
        with pytest.raises(KeyError):
            spec.flow(99)

    def test_unknown_route_set(self):
        with pytest.raises(KeyError):
            fig1_topology().routes("ROUTE9")


class TestFig5a:
    def test_flow_count_parameter(self):
        spec = fig5a_topology(n_flows=4)
        assert len(spec.flows) == 4
        assert len(spec.positions) == 12

    def test_every_station_senses_every_other(self):
        # "Regular collisions": no hidden terminals, so every pair of stations
        # is within carrier-sense range.
        spec = fig5a_topology(n_flows=9)
        model = ShadowingPropagation()
        phy = PhyParams()
        for a in spec.node_ids:
            for b in spec.node_ids:
                if a >= b:
                    continue
                ax, ay = spec.positions[a]
                bx, by = spec.positions[b]
                distance = math.hypot(ax - bx, ay - by)
                p_sense = model.reception_probability(phy.tx_power_dbm, distance, phy.cs_threshold_dbm)
                assert p_sense > 0.5, (a, b, distance)

    def test_flow_range_validation(self):
        with pytest.raises(ValueError):
            fig5a_topology(n_flows=0)
        with pytest.raises(ValueError):
            fig5a_topology(n_flows=10)


class TestFig5b:
    def test_hidden_sources_cannot_hear_flow1_source(self):
        spec = fig5b_topology(n_hidden=9)
        model = ShadowingPropagation()
        phy = PhyParams()
        for flow in spec.flows[1:]:
            sx, sy = spec.positions[flow.src]
            distance = math.hypot(sx - spec.positions[0][0], sy - spec.positions[0][1])
            p_sense = model.reception_probability(phy.tx_power_dbm, distance, phy.cs_threshold_dbm)
            assert p_sense < 0.15, (flow.src, distance)

    def test_hidden_sources_interfere_at_flow1_destination(self):
        spec = fig5b_topology(n_hidden=9)
        model = ShadowingPropagation()
        phy = PhyParams()
        for flow in spec.flows[1:]:
            sx, sy = spec.positions[flow.src]
            dx, dy = spec.positions[3]
            distance = math.hypot(sx - dx, sy - dy)
            p_sense = model.reception_probability(phy.tx_power_dbm, distance, phy.cs_threshold_dbm)
            assert p_sense > 0.5, (flow.src, distance)

    def test_hidden_flows_are_saturating_udp(self):
        spec = fig5b_topology(n_hidden=3)
        assert all(f.kind == "udp-saturating" for f in spec.flows[1:])

    def test_zero_hidden_flows(self):
        spec = fig5b_topology(n_hidden=0)
        assert len(spec.flows) == 1


class TestLine:
    @pytest.mark.parametrize("hops", [2, 4, 7])
    def test_line_length(self, hops):
        spec = line_topology(hops)
        assert len(spec.positions) == hops + 1
        assert spec.routes("ROUTE0")[(0, hops)] == list(range(hops + 1))

    def test_cross_traffic_adds_three_hop_flow(self):
        spec = line_topology(5, cross_traffic=True)
        assert len(spec.flows) == 2
        cross = spec.flows[1]
        route = spec.routes("ROUTE0")[(cross.src, cross.dst)]
        assert len(route) == 4  # 3 hops
        assert route[2] == 5 // 2  # shares the middle relay of the line

    def test_invalid_hop_counts(self):
        with pytest.raises(ValueError):
            line_topology(1)
        with pytest.raises(ValueError):
            line_topology(8)

    def test_long_line_endpoints_cannot_hear_each_other(self):
        spec = line_topology(7)
        assert link_quality(spec, 0, 7) < 0.01


class TestWigle:
    def test_eight_aps_plus_hidden_pair(self):
        spec = wigle_topology(include_hidden=True)
        assert len(spec.positions) == 10
        assert STATION_S in spec.positions

    def test_flows_are_one_to_three_hops(self):
        spec = wigle_topology(include_hidden=False)
        for flow in spec.flows:
            route = spec.routes("ROUTE0")[(flow.src, flow.dst)]
            assert 2 <= len(route) <= 4

    def test_flow_labels_match_paths(self):
        spec = wigle_topology(include_hidden=False)
        for flow in spec.flows:
            route = spec.routes("ROUTE0")[(flow.src, flow.dst)]
            assert flow.label == "-".join(str(n) for n in route)

    def test_hidden_source_is_hidden_from_far_sources(self):
        spec = wigle_topology(include_hidden=True)
        assert link_quality(spec, STATION_S, 1) < 0.05


class TestRoofnet:
    def test_layout_size(self):
        spec = roofnet_topology()
        assert len(spec.positions) == 38

    def test_deterministic_for_seed(self):
        assert roofnet_topology(seed=3).positions == roofnet_topology(seed=3).positions
        assert roofnet_topology(seed=3).positions != roofnet_topology(seed=4).positions

    def test_connectivity_graph_is_connected(self):
        spec = roofnet_topology()
        graph = connectivity_from_positions(spec.positions)
        assert all(len(reached) == len(graph) for reached in hop_distances(graph).values())

    def test_khop_pairs_have_requested_lengths(self):
        spec = roofnet_topology()
        paths = pick_khop_pairs(spec, hop_counts=(3, 4, 5))
        assert [len(p) - 1 for p in paths] == [3, 4, 5]

    def test_scenario_labels_follow_paper_convention(self):
        scenario = roofnet_scenario(hop_counts=(3, 3, 4), include_hidden=False)
        labels = [f.label for f in scenario.flows]
        assert labels == ["3(1)", "3(2)", "4(1)"]

    def test_hidden_terminals_added_per_flow(self):
        scenario = roofnet_scenario(hop_counts=(3, 4), include_hidden=True)
        hidden = [f for f in scenario.flows if f.kind == "udp-saturating"]
        assert len(hidden) == 2
        # Hidden pairs never reuse stations that are on a measured path.
        on_paths = {
            node
            for flow in scenario.flows
            if flow.kind == "tcp"
            for node in scenario.routes("ROUTE0")[(flow.src, flow.dst)]
        }
        for flow in hidden:
            assert flow.src not in on_paths
