"""ETX metric, connectivity graph construction and shortest-path routing."""

import math

import pytest

from repro.phy.channel import WirelessChannel
from repro.phy.error_models import BitErrorModel
from repro.phy.params import PhyParams
from repro.phy.propagation import ShadowingPropagation
from repro.phy.radio import Radio
from repro.routing.base import RouteNotFound
from repro.routing.etx import EtxParams, build_connectivity_graph, link_etx
from repro.routing.shortest_path import ShortestPathRouting
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_channel(positions, ber=1e-6):
    sim = Simulator()
    channel = WirelessChannel(
        sim, PhyParams(), propagation=ShadowingPropagation(), error_model=BitErrorModel(ber),
        rng=RandomStreams(1),
    )
    for node_id, pos in enumerate(positions):
        Radio(node_id, pos, channel)
    return channel


class TestLinkEtx:
    def test_perfect_link(self):
        assert link_etx(1.0) == 1.0

    def test_half_link(self):
        assert link_etx(0.5) == pytest.approx(4.0)

    def test_dead_link(self):
        assert math.isinf(link_etx(0.0))

    def test_monotone(self):
        values = [link_etx(p) for p in (0.9, 0.7, 0.5, 0.3)]
        assert values == sorted(values)

    def test_asymmetric_link(self):
        # 1 / (p_f * p_r), De Couto et al.
        assert link_etx(0.5, 0.8) == pytest.approx(1.0 / (0.5 * 0.8))
        assert link_etx(0.8, 0.5) == pytest.approx(link_etx(0.5, 0.8))

    def test_asymmetric_reduces_to_symmetric(self):
        for p in (0.3, 0.5, 0.9, 1.0):
            assert link_etx(p, p) == pytest.approx(link_etx(p))

    def test_asymmetric_dead_direction(self):
        assert math.isinf(link_etx(0.9, 0.0))
        assert math.isinf(link_etx(0.0, 0.9))


class TestConnectivityGraph:
    def test_close_nodes_are_connected(self):
        channel = make_channel([(0, 0), (100, 0), (200, 0)])
        graph = build_connectivity_graph(channel)
        assert 1 in graph[0] and 2 in graph[1]

    def test_far_nodes_are_not_connected(self):
        channel = make_channel([(0, 0), (1500, 0)])
        graph = build_connectivity_graph(channel)
        assert 1 not in graph[0]

    def test_edges_carry_metrics(self):
        channel = make_channel([(0, 0), (100, 0)])
        graph = build_connectivity_graph(channel)
        data = graph[0][1]
        assert 0 < data["delivery_probability"] <= 1
        assert data["etx"] >= 1.0
        assert data["hops"] == 1.0
        assert data["distance"] == pytest.approx(100.0)

    def test_min_probability_threshold(self):
        channel = make_channel([(0, 0), (320, 0)])
        strict = build_connectivity_graph(channel, EtxParams(min_delivery_probability=0.5))
        lax = build_connectivity_graph(channel, EtxParams(min_delivery_probability=0.01))
        assert 1 not in strict[0]
        assert 1 in lax[0]


class TestShortestPathRouting:
    def positions(self):
        # A lossy direct link 0-2 exists alongside a reliable two-hop path 0-1-2.
        return [(0, 0), (130, 0), (260, 0)]

    def test_hop_metric_prefers_direct_link(self):
        graph = build_connectivity_graph(make_channel(self.positions()))
        routing = ShortestPathRouting(graph, metric="hops")
        assert routing.path(0, 2) == [0, 2]

    def test_etx_metric_prefers_reliable_relay(self):
        graph = build_connectivity_graph(make_channel(self.positions()))
        routing = ShortestPathRouting(graph, metric="etx")
        assert routing.path(0, 2) == [0, 1, 2]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            ShortestPathRouting({}, metric="latency")

    def test_missing_node_raises(self):
        graph = build_connectivity_graph(make_channel(self.positions()))
        routing = ShortestPathRouting(graph)
        with pytest.raises(RouteNotFound):
            routing.path(0, 99)

    def test_disconnected_raises(self):
        routing = ShortestPathRouting({0: {}, 1: {}})
        with pytest.raises(RouteNotFound):
            routing.path(0, 1)

    def test_cache_invalidation(self):
        graph = build_connectivity_graph(make_channel(self.positions()))
        routing = ShortestPathRouting(graph, metric="hops")
        assert routing.path(0, 2) == [0, 2]
        del graph[0][2], graph[2][0]
        routing.invalidate()
        assert routing.path(0, 2) == [0, 1, 2]

    def test_forwarder_list_from_etx_path(self):
        graph = build_connectivity_graph(make_channel([(0, 0), (115, 0), (230, 0), (345, 0)]))
        routing = ShortestPathRouting(graph, metric="etx")
        assert routing.forwarder_list(0, 3) == (2, 1)
