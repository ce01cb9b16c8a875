"""Cached route decisions against decisions computed from the routes afresh.

``RoutingProtocol.route_decision`` keeps one decision per ``(node, dst,
opportunistic)`` until the routes change.  The reference here builds each
decision straight from ``next_hop`` / ``forwarder_list``, which read the
protocol's paths on every call.
"""

import pytest

from repro.experiments.runner import ScenarioConfig, build_network
from repro.mac.base import RouteDecision
from repro.routing.base import RouteNotFound
from repro.routing.dynamic import AdaptiveEtxRouting
from repro.routing.shortest_path import ShortestPathRouting
from repro.spec import RoutingSpec
from repro.topology.roofnet import roofnet_scenario
from repro.topology.standard import fig1_topology, line_topology

TOPOLOGIES = {
    "line5": lambda: line_topology(5),
    "fig1": fig1_topology,
    "roofnet": lambda: roofnet_scenario(seed=7),
}

ROUTINGS = {
    "static": RoutingSpec("static"),
    "shortest_path": RoutingSpec("shortest_path", {"metric": "etx"}),
    "adaptive_etx": RoutingSpec("adaptive_etx"),
}


def reference(protocol, node, dst, opportunistic):
    """The decision computed from the protocol's paths, or None without a route."""
    try:
        if opportunistic:
            return RouteDecision(final_dst=dst, forwarder_list=protocol.forwarder_list(node, dst))
        return RouteDecision(final_dst=dst, next_hop=protocol.next_hop(node, dst))
    except RouteNotFound:
        return None


def cached(protocol, node, dst, opportunistic):
    try:
        return protocol.route_decision(node, dst, opportunistic)
    except RouteNotFound:
        return None


@pytest.mark.parametrize("routing", sorted(ROUTINGS))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_every_cached_decision_equals_a_fresh_one(topology, routing):
    config = ScenarioConfig(topology=TOPOLOGIES[topology](), routing=ROUTINGS[routing])
    _network, protocol = build_network(config)
    nodes = sorted(config.topology.positions)
    keys = [
        (node, dst, opportunistic)
        for opportunistic in (True, False)
        for node in nodes
        for dst in nodes
        if dst != node
    ]
    first = {key: cached(protocol, *key) for key in keys}
    # Asked again in another order, every key gets the decision it got first.
    for key in reversed(keys):
        assert cached(protocol, *key) is first[key]
    routed = 0
    for key in keys:
        assert first[key] == reference(protocol, *key), key
        routed += first[key] is not None
    assert routed > 0
    # Static routes reach only the flows' stations, so some pairs have none.
    if routing == "static":
        assert routed < len(keys)


def _line_graph(*edges):
    graph = {node: {} for node in range(4)}
    for a, b in edges:
        graph[a][b] = graph[b][a] = {"etx": 1.0, "hops": 1.0}
    return graph


def test_a_missing_route_is_not_cached():
    graph = _line_graph((0, 1), (1, 2))
    protocol = ShortestPathRouting(graph, metric="hops")
    with pytest.raises(RouteNotFound):
        protocol.route_decision(0, 3, False)
    graph[2][3] = graph[3][2] = {"etx": 1.0, "hops": 1.0}
    # No invalidate(): only a lookup that cached nothing sees the new edge.
    assert protocol.route_decision(0, 3, False).next_hop == 1


def test_update_graph_replaces_the_decisions_made_so_far():
    protocol = AdaptiveEtxRouting(_line_graph((0, 1), (1, 2), (2, 3)))
    assert protocol.route_decision(0, 3, False).next_hop == 1
    assert protocol.route_decision(0, 3, True).forwarder_list == (2, 1)
    protocol.update_graph(_line_graph((0, 2), (2, 3)))
    assert protocol.route_decision(0, 3, False).next_hop == 2
    assert protocol.route_decision(0, 3, True).forwarder_list == (2,)


def test_invalidate_replaces_the_decisions_made_so_far():
    graph = _line_graph((0, 1), (1, 2), (0, 2))
    protocol = ShortestPathRouting(graph, metric="hops")
    assert protocol.route_decision(0, 2, False).next_hop == 2
    del graph[0][2], graph[2][0]
    # An edit in place reaches the decisions only through invalidate().
    assert protocol.route_decision(0, 2, False).next_hop == 2
    protocol.invalidate()
    assert protocol.route_decision(0, 2, False).next_hop == 1
