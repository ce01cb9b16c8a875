"""The graph searches give networkx's paths, ties included.

networkx is the oracle here and nowhere else: this is the only tier-1
module that imports it, and it is skipped where networkx is not
installed.  Each oracle graph is an ``nx.Graph`` built in the same node
and edge order as the adjacency dict under test, because that order
decides between equal-cost paths.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.space import packaged_trace_fixture
from repro.experiments.runner import build_network
from repro.routing.etx import EtxParams, link_etx
from repro.routing.graph import NoPath, hop_distances, shortest_path
from repro.spec import ScenarioConfig, TopologyRef
from repro.topology.registry import TOPOLOGIES
from repro.topology.roofnet import connectivity_from_positions, roofnet_topology

nx = pytest.importorskip("networkx")

WEIGHTS = (None, "hops", "etx")
#: Repeated and integral values make equal-cost paths common.
ETX_VALUES = (0.5, 1, 1, 2, 3)


@st.composite
def drawn_graphs(draw):
    """``(node order, edges)``: 1-14 nodes, any labels, edges in any order and orientation."""
    labels = draw(st.lists(st.integers(-5, 60), min_size=1, max_size=14, unique=True))
    order = draw(st.permutations(labels))
    pairs = list(itertools.combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        edges.append((a, b, {"etx": draw(st.sampled_from(ETX_VALUES)), "hops": 1}))
    return order, edges


def build_both(order, edges):
    """The oracle ``nx.Graph`` and the adjacency dict, built in the same order."""
    oracle = nx.Graph()
    graph = {}
    for node in order:
        oracle.add_node(node)
        graph[node] = {}
    for a, b, attributes in edges:
        oracle.add_edge(a, b, **attributes)
        graph[a][b] = graph[b][a] = dict(attributes)
    return oracle, graph


def assert_same_adjacency(oracle, graph):
    """Same nodes, neighbours and edge attributes, in the same order."""
    assert list(graph) == list(oracle.adj)
    for node, neighbours in oracle.adj.items():
        assert list(graph[node].items()) == list(neighbours.items())


def assert_searches_agree(oracle, graph):
    for source, target in itertools.product(graph, repeat=2):
        for weight in WEIGHTS:
            try:
                expected = nx.shortest_path(oracle, source, target, weight=weight)
            except nx.NetworkXNoPath:
                with pytest.raises(NoPath):
                    shortest_path(graph, source, target, weight)
            else:
                assert shortest_path(graph, source, target, weight) == expected, (
                    source,
                    target,
                    weight,
                )
    assert hop_distances(graph) == dict(nx.all_pairs_shortest_path_length(oracle))


class TestDrawnGraphs:
    @settings(max_examples=150, deadline=None)
    @given(drawn_graphs())
    def test_searches_equal_networkx(self, drawn):
        oracle, graph = build_both(*drawn)
        assert_searches_agree(oracle, graph)

    def test_missing_endpoint_raises(self):
        graph = {0: {1: {"etx": 1.0}}, 1: {0: {"etx": 1.0}}}
        for weight in WEIGHTS:
            with pytest.raises(NoPath):
                shortest_path(graph, 0, 7, weight)
            with pytest.raises(NoPath):
                shortest_path(graph, 7, 7, weight)

    def test_source_is_target(self):
        assert shortest_path({3: {}}, 3, 3) == [3]
        assert shortest_path({3: {}}, 3, 3, "etx") == [3]


def channel_oracle(channel):
    """The connectivity graph as an ``nx.Graph``, in radio then radio-pair order."""
    params = EtxParams()
    oracle = nx.Graph()
    radios = channel.radios
    for radio in radios:
        oracle.add_node(radio.node_id)
    for i, a in enumerate(radios):
        for b in radios[i + 1 :]:
            probability = channel.link_delivery_probability(a, b, params.probe_bits)
            if probability >= params.min_delivery_probability:
                oracle.add_edge(
                    a.node_id,
                    b.node_id,
                    delivery_probability=probability,
                    etx=link_etx(probability),
                    hops=1.0,
                    distance=channel.distance(a, b),
                )
    return oracle


def positions_oracle(positions, good_link_m=160.0):
    """The geometric graph as an ``nx.Graph``, in ``positions`` then sorted-pair order."""
    oracle = nx.Graph()
    oracle.add_nodes_from(positions)
    nodes = sorted(positions)
    for i, a in enumerate(nodes):
        ax, ay = positions[a]
        for b in nodes[i + 1 :]:
            bx, by = positions[b]
            distance = ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5
            if distance <= good_link_m:
                oracle.add_edge(a, b, distance=distance)
    return oracle


class TestRealGraphs:
    @pytest.mark.parametrize("name", list(TOPOLOGIES.names()) + ["trace"])
    @pytest.mark.parametrize("phy", [None, "low_rate"])
    def test_connectivity_graph(self, name, phy):
        if name == "trace":
            name = f"trace:{packaged_trace_fixture()}"
        network, _routing = build_network(ScenarioConfig(topology=TopologyRef(name), phy=phy))
        graph = network.connectivity_graph()
        oracle = channel_oracle(network.channel)
        assert_same_adjacency(oracle, graph)
        assert_searches_agree(oracle, graph)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_roofnet_positions(self, seed):
        positions = roofnet_topology(seed).positions
        graph = connectivity_from_positions(positions)
        oracle = positions_oracle(positions)
        assert_same_adjacency(oracle, graph)
        assert_searches_agree(oracle, graph)
