"""A Roofnet-like large topology (Fig. 11 / Fig. 12 of the paper).

The paper derives its largest topology from the MIT Roofnet GPS coordinate
file.  That file is not bundled here, so this module generates a synthetic
layout with the properties the evaluation actually uses:

* a few dozen rooftop nodes spread over roughly 1 km x 0.5 km with locally
  clustered density (Roofnet's nodes concentrate around a handful of
  blocks);
* enough multi-hop structure that station pairs 3, 4 and 5 relay hops
  apart exist (the paper "focuses on transmissions between stations that
  are 4 or 5 hops apart", plus 3-hop examples in Fig. 12);
* for each measured pair, two nearby stations can be designated as hidden
  terminals.

The layout is deterministic for a given seed, and helpers select the
k-hop source/destination pairs from the connectivity graph exactly the way
the experiments need them.  That graph is a
:data:`~repro.routing.graph.Graph` adjacency dict, and its breadth-first
searches (:func:`~repro.routing.graph.shortest_path`,
:func:`~repro.routing.graph.hop_distances`) pick the pairs, their relay
paths and the hidden terminals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.routing.graph import Graph, hop_distances, shortest_path
from repro.topology.spec import FlowSpec, TopologySpec

#: Cluster centres (metres) roughly mimicking Roofnet's block structure.
_CLUSTER_CENTRES: List[Tuple[float, float]] = [
    (100.0, 140.0),
    (300.0, 260.0),
    (510.0, 170.0),
    (720.0, 300.0),
    (930.0, 200.0),
    (620.0, 460.0),
    (340.0, 480.0),
]
_NODES_PER_CLUSTER = 5
_CLUSTER_SPREAD_M = 60.0
#: A few isolated rooftops that bridge the clusters and keep the graph connected.
_BRIDGE_NODES: List[Tuple[float, float]] = [(210.0, 360.0), (470.0, 330.0), (820.0, 400.0)]


def roofnet_topology(seed: int = 7) -> TopologySpec:
    """Generate the synthetic Roofnet-like layout (38 nodes, ~1.5 km x 1 km)."""
    # Layout generation draws only from this function's own ``seed`` parameter,
    # which is part of the topology's identity (the generated positions are what
    # the sweep cache hashes).  Routing it through a scenario's RandomStreams
    # would change every committed Roofnet layout and couple the placement to
    # the *simulation* seed, which must stay free to vary per replication.
    # The source rules' ALLOWED table (tests/analysis/test_source_rules.py) counts
    # this one generator.
    rng = np.random.default_rng(seed)
    positions: Dict[int, Tuple[float, float]] = {}
    node_id = 0
    for centre_x, centre_y in _CLUSTER_CENTRES:
        for _ in range(_NODES_PER_CLUSTER):
            x = float(centre_x + rng.normal(0.0, _CLUSTER_SPREAD_M))
            y = float(centre_y + rng.normal(0.0, _CLUSTER_SPREAD_M))
            positions[node_id] = (x, y)
            node_id += 1
    for x, y in _BRIDGE_NODES:
        positions[node_id] = (x, y)
        node_id += 1
    return TopologySpec(
        name="roofnet",
        positions=positions,
        flows=[],
        route_sets={},
        description="Synthetic Roofnet-like topology (Fig. 11 substitute).",
    ).validate()


def connectivity_from_positions(
    positions: Dict[int, Tuple[float, float]], good_link_m: float = 160.0
) -> Graph:
    """Geometric connectivity graph: edges between nodes within ``good_link_m``.

    This is only used to *choose* the measured pairs and their relay paths;
    the simulation itself uses the full shadowing channel.  Nodes enter in
    ``positions`` order and edges in sorted-pair order; each edge carries
    its ``distance`` (metres).
    """
    graph: Graph = {node: {} for node in positions}
    nodes = sorted(positions)
    for i, a in enumerate(nodes):
        ax, ay = positions[a]
        for b in nodes[i + 1 :]:
            bx, by = positions[b]
            distance = ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5
            if distance <= good_link_m:
                graph[a][b] = graph[b][a] = {"distance": distance}
    return graph


def pick_khop_pairs(
    spec: TopologySpec,
    hop_counts: Tuple[int, ...] = (3, 3, 4, 4, 5, 5),
    good_link_m: float = 160.0,
) -> List[List[int]]:
    """Pick one shortest path per requested hop count (Fig. 12's 3(1), 3(2), ... labels).

    Pairs are chosen deterministically: for each requested hop count the
    lexicographically smallest (src, dst) pair at exactly that distance is
    used, skipping pairs already taken.
    """
    graph = connectivity_from_positions(spec.positions, good_link_m)
    lengths = hop_distances(graph)
    used: set[Tuple[int, int]] = set()
    chosen: List[List[int]] = []
    for hops in hop_counts:
        candidate: Optional[Tuple[int, int]] = None
        for src in sorted(lengths):
            for dst in sorted(lengths[src]):
                if src >= dst or lengths[src][dst] != hops:
                    continue
                if (src, dst) in used:
                    continue
                candidate = (src, dst)
                break
            if candidate:
                break
        if candidate is None:
            raise RuntimeError(f"no {hops}-hop pair exists in the generated Roofnet layout")
        used.add(candidate)
        chosen.append(shortest_path(graph, candidate[0], candidate[1]))
    return chosen


def roofnet_scenario(
    hop_counts: Tuple[int, ...] = (3, 3, 4, 4, 5, 5),
    include_hidden: bool = False,
    seed: int = 7,
) -> TopologySpec:
    """The Fig. 12 measurement scenario: k-hop pairs, optionally with hidden terminals.

    Each measured flow gets a predetermined route along its shortest path;
    when ``include_hidden`` is set, two stations near (but not on) each
    path are turned into a saturating one-hop UDP pair, mirroring "two more
    nearby stations are selected to act as the hidden terminals".
    """
    spec = roofnet_topology(seed=seed)
    paths = pick_khop_pairs(spec, hop_counts)
    flows: List[FlowSpec] = []
    routes: Dict[Tuple[int, int], List[int]] = {}
    counts: Dict[int, int] = {}
    for index, path in enumerate(paths):
        hops = len(path) - 1
        counts[hops] = counts.get(hops, 0) + 1
        label = f"{hops}({counts[hops]})"
        src, dst = path[0], path[-1]
        flows.append(FlowSpec(flow_id=index + 1, src=src, dst=dst, kind="tcp", label=label))
        routes[(src, dst)] = list(path)
    if include_hidden:
        on_paths = {node for path in paths for node in path}
        spare = [node for node in spec.node_ids if node not in on_paths]
        graph = connectivity_from_positions(spec.positions)
        distances = hop_distances(graph)
        hidden_id = 200
        for index, path in enumerate(paths):
            destination = path[-1]
            # Hidden source: a spare node near the destination but at least two
            # (geometric) hops from the flow's source, so the source cannot hear it.
            candidates = sorted(spare, key=lambda node: distances[node].get(destination, 99))
            if len(candidates) < 2:
                break
            hidden_src, hidden_dst = candidates[0], candidates[1]
            spare = [node for node in spare if node not in (hidden_src, hidden_dst)]
            flows.append(
                FlowSpec(
                    flow_id=hidden_id + index,
                    src=hidden_src,
                    dst=hidden_dst,
                    kind="udp-saturating",
                    label=f"hidden-{index + 1}",
                )
            )
            if hidden_dst in distances[hidden_src]:
                routes[(hidden_src, hidden_dst)] = shortest_path(graph, hidden_src, hidden_dst)
            else:
                routes[(hidden_src, hidden_dst)] = [hidden_src, hidden_dst]
    spec.flows = flows
    spec.route_sets = {"ROUTE0": routes}
    return spec.validate()
