"""Connectivity graphs and the two shortest-path searches routing needs.

A connectivity graph is a plain adjacency dict, ``{node: {neighbour:
edge attributes}}``, the layout networkx's ``Graph`` keeps inside.  It is
undirected: an edge appears under both end points, and the two entries
share one attribute dict.

**Adjacency order is part of the contract.**  Both searches visit a
node's neighbours in insertion order, and that order decides between
equal-cost paths.  The builders insert every node first, then every edge
in a fixed pair order
(:func:`repro.routing.etx.build_connectivity_graph`,
:func:`repro.topology.roofnet.connectivity_from_positions`), so a graph,
and every route derived from it, depends only on its inputs.

:func:`shortest_path` gives, ties included, the path networkx 3.x's
``shortest_path(G, source, target, weight)`` gives on a ``Graph`` built in
the same order: a bidirectional breadth-first search without a weight
(``_bidirectional_pred_succ``) and a bidirectional Dijkstra with one
(``bidirectional_dijkstra``).  :func:`hop_distances` is the breadth-first
hop table (``all_pairs_shortest_path_length``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Tuple

#: ``{node: {neighbour: edge attributes}}``; see the module docstring.
Graph = Dict[int, Dict[int, Dict[str, float]]]

#: Search bookkeeping: each reached node's neighbour towards the side's root.
_Chain = Dict[int, Optional[int]]


class NoPath(LookupError):
    """No path joins the two nodes, or one of them is not in the graph."""


def shortest_path(
    graph: Graph, source: int, target: int, weight: Optional[str] = None
) -> List[int]:
    """Nodes of a shortest ``source``-``target`` path, both ends included.

    Without ``weight`` the path has the fewest hops.  With it, the path
    minimises the sum of that edge attribute; an edge without it counts 1.
    Raises :class:`NoPath` when no path exists or an endpoint is not in
    ``graph``.
    """
    if source not in graph or target not in graph:
        raise NoPath(f"node {source} or {target} is not in the graph")
    if source == target:
        return [source]
    if weight is None:
        return _bidirectional_bfs(graph, source, target)
    return _bidirectional_dijkstra(graph, source, target, weight)


def hop_distances(graph: Graph) -> Dict[int, Dict[int, int]]:
    """``table[a][b]``: hops on a shortest ``a``-``b`` path (0 for ``a``).

    A pair in different components has no entry.
    """
    table: Dict[int, Dict[int, int]] = {}
    for source in graph:
        hops = {source: 0}
        fringe = [source]
        level = 0
        while fringe:
            level += 1
            grown: List[int] = []
            for node in fringe:
                for neighbour in graph[node]:
                    if neighbour not in hops:
                        hops[neighbour] = level
                        grown.append(neighbour)
            fringe = grown
        table[source] = hops
    return table


def _bidirectional_bfs(graph: Graph, source: int, target: int) -> List[int]:
    # One level at a time, always growing the smaller fringe (the forward
    # one on a tie), and stopping at the first node both sides have reached.
    forward: _Chain = {source: None}
    reverse: _Chain = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            forward_fringe, meet = _grow(graph, forward_fringe, forward, reverse)
        else:
            reverse_fringe, meet = _grow(graph, reverse_fringe, reverse, forward)
        if meet is not None:
            return _join(forward, reverse, meet)
    raise NoPath(f"no path between {source} and {target}")


def _grow(
    graph: Graph, fringe: List[int], chain: _Chain, other: _Chain
) -> Tuple[List[int], Optional[int]]:
    """Expand one level of ``fringe``: the next fringe and the meeting node, if any."""
    grown: List[int] = []
    for node in fringe:
        for neighbour in graph[node]:
            if neighbour not in chain:
                chain[neighbour] = node
                grown.append(neighbour)
            if neighbour in other:
                return grown, neighbour
    return grown, None


def _bidirectional_dijkstra(graph: Graph, source: int, target: int, weight: str) -> List[int]:
    # Side 0 searches from the source and side 1 from the target, popping
    # alternately, side 0 first.  One counter orders equal distances in
    # both heaps by push order.  The best total and its meeting node move
    # only on a strictly smaller total.
    final: Tuple[Dict[int, float], Dict[int, float]] = ({}, {})
    seen: Tuple[Dict[int, float], Dict[int, float]] = ({source: 0}, {target: 0})
    chains: Tuple[_Chain, _Chain] = ({source: None}, {target: None})
    tie = count()
    heaps: Tuple[List[Tuple[float, int, int]], List[Tuple[float, int, int]]] = (
        [(0, next(tie), source)],
        [(0, next(tie), target)],
    )
    best: Optional[float] = None
    meet = source  # always replaced before the return below reads it
    side = 1
    while heaps[0] and heaps[1]:
        side = 1 - side
        distance, _, node = heappop(heaps[side])
        done = final[side]
        if node in done:
            continue
        done[node] = distance
        if node in final[1 - side]:
            return _join(chains[0], chains[1], meet)
        reached, reached_other, chain = seen[side], seen[1 - side], chains[side]
        for neighbour, attributes in graph[node].items():
            if neighbour in done:
                continue
            length = distance + attributes.get(weight, 1)
            if neighbour not in reached or length < reached[neighbour]:
                reached[neighbour] = length
                heappush(heaps[side], (length, next(tie), neighbour))
                chain[neighbour] = node
                if neighbour in reached_other:
                    total = length + reached_other[neighbour]
                    if best is None or total < best:
                        best, meet = total, neighbour
    raise NoPath(f"no path between {source} and {target}")


def _join(forward: _Chain, reverse: _Chain, meet: int) -> List[int]:
    """The source-to-target path through ``meet``, from both sides' chains."""
    path: List[int] = []
    node: Optional[int] = meet
    while node is not None:
        path.append(node)
        node = forward[node]
    path.reverse()
    node = reverse[meet]
    while node is not None:
        path.append(node)
        node = reverse[node]
    return path
