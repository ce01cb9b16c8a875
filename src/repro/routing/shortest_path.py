"""Shortest-path routing (SPR) over the connectivity graph.

Two metrics are supported:

* ``"hops"`` — minimum hop count.  With the paper's Fig. 1 layout the
  direct (poor) 0→3 link exists, so hop-count SPR picks the one-hop route;
  this is the "S" scheme in Figs. 3 and 4.
* ``"etx"`` — minimum expected transmission count, which is what ExOR /
  MORE style forwarder selection uses; this yields the good multi-hop
  routes and is the default for auto-selected forwarder lists.

Both run the bidirectional Dijkstra search of :mod:`repro.routing.graph`
with the metric as the edge weight, so equal-cost routes are broken by
the graph's adjacency order.  A search runs only when
:meth:`~repro.routing.base.RoutingProtocol.route_decision` has no
decision cached for the pair, so a caller that edits :attr:`graph` in
place calls :meth:`~repro.routing.base.RoutingProtocol.invalidate`.
"""

from __future__ import annotations

from typing import List, Literal

from repro.routing.base import RouteNotFound, RoutingProtocol
from repro.routing.graph import Graph, NoPath, shortest_path

Metric = Literal["hops", "etx"]


class ShortestPathRouting(RoutingProtocol):
    """Bidirectional Dijkstra routes over a connectivity graph built from the PHY."""

    def __init__(self, graph: Graph, metric: Metric = "hops", max_forwarders: int = 5) -> None:
        if metric not in ("hops", "etx"):
            raise ValueError(f"unknown metric {metric!r}")
        super().__init__()
        self.graph = graph
        self.metric = metric
        self.max_forwarders = max_forwarders

    def path(self, src: int, dst: int) -> List[int]:
        try:
            return shortest_path(self.graph, src, dst, weight=self.metric)
        except NoPath as exc:
            raise RouteNotFound(f"no route from {src} to {dst}: {exc}") from exc

    def update_graph(self, graph: Graph) -> None:
        """Swap in a re-estimated connectivity graph (mobility hook)."""
        self.graph = graph
        self.invalidate()
