"""Route maintenance under mobility: live ETX routes with a static fallback.

Predetermined routes (the paper's ROUTE0/1/2 tables) assume the topology
they were written for; once nodes move, a path can silently rot.
:class:`AdaptiveEtxRouting` is the route-maintenance half the paper
leaves to "any routing protocol": it computes minimum-ETX paths over the
*current* connectivity graph (a :data:`~repro.routing.graph.Graph`
adjacency dict) and, each time the mobility subsystem
re-estimates links (:meth:`update_graph`), drops its cached routes so
subsequent packets — and the forwarder lists the opportunistic MACs
derive from them — follow the new link state.

A fallback protocol (typically the scenario's :class:`StaticRouting`
table) answers for node pairs the current graph cannot connect, so a
momentary partition degrades to the predetermined path instead of a
routing failure.
"""

from __future__ import annotations

from typing import List, Optional

from repro.routing.base import RouteNotFound, RoutingProtocol
from repro.routing.graph import Graph
from repro.routing.shortest_path import Metric, ShortestPathRouting


class AdaptiveEtxRouting(ShortestPathRouting):
    """Minimum-ETX routes over a connectivity graph that changes mid-run.

    The bidirectional Dijkstra search is inherited from
    :class:`ShortestPathRouting`; this class adds the static fallback and
    an update counter for diagnostics.  Decisions taken from the fallback
    are cached like the others, so a change to the fallback's table
    reaches them at the next :meth:`update_graph` or
    :meth:`~repro.routing.base.RoutingProtocol.invalidate`.
    """

    def __init__(
        self,
        graph: Graph,
        fallback: Optional[RoutingProtocol] = None,
        metric: Metric = "etx",
        max_forwarders: int = 5,
    ) -> None:
        super().__init__(graph, metric=metric, max_forwarders=max_forwarders)
        self.fallback = fallback
        #: Number of re-estimated graphs accepted so far (tests/diagnostics).
        self.updates = 0

    def path(self, src: int, dst: int) -> List[int]:
        try:
            return super().path(src, dst)
        except RouteNotFound:
            if self.fallback is not None:
                return self.fallback.path(src, dst)
            raise

    def update_graph(self, graph: Graph) -> None:
        """Adopt a freshly re-estimated connectivity graph and forget old routes."""
        super().update_graph(graph)
        self.updates += 1
