"""Routing-protocol interfaces.

A routing protocol answers two questions for a node holding a packet for
destination ``dst`` (Section II of the paper splits a routing protocol
into route discovery / packet forwarding / route maintenance; this
interface is the *route discovery* output that the forwarding schemes
consume):

* ``next_hop(node, dst)`` — the single intended receiver used by
  predetermined and shortest-path forwarding;
* ``forwarder_list(node, dst)`` — the priority-ordered relay candidates
  used by the opportunistic schemes (closest-to-destination first, the
  destination itself excluded because it is implicitly the highest
  priority).

RIPPLE deliberately works with *any* forwarder selection (Section
III-B1); the experiments exercise it both with the paper's predetermined
ROUTE0/1/2 paths and with ETX-selected paths.

The network layer asks for a :class:`~repro.mac.base.RouteDecision` for
every packet at every hop, yet the answer changes only with the route
table.  So :meth:`RoutingProtocol.route_decision` keeps one decision per
``(node, dst, opportunistic)``, shared by every packet it routes (a
decision is frozen), until :meth:`RoutingProtocol.invalidate` drops them:
a protocol calls it whenever its routes change (a new graph, an added
path), and so must a caller that edits a protocol's table or graph in
place.  A missing route is not cached.  ``max_forwarders`` is fixed
after construction, since decisions already made keep the lists it cut.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mac.base import RouteDecision
from repro.routing.graph import Graph


class RouteNotFound(RuntimeError):
    """Raised when a protocol has no route from a node to a destination."""


class RoutingProtocol(abc.ABC):
    """Answers next-hop / forwarder-list queries for every node in a scenario."""

    #: Paper default: at most 5 forwarders on a path (Section III-B4).
    max_forwarders: int = 5

    def __init__(self) -> None:
        #: Decisions made so far, by ``(node, dst, opportunistic)`` (module notes).
        self._decisions: Dict[Tuple[int, int, bool], RouteDecision] = {}

    @abc.abstractmethod
    def path(self, src: int, dst: int) -> List[int]:
        """Full node sequence from ``src`` to ``dst`` inclusive."""

    def next_hop(self, node: int, dst: int) -> int:
        """The next node after ``node`` on the path towards ``dst``."""
        route = self.path(node, dst)
        if len(route) < 2:
            raise RouteNotFound(f"no next hop from {node} towards {dst}")
        return route[1]

    def forwarder_list(self, node: int, dst: int) -> Tuple[int, ...]:
        """Priority-ordered forwarders between ``node`` and ``dst``.

        The returned tuple excludes both end points and is ordered with the
        highest-priority forwarder (the one nearest the destination) first,
        matching the implicit MAC-header ordering of Section III-B2.  The
        list is truncated to :attr:`max_forwarders`.
        """
        route = self.path(node, dst)
        intermediate = route[1:-1]
        prioritised = list(reversed(intermediate))
        return tuple(prioritised[: self.max_forwarders])

    def update_graph(self, graph: Graph) -> None:
        """Accept a freshly re-estimated connectivity graph (mobility hook).

        Called periodically by the mobility subsystem after it rebuilds the
        ETX graph from current positions.  Protocols with predetermined
        routes (the paper's ROUTE0/1/2 tables) ignore it; graph-driven
        protocols swap in the new graph and :meth:`invalidate` their
        decisions so packets routed from now on see the new link state.
        """

    def invalidate(self) -> None:
        """Drop every cached route decision (after the routes changed)."""
        self._decisions.clear()

    def route_decision(self, node: int, dst: int, opportunistic: bool) -> RouteDecision:
        """Package the routing answer for the MAC, cached until :meth:`invalidate`."""
        key = (node, dst, opportunistic)
        decision = self._decisions.get(key)
        if decision is None:
            if opportunistic:
                decision = RouteDecision(
                    final_dst=dst,
                    next_hop=None,
                    forwarder_list=self.forwarder_list(node, dst),
                )
            else:
                decision = RouteDecision(final_dst=dst, next_hop=self.next_hop(node, dst))
            self._decisions[key] = decision
        return decision
