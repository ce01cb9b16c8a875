"""Per-node transport multiplexer.

One :class:`TransportHost` lives on each node.  It registers itself as the
network agent's local-delivery callback and dispatches incoming packets to
the transport endpoint (TCP sender, TCP sink, UDP receiver, ...) that owns
the packet's flow id.  Outgoing packets from any endpoint funnel through
:meth:`send`, which hands them to the network layer.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.packet import Packet
from repro.routing.agent import NetworkAgent


class TransportHost:
    """Flow-id based dispatch between the network layer and transport endpoints."""

    __slots__ = ("node_id", "network", "_handlers", "undelivered")

    def __init__(self, node_id: int, network: NetworkAgent) -> None:
        self.node_id = node_id
        self.network = network
        self._handlers: Dict[int, List[Callable[[Packet], None]]] = {}
        self.undelivered: int = 0
        network.set_local_delivery(self.receive)

    def register_flow(self, flow_id: int, handler: Callable[[Packet], None]) -> None:
        """Register a callback for packets of ``flow_id`` addressed to this node."""
        self._handlers.setdefault(flow_id, []).append(handler)

    def send(self, packet: Packet) -> bool:
        """Hand an outgoing packet to the network layer."""
        return self.network.send(packet)

    def receive(self, packet: Packet) -> None:
        """Network-layer callback: dispatch an incoming packet by flow id."""
        handlers = self._handlers.get(packet.flow_id)
        if not handlers:
            self.undelivered += 1
            return
        for handler in handlers:
            handler(packet)
