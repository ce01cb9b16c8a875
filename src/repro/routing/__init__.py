"""Routing and opportunistic forwarding: ETX, SPR, predetermined routes, preExOR, MCExOR."""

from repro.routing.agent import NetworkAgent
from repro.routing.base import RouteNotFound, RoutingProtocol
from repro.routing.dynamic import AdaptiveEtxRouting
from repro.routing.etx import EtxParams, build_connectivity_graph, link_etx
from repro.routing.mcexor import McExorMac
from repro.routing.preexor import PreExorMac
from repro.routing.registry import ROUTING_STRATEGIES, register_routing
from repro.routing.shortest_path import ShortestPathRouting
from repro.routing.static import StaticRouting

__all__ = [
    "ROUTING_STRATEGIES",
    "register_routing",
    "AdaptiveEtxRouting",
    "NetworkAgent",
    "RouteNotFound",
    "RoutingProtocol",
    "EtxParams",
    "build_connectivity_graph",
    "link_etx",
    "McExorMac",
    "PreExorMac",
    "ShortestPathRouting",
    "StaticRouting",
]
