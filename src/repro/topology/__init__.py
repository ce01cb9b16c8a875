"""Scenario containers and the paper's topologies."""

from repro.topology.network import SchemeInfo, WirelessNetwork
from repro.topology.node import Node
from repro.topology.registry import TOPOLOGIES, build_topology, register_topology
from repro.topology.roofnet import roofnet_scenario, roofnet_topology
from repro.topology.spec import FlowSpec, TopologyError, TopologySpec
from repro.topology.standard import (
    fig1_topology,
    fig5a_topology,
    fig5b_topology,
    line_topology,
    voip_topology,
    web_topology,
)
from repro.topology.wigle import wigle_topology

__all__ = [
    "TOPOLOGIES",
    "build_topology",
    "register_topology",
    "voip_topology",
    "web_topology",
    "SchemeInfo",
    "WirelessNetwork",
    "Node",
    "FlowSpec",
    "TopologyError",
    "TopologySpec",
    "fig1_topology",
    "fig5a_topology",
    "fig5b_topology",
    "line_topology",
    "wigle_topology",
    "roofnet_topology",
    "roofnet_scenario",
]
