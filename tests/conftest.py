"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import copy

import pytest

from repro.packet import Packet
from repro.phy.error_models import BitErrorModel
from repro.routing.static import StaticRouting
from repro.topology.network import WirelessNetwork


def build_chain_network(
    scheme: str,
    n_nodes: int = 4,
    hop_m: float = 115.0,
    ber: float = 1e-6,
    seed: int = 3,
    shadowing_deviation: float | None = None,
    **mac_kwargs,
):
    """A straight chain 0 - 1 - ... - (n-1) with a static end-to-end route.

    Returns ``(network, routing)``.  Used by MAC / forwarding / transport
    tests that need a real multi-hop substrate without the full experiment
    harness.
    """
    from repro.phy.propagation import ShadowingPropagation

    propagation = None
    if shadowing_deviation is not None:
        propagation = ShadowingPropagation(shadowing_deviation_db=shadowing_deviation)
    network = WirelessNetwork(
        error_model=BitErrorModel(ber), seed=seed, propagation=propagation
    )
    for i in range(n_nodes):
        network.add_node(i, (i * hop_m, 0.0))
    route = list(range(n_nodes))
    routing = StaticRouting({(0, n_nodes - 1): route})
    network.install_stack(scheme, routing, **mac_kwargs)
    return network, routing


def inject_packets(network, src: int, dst: int, count: int, size_bytes: int = 1000, flow_id: int = 1):
    """Push raw packets into a node's network layer (no transport involved)."""
    packets = []
    for seq in range(count):
        packet = Packet(
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            flow_id=flow_id,
            seq=seq,
            kind="data",
            created_ns=network.sim.now,
        )
        network.node(src).network.send(packet)
        packets.append(packet)
    return packets


def collect_deliveries(network, node_id: int):
    """Attach a list-collecting local-delivery callback at ``node_id``."""
    received = []
    network.node(node_id).network.set_local_delivery(received.append)
    return received


@pytest.fixture
def chain_factory():
    """Fixture exposing the chain builder to tests."""
    return build_chain_network


def removed_key_documents():
    """Scenario documents carrying a key that no longer exists: ``{id: (document, key)}``.

    ``max_aggregation`` lives in ``mac.params`` and a flow's controller in
    the scenario's ``transport``; the strict codec names either leftover.
    """
    from repro.spec import ScenarioConfig
    from repro.topology.standard import line_topology

    document = ScenarioConfig(topology=line_topology(2), duration_s=0.02).to_dict()
    with_flow_transport = copy.deepcopy(document)
    with_flow_transport["topology"]["flows"][0]["transport"] = "cubic"
    return {
        "max_aggregation": (dict(document, max_aggregation=8), "max_aggregation"),
        "flow-transport": (with_flow_transport, "transport"),
    }
