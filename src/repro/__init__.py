"""repro — a from-scratch reproduction of RIPPLE (ICDCS 2010).

"Opportunistic Routing for Interactive Traffic in Wireless Networks",
Tianji Li, Douglas Leith, Lili Qiu.

The package contains a complete discrete-event wireless network simulator
(802.11 DCF PHY/MAC, shadowing + i.i.d. BER channel, TCP Reno, traffic
generators), the RIPPLE protocol itself, the baselines the paper compares
against (predetermined routing over DCF, shortest-path routing, preExOR,
MCExOR, AFR), the paper's topologies, and an experiment harness that
regenerates every table and figure of the evaluation section.

Quick start::

    from repro import WirelessNetwork, StaticRouting, BitErrorModel
    from repro.traffic import FtpApplication
    from repro.transport import TcpSender, TcpSink

    net = WirelessNetwork(error_model=BitErrorModel(1e-6), seed=1)
    ...

See ``examples/quickstart.py`` for a complete runnable scenario and
``repro.experiments`` for the per-figure reproductions.
"""

from repro.mac import AfrMac, DcfMac, MacTiming, RouteDecision
from repro.core import RippleMac
from repro.mobility import MobilityManager, MobilitySpec
from repro.packet import Packet
from repro.phy import (
    PROPAGATION_MODELS,
    BitErrorModel,
    PhyParams,
    RayleighFading,
    RicianFading,
    ShadowingPropagation,
)
from repro.registry import Registry, RegistryError
from repro.routing import (
    AdaptiveEtxRouting,
    McExorMac,
    PreExorMac,
    RoutingProtocol,
    ShortestPathRouting,
    StaticRouting,
)
from repro.serialization import SpecError
from repro.sim import RandomStreams, Simulator, seconds, us
from repro.spec import MacSpec, RoutingSpec, ScenarioConfig, TopologyRef, TrafficSpec
from repro.topology import Node, WirelessNetwork

__version__ = "1.2.0"

__all__ = [
    "MacSpec",
    "Registry",
    "RegistryError",
    "RoutingSpec",
    "ScenarioConfig",
    "SpecError",
    "TopologyRef",
    "TrafficSpec",
    "AfrMac",
    "DcfMac",
    "MacTiming",
    "RouteDecision",
    "RippleMac",
    "MobilityManager",
    "MobilitySpec",
    "Packet",
    "BitErrorModel",
    "PhyParams",
    "PROPAGATION_MODELS",
    "ShadowingPropagation",
    "RayleighFading",
    "RicianFading",
    "AdaptiveEtxRouting",
    "McExorMac",
    "PreExorMac",
    "RoutingProtocol",
    "ShortestPathRouting",
    "StaticRouting",
    "RandomStreams",
    "Simulator",
    "seconds",
    "us",
    "Node",
    "WirelessNetwork",
    "__version__",
]
