"""Scenario assembly: nodes, channel and protocol stacks.

:class:`WirelessNetwork` is the top-level object an experiment (or a user
of the library) builds a scenario with:

.. code-block:: python

    net = WirelessNetwork(phy=HIGH_RATE_PHY, error_model=BitErrorModel(1e-6), seed=7)
    for node_id, position in enumerate(positions):
        net.add_node(node_id, position)
    routing = StaticRouting({(0, 3): [0, 1, 2, 3]})
    net.install_stack("ripple", routing)          # or "dcf", "afr", "preexor", ...
    net.install_transport()
    # ... attach traffic sources, then:
    net.run(seconds(10))

Schemes are looked up by name in :data:`repro.mac.registry.MAC_SCHEMES`
(``"dcf"`` — the D bars, ``"afr"`` — A, ``"ripple1"`` — R1 / mTXOP
without aggregation, ``"ripple"`` — R16, plus ``"preexor"`` and
``"mcexor"`` for the Section II comparison); register a new scheme with
:func:`repro.mac.registry.register_mac_scheme` and it becomes installable
here — and addressable from the declarative scenario layer — by name.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.mac.registry import MAC_SCHEMES, SchemeInfo
from repro.mac.timing import DEFAULT_TIMING, MacTiming
from repro.phy.channel import WirelessChannel
from repro.phy.error_models import BitErrorModel
from repro.phy.params import PhyParams
from repro.phy.propagation import PathLossModel
from repro.phy.registry import build_propagation
from repro.phy.radio import Radio
from repro.routing.agent import NetworkAgent
from repro.routing.base import RoutingProtocol
from repro.routing.etx import EtxParams, build_connectivity_graph
from repro.routing.graph import Graph
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import seconds
from repro.topology.node import Node


class WirelessNetwork:
    """A complete simulated wireless network (stations, channel, stacks)."""

    def __init__(
        self,
        phy: Optional[PhyParams] = None,
        propagation: Optional[PathLossModel] = None,
        error_model: Optional[BitErrorModel] = None,
        timing: Optional[MacTiming] = None,
        seed: int = 1,
    ) -> None:
        self.sim = Simulator()
        self.rng = RandomStreams(seed=seed)
        self.phy = phy or PhyParams()
        self.timing = timing or DEFAULT_TIMING
        # The propagation model comes from the PHY's named registry entry
        # (default "shadowing", which inherits the PHY's cull margin — so
        # max_deviation_sigmas stays sweepable from the config/spec layer).
        self.propagation = propagation or build_propagation(self.phy)
        self.error_model = error_model or BitErrorModel()
        self.channel = WirelessChannel(
            self.sim,
            self.phy,
            propagation=self.propagation,
            error_model=self.error_model,
            rng=self.rng,
        )
        self.nodes: Dict[int, Node] = {}
        self.scheme: Optional[SchemeInfo] = None
        self.routing: Optional[RoutingProtocol] = None
        self.mobility = None  # MobilityManager once install_mobility runs

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, position: Tuple[float, float]) -> Node:
        """Create a station with a radio at ``position`` (metres)."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        node = Node(node_id=node_id, position=position)
        node.radio = Radio(node_id, node.position, self.channel)
        self.nodes[node_id] = node
        return node

    def add_nodes(self, positions: Dict[int, Tuple[float, float]]) -> None:
        """Create several stations at once from a {node_id: position} mapping."""
        for node_id, position in positions.items():
            self.add_node(node_id, position)

    def install_stack(self, scheme: str, routing: RoutingProtocol, **mac_kwargs) -> None:
        """Create the MAC + network agent of ``scheme`` on every node."""
        info = MAC_SCHEMES.get(scheme)
        if info is None:
            raise ValueError(f"unknown scheme {scheme!r}; known: {sorted(MAC_SCHEMES)}")
        info.validate_kwargs(mac_kwargs)
        self.scheme = info
        self.routing = routing
        for node in self.nodes.values():
            node.mac = info.factory(self, node, **mac_kwargs)
            # Wrapper schemes (rate_adapt) build some inner MAC and record the
            # routing style it actually consumes on the instance; plain
            # schemes fall through to their registry flag.
            opportunistic = getattr(node.mac, "opportunistic_routing", info.opportunistic)
            node.network = NetworkAgent(
                node.node_id, routing, node.mac, opportunistic=opportunistic
            )

    def install_transport(self) -> None:
        """Create a transport host (TCP/UDP dispatch) on every node."""
        from repro.transport.host import TransportHost

        for node in self.nodes.values():
            if node.network is None:
                raise RuntimeError("install_stack must be called before install_transport")
            node.transport = TransportHost(node.node_id, node.network)

    def install_mobility(self, spec) -> "object":
        """Attach a mobility subsystem described by a :class:`MobilitySpec`.

        Creates a :class:`~repro.mobility.manager.MobilityManager` fed from
        the dedicated ``"mobility"`` random stream, wires the periodic link
        re-estimation hook (rebuild the ETX graph, push it into the routing
        protocol via :meth:`refresh_routes`), and starts it.  A static spec
        installs a manager that schedules nothing, so static runs stay
        bit-identical to builds without mobility.

        Call after :meth:`install_stack` so re-estimation can reach the
        routing protocol.
        """
        from repro.mobility.manager import MobilityManager

        model = spec.build_model()
        manager = MobilityManager(
            self.sim,
            model,
            self.rng.stream("mobility"),
            update_interval_ns=seconds(spec.update_interval_s),
            move_node=self.move_node,
            mobile_nodes=spec.mobile_nodes,
        )
        if spec.reestimate_interval_s > 0:
            manager.add_reestimation(seconds(spec.reestimate_interval_s), self.refresh_routes)
        manager.start({node_id: node.position for node_id, node in self.nodes.items()})
        self.mobility = manager
        return manager

    def move_node(self, node_id: int, position: Tuple[float, float]) -> None:
        """Relocate one station (mobility tick or manual repositioning)."""
        self.nodes[node_id].move_to(position)

    def refresh_routes(self, params: Optional[EtxParams] = None) -> Graph:
        """Re-estimate links from current positions and refresh routes.

        This is the route-maintenance step of the mobility subsystem: the
        ETX connectivity graph is rebuilt from where the radios are *now*
        and handed to the routing protocol's ``update_graph`` hook, so both
        next-hop and opportunistic forwarder-list queries made afterwards
        reflect the new link state.
        """
        graph = self.connectivity_graph(params)
        if self.routing is not None:
            self.routing.update_graph(graph)
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def connectivity_graph(self, params: Optional[EtxParams] = None) -> Graph:
        """Connectivity/ETX graph used by SPR and forwarder selection.

        A :data:`~repro.routing.graph.Graph` adjacency dict built from where
        the radios are now; see :func:`~repro.routing.etx.build_connectivity_graph`.
        """
        return build_connectivity_graph(self.channel, params)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_ns: int) -> None:
        """Advance the simulation by ``duration_ns`` nanoseconds."""
        self.sim.run(until=self.sim.now + int(duration_ns))

    def run_seconds(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` seconds."""
        self.run(seconds(duration_s))

    def release(self) -> None:
        """Free what a finished run kept for drawing and routing; the counters stay.

        A finished network is cyclic garbage (stations, channel and MACs
        refer to each other), so only a full collection would free it.
        This drops at once the channel's plans and per-link streams
        (:meth:`~repro.phy.channel.WirelessChannel.release`), every
        station's backoff stream and buffer, the registry's ``mac``
        streams and the routing protocol's cached decisions.  Every
        counter stays readable.  A released network must not run again:
        its links and stations would restart their draws.
        """
        self.channel.release()
        for node in self.nodes.values():
            if node.mac is not None:
                node.mac.release()
        self.rng.forget("mac")
        if self.routing is not None:
            self.routing.invalidate()
