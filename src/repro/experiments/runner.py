"""Scenario assembly and execution shared by every experiment.

A figure's grid (see :mod:`repro.experiments.figures`) describes *what* to
run — a topology spec, a route set, which flows are active, which components
each layer installs — and this module turns that into a wired-up
:class:`~repro.topology.network.WirelessNetwork`, runs it, and collects
per-flow results.

Scenarios are **registry-driven**: the MAC scheme, routing strategy and
traffic kinds are looked up by name in the component registries
(:data:`repro.mac.registry.MAC_SCHEMES`,
:data:`repro.routing.registry.ROUTING_STRATEGIES`,
:data:`repro.traffic.registry.TRAFFIC_KINDS`) from the structured
``mac=``/``routing=``/``traffic=`` fields of :class:`ScenarioConfig` —
see :mod:`repro.spec` for the spec classes and
``python -m repro.experiments run --spec/--set`` for the CLI face.

The paper's figure legends use five scheme labels; ``scheme_label=`` is
a construction-time shorthand for the equivalent specs
(:data:`repro.spec.PAPER_SCHEMES`):

========  =========================  =============================
label     MAC scheme                 route used
========  =========================  =============================
``S``     ``dcf``                    the direct (shortest) path
``D``     ``dcf``                    the predetermined route set
``A``     ``afr``                    the predetermined route set
``R1``    ``ripple1`` (no aggr.)     the predetermined route set
``R16``   ``ripple`` (16-pkt aggr.)  the predetermined route set
========  =========================  =============================

A config built from a label and one built from the expanded specs are
the same object: equal, with bit-identical results and one sweep-cache
digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.metrics.flows import FlowResult, total_throughput_mbps
from repro.metrics.mos import VoipQuality
from repro.phy.error_models import BitErrorModel
from repro.routing.base import RouteNotFound, RoutingProtocol
from repro.routing.dynamic import AdaptiveEtxRouting
from repro.serialization import Wire
from repro.sim.units import seconds
from repro.spec import ScenarioConfig
from repro.topology.network import WirelessNetwork
from repro.topology.spec import FlowSpec


@dataclass
class ScenarioResult(Wire):
    """Per-flow results plus handy aggregates for one simulation run.

    Every field is required when decoding, so a cached payload that lost
    one is quarantined rather than served as an empty result.
    """

    config: ScenarioConfig
    flows: List[FlowResult]
    voip_quality: Dict[int, VoipQuality]
    events_processed: int

    @property
    def total_throughput_mbps(self) -> float:
        return total_throughput_mbps([f for f in self.flows if f.kind == "tcp"])

    @property
    def reordering_ratio(self) -> float:
        received = sum(f.packets_received for f in self.flows if f.kind == "tcp")
        reordered = sum(f.reordered for f in self.flows if f.kind == "tcp")
        return reordered / received if received else 0.0


def build_network(config: ScenarioConfig) -> Tuple[WirelessNetwork, object]:
    """Create the network, install the configured component stack.

    The MAC scheme and routing strategy come from the component
    registries, named by ``config.mac`` and ``config.routing``.

    With a live (non-static) ``config.mobility``, a non-adaptive routing
    protocol becomes the *fallback* of an
    :class:`~repro.routing.dynamic.AdaptiveEtxRouting` over the initial
    connectivity graph, and a mobility manager is installed that moves the
    radios and periodically re-estimates links so routes and forwarder
    lists track the changing topology.  A ``None`` or static spec leaves
    the build byte-for-byte identical to the fixed-placement path.

    Without live mobility the routes are fixed for the run, so the channel
    dispatches only to :func:`reachable_stations` (see
    :mod:`repro.phy.channel`, "Stations no route reaches").  Under live
    mobility the adaptive routes can run through any station, and every
    station is dispatched to.
    """
    from repro.routing.registry import ROUTING_STRATEGIES

    mac_spec, routing_spec = config.mac, config.routing
    network = WirelessNetwork(
        phy=config.phy,
        error_model=BitErrorModel(config.bit_error_rate),
        seed=config.seed,
    )
    network.add_nodes(config.topology.positions)
    routing_builder = ROUTING_STRATEGIES.lookup(routing_spec.name)
    routing = routing_builder(network, config, **routing_spec.params)
    mobile = config.mobility is not None and not config.mobility.is_static
    if mobile and not isinstance(routing, AdaptiveEtxRouting):
        routing = AdaptiveEtxRouting(
            network.connectivity_graph(),
            fallback=routing,
            max_forwarders=config.max_forwarders,
        )
    network.install_stack(mac_spec.name, routing, **mac_spec.params)
    network.install_transport()
    if mobile:
        network.install_mobility(config.mobility)
    else:
        network.channel.restrict_dispatch(reachable_stations(config, routing))
    return network, routing


def reachable_stations(config: ScenarioConfig, routing: RoutingProtocol) -> Set[int]:
    """The stations the active flows' traffic can make transmit or name in a frame.

    Starts from the active flows' end points.  For every station ``n``
    found and every end point ``d`` other than ``n``, it adds each station
    ``routing.route_decision(n, d, opportunistic)`` names, as next hop,
    forwarder or final destination, under both values of
    ``opportunistic``, until nothing is added; a pair without a route adds
    nothing.  A packet held by a station the set contains is routed from
    it towards an end point, and a MAC transmits only for its own queue or
    for a frame that names its station (:class:`~repro.mac.base.MacLayer`),
    so with routes fixed no other station ever transmits or is named.
    """
    endpoints = sorted({node for flow in _active_flows(config) for node in (flow.src, flow.dst)})
    reachable = set(endpoints)
    pending = list(endpoints)
    while pending:
        node = pending.pop()
        for dst in endpoints:
            if dst == node:
                continue
            for opportunistic in (False, True):
                try:
                    decision = routing.route_decision(node, dst, opportunistic)
                except RouteNotFound:
                    continue
                for named in (decision.next_hop, decision.final_dst, *decision.forwarder_list):
                    if named is not None and named not in reachable:
                        reachable.add(named)
                        pending.append(named)
    return reachable


def _active_flows(config: ScenarioConfig) -> List[FlowSpec]:
    if config.active_flows is None:
        return list(config.topology.flows)
    wanted = set(config.active_flows)
    return [flow for flow in config.topology.flows if flow.flow_id in wanted]


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build, run and summarise one scenario.

    Traffic is installed through the traffic-kind registry: each active
    flow's kind (its own ``FlowSpec.kind``, or the config's ``traffic``
    spec when that forces a single kind) resolves to an installer that
    wires the senders/receivers and returns a driver used for warmup
    resets and result summaries.
    """
    from repro.traffic.registry import TRAFFIC_KINDS

    network, _routing = build_network(config)
    duration_ns = seconds(config.duration_s)
    flows = _active_flows(config)
    traffic_spec = config.traffic
    drivers = []
    for flow in flows:
        kind = flow.kind if traffic_spec.per_flow else traffic_spec.name
        installer = TRAFFIC_KINDS.get(kind)
        if installer is None:
            raise ValueError(
                f"unknown flow kind {kind!r}; known: {TRAFFIC_KINDS.known_names()}"
            )
        drivers.append(installer(network, config, flow, **traffic_spec.params))
    if config.warmup_s > 0:
        # Let the scenario reach steady state, then zero every flow counter so
        # the summaries below cover only the measurement window (dividing
        # since-t=0 byte counts by duration_ns would inflate throughput).
        network.run_seconds(config.warmup_s)
        for driver in drivers:
            driver.reset_stats()
    network.run_seconds(config.duration_s)
    events_processed = network.sim.processed_events
    flow_results = [driver.summarize(duration_ns) for driver in drivers]
    qualities = [(driver.flow.flow_id, driver.quality()) for driver in drivers]
    network.release()
    return ScenarioResult(
        config=config,
        flows=[flow for flow in flow_results if flow is not None],
        voip_quality={flow_id: quality for flow_id, quality in qualities if quality is not None},
        events_processed=events_processed,
    )
