"""The traffic kind registry: how a flow spec becomes live senders/receivers.

Each entry is an installer ``install(network, config, flow, **params) ->
FlowDriver`` that wires one flow's application, transport sender and
receiver into the network and returns a :class:`FlowDriver` handle the
scenario runner uses uniformly: ``reset_stats()`` at the warmup boundary,
``summarize(duration_ns)`` for the per-flow :class:`FlowResult`, and
``quality()`` for kinds (VoIP) that also score perceived quality.

Built-in kinds match :class:`~repro.topology.spec.FlowSpec.kind`:
``tcp`` (long-lived FTP over TCP Reno; alias ``ftp``), ``web`` (ON/OFF
short transfers), ``udp-saturating`` (alias ``cbr``) and ``voip``.
``params`` come from the scenario's :class:`~repro.spec.TrafficSpec`, so
e.g. ``--set traffic=voip`` re-flavours every active flow without a new
experiment module.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.flows import FlowResult, summarize_tcp_flow, summarize_udp_flow
from repro.registry import Registry

#: The registry of traffic-kind installers.
TRAFFIC_KINDS = Registry("traffic kind")

#: Spec name meaning "drive each flow according to its FlowSpec.kind".
PER_FLOW_KINDS = "flows"


def register_traffic(name: str):
    """Decorator registering ``install(network, config, flow, **params)``."""
    return TRAFFIC_KINDS.register(name)


class FlowDriver:
    """Handle to one installed flow: stats reset and result summarising."""

    def __init__(self, flow) -> None:
        self.flow = flow

    def reset_stats(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def summarize(self, duration_ns: int) -> Optional[FlowResult]:
        """The flow's :class:`FlowResult` for the measurement window."""
        raise NotImplementedError

    def quality(self):
        """Perceived-quality summary (VoIP MoS), or None for other kinds."""
        return None


class _TcpDriver(FlowDriver):
    def __init__(self, flow, sender, sink, app=None) -> None:
        super().__init__(flow)
        self.sender = sender
        self.sink = sink
        self.app = app

    def reset_stats(self) -> None:
        self.sink.reset_stats()
        reset = getattr(self.sender, "reset_stats", None)
        if reset is not None:
            reset()

    def summarize(self, duration_ns: int) -> FlowResult:
        flow = self.flow
        return summarize_tcp_flow(
            flow.flow_id, flow.src, flow.dst, self.sink, duration_ns, sender=self.sender
        )


class _UdpDriver(FlowDriver):
    def __init__(self, flow, sender, receiver, source=None) -> None:
        super().__init__(flow)
        self.sender = sender
        self.receiver = receiver
        self.source = source

    def reset_stats(self) -> None:
        self.receiver.reset_stats()
        self.sender.reset_stats()

    def summarize(self, duration_ns: int) -> FlowResult:
        flow = self.flow
        return summarize_udp_flow(
            flow.flow_id, flow.src, flow.dst, self.receiver, self.sender.stats.sent, duration_ns
        )


class _VoipDriver(_UdpDriver):
    def __init__(self, flow, sender, receiver, voip) -> None:
        super().__init__(flow, sender, receiver)
        self.voip = voip

    def reset_stats(self) -> None:
        super().reset_stats()
        self.voip.reset_stats()

    def quality(self):
        return self.voip.quality()


def _controller_for(config, flow):
    """Resolve the congestion controller for one TCP-backed flow.

    The flow's own :class:`~repro.topology.spec.FlowSpec.transport` beats
    the scenario-level :class:`~repro.spec.TransportSpec`.  Returns None
    when nothing is configured, so :class:`~repro.transport.tcp.TcpSender`
    constructs its default Reno without touching the registry.
    """
    from repro.transport.registry import build_controller

    name = getattr(flow, "transport", None)
    params: dict = {}
    if name is None:
        spec = getattr(config, "transport", None)
        if spec is None:
            return None
        name, params = spec.name, spec.params
    return build_controller(str(name), **params)


@register_traffic("tcp")
def _install_tcp(network, config, flow) -> FlowDriver:
    """A long-lived FTP transfer over TCP (the paper's bulk flows; Reno default)."""
    from repro.traffic.ftp import FtpApplication
    from repro.transport.tcp import TcpSender, TcpSink

    src_host = network.node(flow.src).transport
    dst_host = network.node(flow.dst).transport
    sender = TcpSender(
        network.sim,
        src_host,
        flow.flow_id,
        flow.dst,
        awnd_segments=config.tcp_window,
        controller=_controller_for(config, flow),
    )
    sink = TcpSink(network.sim, dst_host, flow.flow_id, peer=flow.src)
    app = FtpApplication(sender)
    app.start()
    return _TcpDriver(flow, sender, sink, app)


@register_traffic("web")
def _install_web(network, config, flow) -> FlowDriver:
    """ON/OFF web transfers: Pareto sizes separated by exponential think times."""
    from repro.traffic.web import WebFlow
    from repro.transport.tcp import TcpSender, TcpSink

    src_host = network.node(flow.src).transport
    dst_host = network.node(flow.dst).transport
    sender = TcpSender(
        network.sim,
        src_host,
        flow.flow_id,
        flow.dst,
        awnd_segments=config.tcp_window,
        controller=_controller_for(config, flow),
    )
    sink = TcpSink(network.sim, dst_host, flow.flow_id, peer=flow.src)
    web = WebFlow(network.sim, sender, network.rng.stream_for("web", flow.flow_id))
    web.start()
    return _TcpDriver(flow, sender, sink, web)


@register_traffic("udp-saturating")
def _install_udp_saturating(network, config, flow) -> FlowDriver:
    """A UDP source that keeps the sender's MAC queue saturated."""
    from repro.traffic.cbr import SaturatingSource
    from repro.transport.udp import UdpReceiver, UdpSender

    src_host = network.node(flow.src).transport
    dst_host = network.node(flow.dst).transport
    sender = UdpSender(network.sim, src_host, flow.flow_id, flow.dst)
    receiver = UdpReceiver(network.sim, dst_host, flow.flow_id)
    source = SaturatingSource(network.sim, sender, network.node(flow.src).mac)
    source.start()
    return _UdpDriver(flow, sender, receiver, source)


@register_traffic("voip")
def _install_voip(network, config, flow) -> FlowDriver:
    """A 96 kb/s on-off VoIP stream scored with the E-model (Table III)."""
    from repro.traffic.voip import VoipFlow
    from repro.transport.udp import UdpReceiver, UdpSender

    src_host = network.node(flow.src).transport
    dst_host = network.node(flow.dst).transport
    sender = UdpSender(network.sim, src_host, flow.flow_id, flow.dst)
    receiver = UdpReceiver(network.sim, dst_host, flow.flow_id)
    voip = VoipFlow(
        network.sim,
        sender,
        receiver,
        network.rng.stream_for("voip", flow.flow_id),
    )
    voip.start()
    return _VoipDriver(flow, sender, receiver, voip)


class _PoissonDriver(_UdpDriver):
    def reset_stats(self) -> None:
        super().reset_stats()
        self.source.reset_stats()


@register_traffic("poisson")
def _install_poisson(
    network,
    config,
    flow,
    *,
    arrival_rate_hz: float = 4.0,
    mean_holding_s: float = 0.5,
    bitrate_bps: float = 400_000.0,
    packet_interval_ms: float = 10.0,
) -> FlowDriver:
    """Poisson session arrivals with exponential holding times over UDP (M/M/∞)."""
    from repro.traffic.poisson import PoissonFlow
    from repro.transport.udp import UdpReceiver, UdpSender

    src_host = network.node(flow.src).transport
    dst_host = network.node(flow.dst).transport
    sender = UdpSender(network.sim, src_host, flow.flow_id, flow.dst)
    receiver = UdpReceiver(network.sim, dst_host, flow.flow_id)
    source = PoissonFlow(
        network.sim,
        sender,
        network.rng.stream_for("poisson", flow.flow_id),
        arrival_rate_hz=float(arrival_rate_hz),
        mean_holding_s=float(mean_holding_s),
        bitrate_bps=float(bitrate_bps),
        packet_interval_ms=float(packet_interval_ms),
    )
    source.start()
    return _PoissonDriver(flow, sender, receiver, source)


TRAFFIC_KINDS.alias("ftp", "tcp")
TRAFFIC_KINDS.alias("cbr", "udp-saturating")
