"""Per-flow result summaries used by the experiment harness and the reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.serialization import Wire
from repro.sim.units import ns_to_seconds

if TYPE_CHECKING:  # pragma: no cover - transport.udp imports repro.metrics
    from repro.transport.tcp import TcpSender, TcpSink
    from repro.transport.udp import UdpReceiver


@dataclass
class FlowResult(Wire):
    """Outcome of one flow over one simulation run."""

    flow_id: int
    kind: str
    src: int
    dst: int
    throughput_mbps: float
    packets_received: int = 0
    packets_sent: int = 0
    reordered: int = 0
    duplicates: int = 0
    mean_delay_ms: float = 0.0
    #: Transport-layer recovery counters (TCP flows; zero for UDP kinds).
    retransmissions: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    rto_backoffs: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def reordering_ratio(self) -> float:
        if self.packets_received == 0:
            return 0.0
        return self.reordered / self.packets_received


def summarize_tcp_flow(
    flow_id: int,
    src: int,
    dst: int,
    sink: TcpSink,
    duration_ns: int,
    sender: Optional[TcpSender] = None,
) -> FlowResult:
    """Build a :class:`FlowResult` from a TCP sink's (and sender's) counters."""
    throughput = sink.goodput_bps(duration_ns) / 1e6
    result = FlowResult(
        flow_id=flow_id,
        kind="tcp",
        src=src,
        dst=dst,
        throughput_mbps=throughput,
        packets_received=sink.stats.segments_received,
        reordered=sink.stats.reordered_segments,
        duplicates=sink.stats.duplicate_segments,
    )
    if sender is not None:
        result.packets_sent = sender.stats.segments_sent
        result.retransmissions = sender.stats.retransmissions
        result.fast_retransmits = sender.stats.fast_retransmits
        result.timeouts = sender.stats.timeouts
        result.rto_backoffs = sender.stats.rto_backoffs
    return result


def summarize_udp_flow(
    flow_id: int, src: int, dst: int, receiver: UdpReceiver, sent: int, duration_ns: int
) -> FlowResult:
    """Build a :class:`FlowResult` from a UDP receiver's counters."""
    stats = receiver.stats
    mean_delay_ms = (stats.delay_sum_ns / stats.received / 1e6) if stats.received else 0.0
    return FlowResult(
        flow_id=flow_id,
        kind="udp",
        src=src,
        dst=dst,
        throughput_mbps=receiver.throughput_bps(duration_ns) / 1e6,
        packets_received=receiver.stats.received,
        packets_sent=sent,
        duplicates=receiver.stats.duplicates,
        mean_delay_ms=mean_delay_ms,
    )


def total_throughput_mbps(results: Sequence[FlowResult]) -> float:
    """Sum of per-flow throughputs (the quantity most of the paper's figures plot)."""
    return sum(result.throughput_mbps for result in results)
