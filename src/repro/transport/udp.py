"""Minimal UDP endpoints.

VoIP streams (Section IV-E) and the saturating "hidden" background flows
(Figs. 5(b), 10 and 12) are carried over UDP: no retransmission, no
congestion control, just datagrams whose delivery and delay statistics
are recorded at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.metrics.mos import WIRELESS_DELAY_BUDGET_MS
from repro.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.units import ns_to_seconds


@dataclass(slots=True)
class UdpDatagram:
    """Transport payload attached to a UDP packet."""

    flow_id: int
    seq: int


@dataclass(slots=True)
class UdpStats:
    """Sender/receiver counters for one UDP flow.

    A receiver keeps no per-datagram delay: ``delay_sum_ns`` is the sum of
    the one-way delays of the ``received`` datagrams, and ``on_time``
    counts those within the paper's wireless delay budget, which is all
    the flow summary and the E-model read.
    """

    sent: int = 0
    sent_bytes: int = 0
    received: int = 0
    received_bytes: int = 0
    duplicates: int = 0
    delay_sum_ns: int = 0
    on_time: int = 0


class UdpSender:
    """Datagram source for one flow."""

    __slots__ = ("sim", "host", "flow_id", "dst", "stats", "_next_seq")

    def __init__(self, sim: Simulator, host: "TransportHost", flow_id: int, dst: int) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.dst = dst
        self.stats = UdpStats()
        self._next_seq = 0

    def reset_stats(self) -> None:
        """Zero the counters (sequence numbering continues where it was)."""
        self.stats = UdpStats()

    def send(self, size_bytes: int) -> Packet:
        """Emit one datagram of ``size_bytes`` towards the destination."""
        packet = Packet(
            src=self.host.node_id,
            dst=self.dst,
            size_bytes=size_bytes,
            flow_id=self.flow_id,
            seq=self._next_seq,
            kind="udp",
            created_ns=self.sim.now,
            payload=UdpDatagram(flow_id=self.flow_id, seq=self._next_seq),
        )
        self._next_seq += 1
        self.stats.sent += 1
        self.stats.sent_bytes += size_bytes
        self.host.send(packet)
        return packet


class UdpReceiver:
    """Datagram sink recording delivery, duplicates and one-way delay."""

    __slots__ = ("sim", "host", "flow_id", "stats", "_seen", "_on_receive", "_window_start_ns")

    def __init__(
        self,
        sim: Simulator,
        host: "TransportHost",
        flow_id: int,
        on_receive: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.stats = UdpStats()
        self._seen: set[int] = set()
        self._on_receive = on_receive
        self._window_start_ns = -1
        host.register_flow(flow_id, self._on_packet)

    def reset_stats(self) -> None:
        """Zero the counters while keeping duplicate-detection state.

        From now on only datagrams created after this instant are counted:
        one sent before it was counted by a sender that was reset too.
        """
        self.stats = UdpStats()
        self._window_start_ns = self.sim.now

    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if not isinstance(payload, UdpDatagram):
            return
        stats = self.stats if packet.created_ns > self._window_start_ns else UdpStats()
        if payload.seq in self._seen:
            stats.duplicates += 1
            return
        self._seen.add(payload.seq)
        stats.received += 1
        stats.received_bytes += packet.size_bytes
        delay = self.sim.now - packet.created_ns
        stats.delay_sum_ns += delay
        if delay / 1e6 <= WIRELESS_DELAY_BUDGET_MS:
            stats.on_time += 1
        if self._on_receive is not None:
            self._on_receive(packet)

    def throughput_bps(self, duration_ns: int) -> float:
        """Received bytes per second of simulated time, in bits/s."""
        if duration_ns <= 0:
            return 0.0
        return self.stats.received_bytes * 8 / ns_to_seconds(duration_ns)
