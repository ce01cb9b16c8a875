"""TCP at packet granularity (the NS-2 ``Agent/TCP`` + ``Agent/TCPSink`` model).

The paper's motivation hinges on how TCP's congestion control reacts to
the MAC layer underneath it:

* packet **re-ordering** (preExOR / MCExOR) produces duplicate ACKs, which
  trigger fast retransmit and halve the congestion window even though
  nothing was lost;
* packet **loss** (queue overflow at the 50-packet interface queue, or MAC
  retry exhaustion on bad links) triggers fast retransmit or — when the
  whole window is lost — a retransmission timeout and slow start;
* MAC-level **delay** inflates the RTT and therefore the pipe the window
  has to fill.

This module models exactly those mechanisms.  *Which* congestion control
responds is pluggable: the sender delegates window policy to a
:class:`~repro.transport.congestion.CongestionController` (Reno by
default, bit-identical to the original hard-coded machine; Tahoe, NewReno
and Cubic via ``TRANSPORT_SCHEMES``), while keeping the mechanics to
itself — sequence/window bookkeeping, duplicate-ACK counting at the wire,
Jacobson/Karn RTO estimation with exponential backoff, and go-back-N
resend after a timeout.  The cumulative-ACK sink acknowledges every
arriving segment (so out-of-order arrivals immediately generate duplicate
ACKs) and tracks re-ordering and goodput statistics.  Segments are
counted in MSS-sized packets, like NS-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.packet import Packet
from repro.sim.engine import Event, Simulator
from repro.sim.units import ms, ns_to_seconds, seconds
from repro.transport.congestion import CongestionController, RenoController

#: TCP acknowledgement packet size on the wire (bytes), as used in the paper's NS-2 setup.
TCP_ACK_BYTES = 40


@dataclass(slots=True)
class TcpSegment:
    """Transport payload attached to a data packet."""

    flow_id: int
    seq: int
    is_retransmission: bool = False


@dataclass(slots=True)
class TcpAck:
    """Transport payload attached to an ACK packet (cumulative acknowledgement)."""

    flow_id: int
    ack: int  # next expected segment sequence number


@dataclass(slots=True)
class TcpSenderStats:
    """Counters exposed by a TCP sender."""

    segments_sent: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    rto_backoffs: int = 0
    acks_received: int = 0
    duplicate_acks: int = 0


@dataclass(slots=True)
class TcpSinkStats:
    """Counters exposed by a TCP sink."""

    segments_received: int = 0
    duplicate_segments: int = 0
    reordered_segments: int = 0
    unique_bytes: int = 0
    in_order_bytes: int = 0
    acks_sent: int = 0
    first_arrival_ns: Optional[int] = None
    last_arrival_ns: Optional[int] = None


class TcpSender:
    """Reliable sender driving MSS-sized segments under a pluggable controller."""

    __slots__ = (
        "sim",
        "host",
        "flow_id",
        "src",
        "dst",
        "mss_bytes",
        "awnd",
        "stats",
        "controller",
        "next_seq",
        "highest_acked",
        "_app_bytes_available",
        "_infinite_source",
        "_send_timestamps",
        "_resend_next",
        "_recover_until",
        "srtt_ns",
        "rttvar_ns",
        "rto_ns",
        "min_rto_ns",
        "max_rto_ns",
        "_rto_event",
        "_backoff",
        "_completion_callbacks",
    )

    def __init__(
        self,
        sim: Simulator,
        host: "TransportHost",
        flow_id: int,
        dst: int,
        mss_bytes: int = 1000,
        awnd_segments: int = 64,
        initial_cwnd: float = 2.0,
        min_rto_ns: int = ms(200),
        initial_rto_ns: int = seconds(1),
        max_rto_ns: int = seconds(10),
        controller: Optional[CongestionController] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.src = host.node_id
        self.dst = dst
        self.mss_bytes = mss_bytes
        self.awnd = awnd_segments
        self.stats = TcpSenderStats()
        # Congestion state lives in the controller (Reno unless configured).
        self.controller = (controller if controller is not None else RenoController()).attach(
            awnd_segments, initial_cwnd
        )
        # Sequence state (in segments)
        self.next_seq = 0
        self.highest_acked = 0
        self._app_bytes_available = 0
        self._infinite_source = False
        self._send_timestamps: Dict[int, int] = {}
        # Go-back-N recovery after a timeout: everything below ``_recover_until``
        # that is still unacknowledged is resent in order, starting at
        # ``_resend_next``, before any new data goes out.
        self._resend_next = 0
        self._recover_until = 0
        # RTO state
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns: Optional[int] = None
        self.rto_ns = initial_rto_ns
        self.min_rto_ns = min_rto_ns
        self.max_rto_ns = max_rto_ns
        self._rto_event: Optional[Event] = None
        self._backoff = 1
        self._completion_callbacks: List[Callable[[], None]] = []
        host.register_flow(flow_id, self._on_packet)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send_forever(self) -> None:
        """Model an infinite (FTP-like) backlog."""
        self._infinite_source = True
        self._try_send()

    def send_bytes(self, nbytes: int) -> None:
        """Add ``nbytes`` of application data to the send buffer."""
        if nbytes <= 0:
            return
        self._app_bytes_available += int(nbytes)
        self._try_send()

    def on_transfer_complete(self, callback: Callable[[], None]) -> None:
        """Register a callback fired when every queued byte has been acknowledged."""
        self._completion_callbacks.append(callback)

    def reset_stats(self) -> None:
        """Zero the counters while keeping congestion and sequence state.

        Called at the warmup/measurement boundary so retransmission and
        timeout counters cover only the measurement window.
        """
        self.stats = TcpSenderStats()

    @property
    def transfer_complete(self) -> bool:
        """True when a finite transfer has been fully acknowledged."""
        if self._infinite_source:
            return False
        return self._app_bytes_available == 0 and self.highest_acked >= self.next_seq

    @property
    def flight_size(self) -> int:
        """Segments in flight (sent but not cumulatively acknowledged)."""
        return self.next_seq - self.highest_acked

    @property
    def window(self) -> int:
        """Usable window in segments."""
        return int(min(self.controller.cwnd, float(self.awnd)))

    # ------------------------------------------------------------------
    # Congestion state (delegated to the controller, read-only)
    # ------------------------------------------------------------------
    @property
    def cwnd(self) -> float:
        """Congestion window in segments (controller state)."""
        return self.controller.cwnd

    @property
    def ssthresh(self) -> float:
        """Slow-start threshold in segments (controller state)."""
        return self.controller.ssthresh

    @property
    def dupacks(self) -> int:
        """Consecutive duplicate ACKs seen since the last new ACK."""
        return self.controller.dupacks

    @property
    def recover(self) -> int:
        """Highest sequence outstanding when the current recovery began."""
        return self.controller.recover

    # ------------------------------------------------------------------
    # Sending machinery
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        limit = self.highest_acked + max(self.window, 1)
        # Post-timeout go-back-N: re-send the outstanding window in order
        # before transmitting anything new (mirrors slow-start retransmission
        # after an RTO in real stacks; without it a second hole would stall
        # the connection until another timeout).
        while self._resend_next < min(self._recover_until, limit):
            if self._resend_next >= self.highest_acked:
                self._transmit_segment(self._resend_next, is_retransmission=True)
            self._resend_next += 1
        while self.next_seq < limit:
            if not self._infinite_source:
                if self._app_bytes_available <= 0:
                    break
                self._app_bytes_available = max(0, self._app_bytes_available - self.mss_bytes)
            self._transmit_segment(self.next_seq, is_retransmission=False)
            self.next_seq += 1

    def _transmit_segment(self, seq: int, is_retransmission: bool) -> None:
        segment = TcpSegment(flow_id=self.flow_id, seq=seq, is_retransmission=is_retransmission)
        packet = Packet(
            src=self.src,
            dst=self.dst,
            size_bytes=self.mss_bytes,
            flow_id=self.flow_id,
            seq=seq,
            kind="tcp-data",
            created_ns=self.sim.now,
            payload=segment,
        )
        self.stats.segments_sent += 1
        if is_retransmission:
            self.stats.retransmissions += 1
            self._send_timestamps.pop(seq, None)  # Karn: never time retransmitted segments
        else:
            self._send_timestamps[seq] = self.sim.now
        self.host.send(packet)
        if self._rto_event is None:
            self._arm_rto()

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if not isinstance(payload, TcpAck):
            return
        self.stats.acks_received += 1
        ack = payload.ack
        if ack > self.highest_acked:
            self._on_new_ack(ack)
        elif ack == self.highest_acked:
            self._on_duplicate_ack(ack)
        self._try_send()
        self._check_completion()

    def _on_new_ack(self, ack: int) -> None:
        newly_acked = ack - self.highest_acked
        self._sample_rtt(ack)
        self.highest_acked = ack
        self._backoff = 1
        if self._resend_next < ack:
            self._resend_next = ack
        if self.controller.on_ack(ack, newly_acked, self.flight_size, self.sim.now, self.srtt_ns):
            # Partial ACK during recovery: retransmit the next hole.
            self._transmit_segment(self.highest_acked, is_retransmission=True)
        if self.flight_size > 0:
            self._arm_rto(restart=True)
        else:
            self._cancel_rto()

    def _on_duplicate_ack(self, ack: int) -> None:
        self.stats.duplicate_acks += 1
        if self.flight_size == 0:
            return
        if self.controller.on_dupack(self.flight_size, self.next_seq, self.sim.now, self.srtt_ns):
            self.stats.fast_retransmits += 1
            self._transmit_segment(self.highest_acked, is_retransmission=True)

    def _sample_rtt(self, ack: int) -> None:
        # Use the oldest newly-acknowledged segment that was never retransmitted.
        sample: Optional[int] = None
        for seq in range(self.highest_acked, ack):
            sent_at = self._send_timestamps.pop(seq, None)
            if sample is None and sent_at is not None:
                sample = self.sim.now - sent_at
        if sample is None:
            return
        if self.srtt_ns is None:
            self.srtt_ns = sample
            self.rttvar_ns = sample // 2
        else:
            delta = abs(sample - self.srtt_ns)
            self.rttvar_ns = int(0.75 * self.rttvar_ns + 0.25 * delta)
            self.srtt_ns = int(0.875 * self.srtt_ns + 0.125 * sample)
        rto = self.srtt_ns + 4 * max(self.rttvar_ns, 1)
        self.rto_ns = min(max(rto, self.min_rto_ns), self.max_rto_ns)

    # ------------------------------------------------------------------
    # Retransmission timeout
    # ------------------------------------------------------------------
    def _arm_rto(self, restart: bool = False) -> None:
        if restart:
            self._cancel_rto()
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self.rto_ns * self._backoff, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.flight_size == 0:
            return
        self.stats.timeouts += 1
        if self._backoff > 1:
            self.stats.rto_backoffs += 1
        self.controller.on_timeout(self.flight_size, self.sim.now)
        self._backoff = min(self._backoff * 2, 64)
        self._recover_until = self.next_seq
        self._resend_next = self.highest_acked + 1
        self._transmit_segment(self.highest_acked, is_retransmission=True)
        self._arm_rto(restart=True)

    def _check_completion(self) -> None:
        if not self._completion_callbacks or not self.transfer_complete:
            return
        callbacks, self._completion_callbacks = self._completion_callbacks, []
        for callback in callbacks:
            callback()


class TcpSink:
    """Cumulative-ACK receiver with re-ordering and goodput accounting."""

    __slots__ = (
        "sim",
        "host",
        "flow_id",
        "peer",
        "mss_bytes",
        "ack_bytes",
        "stats",
        "next_expected",
        "_out_of_order",
        "_highest_seen",
        "_in_order_base",
        "_window_start_ns",
    )

    def __init__(
        self,
        sim: Simulator,
        host: "TransportHost",
        flow_id: int,
        peer: int,
        mss_bytes: int = 1000,
        ack_bytes: int = TCP_ACK_BYTES,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer = peer
        self.mss_bytes = mss_bytes
        self.ack_bytes = ack_bytes
        self.stats = TcpSinkStats()
        self.next_expected = 0
        self._out_of_order: set[int] = set()
        self._highest_seen = -1
        self._in_order_base = 0
        self._window_start_ns = -1
        host.register_flow(flow_id, self._on_packet)

    def reset_stats(self) -> None:
        """Zero the counters while keeping protocol state (sequence tracking).

        Called at the warmup/measurement boundary so that goodput and
        re-ordering statistics cover only the measurement window.  From
        then on only segments created after that instant are counted: one
        sent before it was counted by a sender that was reset too.
        """
        self.stats = TcpSinkStats()
        self._in_order_base = self.next_expected
        self._window_start_ns = self.sim.now

    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if not isinstance(payload, TcpSegment):
            return
        now = self.sim.now
        stats = self.stats if packet.created_ns > self._window_start_ns else TcpSinkStats()
        if stats.first_arrival_ns is None:
            stats.first_arrival_ns = now
        stats.last_arrival_ns = now
        seq = payload.seq
        stats.segments_received += 1
        if seq < self.next_expected or seq in self._out_of_order:
            stats.duplicate_segments += 1
        else:
            stats.unique_bytes += packet.size_bytes
            if seq < self._highest_seen:
                stats.reordered_segments += 1
            self._highest_seen = max(self._highest_seen, seq)
            if seq == self.next_expected:
                self.next_expected += 1
                while self.next_expected in self._out_of_order:
                    self._out_of_order.discard(self.next_expected)
                    self.next_expected += 1
            else:
                self._out_of_order.add(seq)
        self.stats.in_order_bytes = (self.next_expected - self._in_order_base) * self.mss_bytes
        self._send_ack()

    def _send_ack(self) -> None:
        ack_payload = TcpAck(flow_id=self.flow_id, ack=self.next_expected)
        packet = Packet(
            src=self.host.node_id,
            dst=self.peer,
            size_bytes=self.ack_bytes,
            flow_id=self.flow_id,
            seq=self.next_expected,
            kind="tcp-ack",
            created_ns=self.sim.now,
            payload=ack_payload,
        )
        self.stats.acks_sent += 1
        self.host.send(packet)

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def goodput_bps(self, duration_ns: int) -> float:
        """Unique received bytes per second of simulated time, in bits/s."""
        if duration_ns <= 0:
            return 0.0
        return self.stats.unique_bytes * 8 / ns_to_seconds(duration_ns)

    @property
    def reordering_ratio(self) -> float:
        """Fraction of received segments that arrived behind a later segment."""
        if self.stats.segments_received == 0:
            return 0.0
        return self.stats.reordered_segments / self.stats.segments_received
