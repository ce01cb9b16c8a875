"""IEEE 802.11 DCF MAC with optional single-hop aggregation.

This is the baseline MAC used (via predetermined or shortest-path routing)
by the "S" and "D" schemes in the paper's figures, and — with
``max_aggregation`` raised to 16 — the substrate of the AFR scheme
(:mod:`repro.mac.afr`).

Behaviour implemented:

* DIFS + slotted binary-exponential backoff channel access with freezing
  (via :class:`~repro.mac.base.ChannelAccess`);
* per-next-hop frames carrying 1..``max_aggregation`` sub-packets, each
  with its own CRC;
* SIFS-spaced MAC ACK carrying a sub-packet bitmap (a degenerate 1-entry
  bitmap for plain DCF);
* ACK timeout → contention-window doubling and retransmission of the
  unacknowledged sub-packets, up to the retry limit, after which the
  packet is dropped and reported;
* duplicate suppression at the receiver on (origin, MAC sequence number).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.mac.base import ChannelAccess, MacLayer, RouteDecision
from repro.mac.frames import FrameKind, MacFrame, SubPacket, build_ack_frame, build_data_frame
from repro.mac.queues import DropTailQueue
from repro.mac.timetable import ack_timeout_ns, frame_airtime_ns
from repro.mac.timing import MacTiming
from repro.packet import Packet
from repro.phy.params import PhyParams
from repro.phy.radio import Radio
from repro.sim.engine import Event, Simulator


class DcfMac(MacLayer):
    """802.11 DCF with unicast next-hop frames and block-ACK style aggregation."""

    #: Its edge callbacks are the access's, which act only while it contends.
    needs_every_edge = False

    def __init__(
        self,
        sim: Simulator,
        address: int,
        radio: Radio,
        phy: PhyParams,
        timing: MacTiming,
        rng: np.random.Generator,
        max_aggregation: int = 1,
    ) -> None:
        super().__init__(sim, address, radio, phy, timing, rng)
        self.max_aggregation = max(1, int(max_aggregation))
        self.queue = DropTailQueue(capacity=timing.queue_capacity)
        self.access = ChannelAccess(sim, radio, timing, self.rng, self._on_access_granted)
        self.on_channel_busy = self.access.notify_busy
        self.on_channel_idle = self.access.notify_idle
        self._mac_seq: Dict[int, int] = {}
        self._pending: List[SubPacket] = []
        self._pending_receiver: Optional[int] = None
        self._current_frame: Optional[MacFrame] = None
        self._ack_timeout_event: Optional[Event] = None

    # ------------------------------------------------------------------
    # Upper-layer interface
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, route: RouteDecision) -> bool:
        if route.next_hop is None:
            raise ValueError("DcfMac requires a next_hop route decision")
        accepted = self.queue.push(packet, route.next_hop)
        if accepted:
            self.stats.packets_enqueued += 1
            self._maybe_start()
        else:
            self.stats.packets_dropped_queue += 1
        return accepted

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def _maybe_start(self) -> None:
        if self._current_frame is not None or self._ack_timeout_event is not None:
            return  # an exchange is already in progress
        if not self._pending and self.queue.is_empty:
            return
        if not self._pending:
            self._fill_pending()
        if self._pending:
            self.access.request()

    def _fill_pending(self) -> None:
        """Pull the next burst of same-next-hop packets out of the interface queue."""
        if self.queue.is_empty:
            return
        _, receiver = self.queue.peek()
        space = self.max_aggregation - len(self._pending)
        if self._pending and receiver != self._pending_receiver:
            return
        entries = self.queue.pop_matching(
            lambda _pkt, hop: hop == receiver, limit=space
        )
        for packet, _hop in entries:
            self._pending.append(self._make_subpacket(packet, receiver))
        self._pending_receiver = receiver

    def _make_subpacket(self, packet: Packet, receiver: int) -> SubPacket:
        seq = self._mac_seq.get(receiver, 0)
        self._mac_seq[receiver] = seq + 1
        return SubPacket(packet=packet, mac_seq=seq, bits=self.timing.subpacket_bits(packet.size_bytes))

    def _top_up_pending(self) -> None:
        """After a partial ACK, refill the frame with fresh queue packets."""
        if len(self._pending) >= self.max_aggregation or self.queue.is_empty:
            return
        _, receiver = self.queue.peek()
        if receiver != self._pending_receiver:
            return
        entries = self.queue.pop_matching(
            lambda _pkt, hop: hop == receiver,
            limit=self.max_aggregation - len(self._pending),
        )
        for packet, _hop in entries:
            self._pending.append(self._make_subpacket(packet, receiver))

    def _build_frame(self) -> MacFrame:
        assert self._pending_receiver is not None
        return build_data_frame(
            self.timing,
            origin=self.address,
            final_dst=self._pending_receiver,
            transmitter=self.address,
            receiver=self._pending_receiver,
            subpackets=self._pending,
        )

    def _on_access_granted(self) -> None:
        if not self._pending:
            return
        frame = self._build_frame()
        self._current_frame = frame
        airtime = frame_airtime_ns(frame, self.phy)
        self.stats.data_frames_sent += 1
        self.stats.subpackets_sent += len(frame.subpackets)
        if len(frame.subpackets) > 1:
            self.stats.aggregated_frames += 1
        self.radio.transmit(frame, airtime)

    def on_transmission_complete(self, frame: MacFrame) -> None:
        if frame.kind is FrameKind.DATA and frame is self._current_frame:
            timeout = ack_timeout_ns(self.timing, self.phy)
            self._ack_timeout_event = self.sim.schedule(timeout, self._on_ack_timeout)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def acts_on(self, frame: MacFrame) -> bool:
        """Only frames addressed to this station: both handlers ignore any other."""
        return frame.receiver == self.address

    def on_frame_received(self, frame: MacFrame, errors) -> None:
        if frame.kind is FrameKind.DATA:
            self._handle_data(frame, errors)
        elif frame.kind is FrameKind.ACK:
            self._handle_ack(frame)

    def _handle_data(self, frame: MacFrame, errors) -> None:
        if frame.receiver != self.address:
            return  # overheard traffic for someone else
        ok_subpackets = [
            subpacket
            for subpacket, ok in zip(frame.subpackets, errors.subpacket_ok)
            if ok
        ]
        self.stats.data_frames_received += 1
        if not ok_subpackets:
            return  # nothing decodable: let the transmitter time out
        acked = tuple(subpacket.mac_seq for subpacket in ok_subpackets)
        ack = build_ack_frame(
            self.timing,
            origin=self.address,
            final_dst=frame.transmitter,
            transmitter=self.address,
            receiver=frame.transmitter,
            acked_seqs=acked,
            ack_for_frame=frame.frame_id,
        )
        self.sim.schedule(self.timing.sifs_ns, self._transmit_ack, ack)
        for subpacket in ok_subpackets:
            self.deliver_up(subpacket.packet, frame.origin, subpacket.mac_seq)

    def _transmit_ack(self, ack: MacFrame) -> None:
        self.stats.ack_frames_sent += 1
        self.radio.transmit(ack, frame_airtime_ns(ack, self.phy))

    def _handle_ack(self, frame: MacFrame) -> None:
        if frame.receiver != self.address:
            return
        if self._current_frame is None or frame.ack_for_frame != self._current_frame.frame_id:
            return
        self.stats.ack_frames_received += 1
        if self._ack_timeout_event is not None:
            self._ack_timeout_event.cancel()
            self._ack_timeout_event = None
        acked = set(frame.acked_seqs)
        self._pending = [sp for sp in self._pending if sp.mac_seq not in acked]
        self._current_frame = None
        self.access.record_success()
        if self._pending:
            # Partial block-ACK: surviving sub-packets are retried without
            # counting a full collision (the exchange itself succeeded).
            for subpacket in self._pending:
                subpacket.retries += 1
            self._drop_expired()
            self._top_up_pending()
        else:
            self._pending_receiver = None
        self._maybe_start()

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_ack_timeout(self) -> None:
        self._ack_timeout_event = None
        self._current_frame = None
        self.stats.ack_timeouts += 1
        self.stats.retransmissions += 1
        self.access.record_failure()
        for subpacket in self._pending:
            subpacket.retries += 1
        self._drop_expired()
        if not self._pending:
            self._pending_receiver = None
            self.access.record_success()
        self._maybe_start()

    def _drop_expired(self) -> None:
        survivors: List[SubPacket] = []
        for subpacket in self._pending:
            if subpacket.retries > self.timing.retry_limit:
                self.report_drop(subpacket.packet)
            else:
                survivors.append(subpacket)
        self._pending = survivors
