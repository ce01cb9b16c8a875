"""Shared machinery for the per-packet opportunistic MACs (preExOR, MCExOR).

Both schemes follow the same outline (Section II-B of the paper):

1. the current owner of a packet contends for the channel with normal DCF
   rules and transmits the packet with a priority-ordered forwarder list;
2. stations that decode the packet acknowledge it — the two schemes differ
   only in *how* the MAC ACKs are scheduled (sequential slots for preExOR,
   compressed SIFS-spaced slots with suppression for MCExOR);
3. after the acknowledgement window, the highest-priority station known to
   have received the packet becomes its new owner and forwards it (by
   handing it back to its network agent, which re-routes it from that
   node); stations that heard a higher-priority acknowledgement discard
   their copy;
4. the transmitter declares the attempt failed if it heard no
   acknowledgement at all, doubles its contention window and retries.

Because owners cache packets and contend independently, a source can send
packet *i+1* before a forwarder manages to send packet *i* — which is
exactly the re-ordering pathology Section II measures (26.6 % / 27.9 % of
TCP packets re-ordered) and RIPPLE is designed to eliminate.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.mac.base import ChannelAccess, MacLayer, RouteDecision
from repro.mac.frames import FrameKind, MacFrame, SubPacket, build_ack_frame, build_data_frame
from repro.mac.queues import DropTailQueue
from repro.mac.timetable import frame_airtime_ns
from repro.mac.timing import MacTiming
from repro.packet import Packet
from repro.phy.params import PhyParams
from repro.phy.radio import Radio
from repro.sim.engine import Event, Simulator


@dataclass
class _TrackedReception:
    """Book-keeping for a data frame we received and may have to act on."""

    frame: MacFrame
    my_rank: int
    heard_higher_priority: bool = False
    ack_event: Optional[Event] = None
    decision_event: Optional[Event] = None
    acked_by_us: bool = False


class OpportunisticMac(MacLayer, abc.ABC):
    """Common source/forwarder logic for preExOR and MCExOR."""

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
    ) -> None:
        super().__init__(sim, address, radio, phy, timing, rng)
        self.queue = DropTailQueue(capacity=timing.queue_capacity)
        self.access = ChannelAccess(sim, radio, timing, self.rng, self._on_access_granted)
        self.on_channel_busy = self.access.notify_busy
        self.on_channel_idle = self.access.notify_idle
        self._mac_seq: Dict[int, int] = {}
        self._head: Optional[SubPacket] = None
        self._head_route: Optional[RouteDecision] = None
        self._current_frame: Optional[MacFrame] = None
        self._heard_ack_for_current: bool = False
        self._ack_window_event: Optional[Event] = None
        self._tracked: Dict[int, _TrackedReception] = {}

    # ------------------------------------------------------------------
    # Scheme-specific hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ack_delay_ns(self, rank: int, n_forwarders: int) -> int:
        """Delay between the end of the data frame and this rank's ACK transmission."""

    @abc.abstractmethod
    def ack_window_ns(self, n_forwarders: int) -> int:
        """How long the transmitter (and receivers) wait before concluding the exchange."""

    @abc.abstractmethod
    def suppress_ack_on_overheard_ack(self) -> bool:
        """Whether an overheard ACK cancels our own pending ACK (MCExOR) or not (preExOR)."""

    # ------------------------------------------------------------------
    # Upper-layer interface
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, route: RouteDecision) -> bool:
        accepted = self.queue.push(packet, route)
        if accepted:
            self.stats.packets_enqueued += 1
            self._maybe_start()
        else:
            self.stats.packets_dropped_queue += 1
        return accepted

    # ------------------------------------------------------------------
    # Transmit path (owner side)
    # ------------------------------------------------------------------
    def _maybe_start(self) -> None:
        if self._current_frame is not None or self._ack_window_event is not None:
            return
        if self._head is None:
            if self.queue.is_empty:
                return
            packet, route = self.queue.pop()
            self._head = self._make_subpacket(packet)
            self._head_route = route
        self.access.request()

    def _make_subpacket(self, packet: Packet) -> SubPacket:
        seq = self._mac_seq.get(packet.dst, 0)
        self._mac_seq[packet.dst] = seq + 1
        return SubPacket(
            packet=packet, mac_seq=seq, bits=self.timing.subpacket_bits(packet.size_bytes)
        )

    def _on_access_granted(self) -> None:
        if self._head is None or self._head_route is None:
            return
        if self.radio.is_transmitting:
            self.access.request()
            return
        forwarders = self._head_route.forwarder_list
        frame = build_data_frame(
            self.timing,
            origin=self.address,
            final_dst=self._head_route.final_dst,
            transmitter=self.address,
            receiver=None,
            subpackets=[self._head],
            forwarder_list=forwarders,
        )
        self._current_frame = frame
        self._heard_ack_for_current = False
        self.stats.data_frames_sent += 1
        self.stats.subpackets_sent += 1
        self.radio.transmit(frame, frame_airtime_ns(frame, self.phy))

    def on_transmission_complete(self, frame: MacFrame) -> None:
        if frame.kind is FrameKind.DATA and frame is self._current_frame:
            window = self.ack_window_ns(len(frame.forwarder_list))
            self._ack_window_event = self.sim.schedule(window, self._on_ack_window_closed)

    def _on_ack_window_closed(self) -> None:
        self._ack_window_event = None
        frame = self._current_frame
        self._current_frame = None
        if frame is None or self._head is None:
            self._maybe_start()
            return
        if self._heard_ack_for_current:
            # Ownership has moved to a better-placed station (or the packet
            # arrived): this node is done with the packet.
            self.access.record_success()
            self._head = None
            self._head_route = None
        else:
            self.stats.ack_timeouts += 1
            self.stats.retransmissions += 1
            self.access.record_failure()
            self._head.retries += 1
            if self._head.retries > self.timing.retry_limit:
                self.report_drop(self._head.packet)
                self._head = None
                self._head_route = None
                self.access.record_success()
        self._maybe_start()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def acts_on(self, frame: MacFrame) -> bool:
        # Every ACK heard counts in ``ack_frames_received``, and one for
        # another station can tell a tracked receiver it was outranked.
        return frame.kind is FrameKind.ACK or super().acts_on(frame)

    def on_frame_received(self, frame: MacFrame, errors) -> None:
        if frame.kind is FrameKind.DATA:
            self._handle_data(frame, errors)
        else:
            self._handle_ack(frame)

    def _handle_data(self, frame: MacFrame, errors) -> None:
        rank = frame.priority_rank(self.address)
        if rank is None:
            return  # not the destination and not on the forwarder list
        if not errors.subpacket_ok or not errors.subpacket_ok[0]:
            return  # payload corrupted: we cannot acknowledge or forward it
        self.stats.data_frames_received += 1
        tracked = _TrackedReception(frame=frame, my_rank=rank)
        self._tracked[frame.frame_id] = tracked
        n_forwarders = len(frame.forwarder_list)
        delay = self.ack_delay_ns(rank, n_forwarders)
        tracked.ack_event = self.sim.schedule(delay, self._transmit_ack, tracked)
        self.access.defer_to(tracked.ack_event.time)
        if rank == 0:
            # We are the destination: deliver immediately (out-of-order
            # arrivals go straight to the transport layer, which is what
            # makes TCP see re-ordering under these schemes).
            subpacket = frame.subpackets[0]
            self.deliver_up(subpacket.packet, frame.origin, subpacket.mac_seq)
        else:
            window = self.ack_window_ns(n_forwarders)
            tracked.decision_event = self.sim.schedule(window, self._decide_ownership, tracked)

    def _transmit_ack(self, tracked: _TrackedReception) -> None:
        tracked.ack_event = None
        if self.suppress_ack_on_overheard_ack():
            if tracked.heard_higher_priority:
                return
            if self.radio.is_channel_busy:
                # MCExOR suppresses on *detecting* an ACK transmission during
                # its waiting period; the compressed SIFS spacing means the
                # higher-priority ACK is usually still in the air at our slot,
                # so carrier detection (not a completed decode) is the signal.
                tracked.heard_higher_priority = True
                return
        if self.radio.is_transmitting:
            return
        frame = tracked.frame
        ack = build_ack_frame(
            self.timing,
            origin=self.address,
            final_dst=frame.transmitter,
            transmitter=self.address,
            receiver=frame.transmitter,
            acked_seqs=tuple(sp.mac_seq for sp in frame.subpackets),
            ack_for_frame=frame.frame_id,
        )
        tracked.acked_by_us = True
        self.stats.ack_frames_sent += 1
        self.radio.transmit(ack, frame_airtime_ns(ack, self.phy))

    def _decide_ownership(self, tracked: _TrackedReception) -> None:
        tracked.decision_event = None
        self._tracked.pop(tracked.frame.frame_id, None)
        if tracked.heard_higher_priority:
            return  # a better-placed station has the packet: discard our copy
        # Take ownership: hand the packet back to the network layer, which
        # will re-route it from this node (ExOR-style per-hop progress).
        subpacket = tracked.frame.subpackets[0]
        self.stats.relayed_data_frames += 1
        if self._upper_layer is not None:
            self._upper_layer(subpacket.packet)

    def _handle_ack(self, frame: MacFrame) -> None:
        self.stats.ack_frames_received += 1
        # The transmitter of the original data frame learns the packet has moved on.
        if (
            self._current_frame is not None
            and frame.ack_for_frame == self._current_frame.frame_id
        ):
            self._heard_ack_for_current = True
        # Receivers of the data frame learn whether a higher-priority station has it.
        tracked = self._tracked.get(frame.ack_for_frame) if frame.ack_for_frame is not None else None
        if tracked is None:
            return
        acker_rank = tracked.frame.priority_rank(frame.origin)
        if acker_rank is not None and acker_rank < tracked.my_rank:
            tracked.heard_higher_priority = True
