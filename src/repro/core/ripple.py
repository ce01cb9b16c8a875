"""RIPPLE: opportunistic routing for interactive traffic (the paper's contribution).

The scheme (Section III) combines two mechanisms:

**Multi-hop transmission opportunity (mTXOP).**  The source wins the
channel once (normal DIFS + backoff) and transmits a data frame carrying a
priority-ordered forwarder list.  From then on the whole source→destination
→source exchange rides on SIFS/slot-scale timing:

* the destination acknowledges a frame ``SIFS`` after receiving it;
* forwarder ``i`` (1 = highest priority, nearest the destination) relays a
  received **data** frame only after sensing the channel idle for
  ``i * T_slot + T_SIFS`` — so the best-placed forwarder that actually has
  the frame goes first and everyone else, hearing it (or the destination's
  ACK), stands down;
* forwarder ``i`` relays a received **MAC ACK** after the channel is idle
  for ``(i - 1) * T_slot + T_SIFS`` (one slot less: ACKs are not themselves
  acknowledged);
* forwarders never cache frames and relay a given frame at most once;
  retransmission is purely end-to-end from the source, so relaying can
  never re-order packets.

**Two-way packet aggregation.**  Up to 16 upper-layer packets (each with
its own CRC) share one frame in either direction, with zero waiting time:
whatever is in the sending queue (Sq) goes out together.  The destination
acknowledges per sub-packet, the source retransmits only what is missing,
and the receiving queue (Rq) releases packets to the upper layer strictly
in order so that partial corruption of an aggregate cannot re-order TCP
segments (Section III-B6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.mac.base import ChannelAccess, MacLayer, RouteDecision
from repro.mac.frames import FrameKind, MacFrame, SubPacket, build_ack_frame, build_data_frame
from repro.mac.queues import DropTailQueue, ReorderBuffer
from repro.mac.timetable import frame_airtime_ns, mtxop_timeout_ns
from repro.mac.timing import MacTiming
from repro.packet import Packet
from repro.phy.params import PhyParams
from repro.phy.radio import Radio
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams


@dataclass
class _PendingRelay:
    """A frame this node has decided to relay once the channel stays idle long enough."""

    frame: MacFrame
    required_idle_ns: int
    event: Optional[Event] = None


class _RecentFrameIds:
    """Insertion-ordered set of frame ids with a hard capacity.

    Forwarders remember which frames they have relayed or suppressed so they
    never relay the same frame twice.  A frame exchange only spans one mTXOP
    (milliseconds), after which its id never appears on the air again, so
    remembering every id for the whole run grows memory without bound on long
    simulations.  Evicting the oldest ids once the capacity is exceeded keeps
    the memory constant while still covering every exchange that can possibly
    still be in flight (frame ids are globally monotonic).
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = int(capacity)
        self._ids: Dict[int, None] = {}

    def add(self, frame_id: int) -> None:
        if frame_id in self._ids:
            return
        self._ids[frame_id] = None
        while len(self._ids) > self.capacity:
            del self._ids[next(iter(self._ids))]

    def discard(self, frame_id: int) -> None:
        self._ids.pop(frame_id, None)

    def __contains__(self, frame_id: int) -> bool:
        return frame_id in self._ids

    def __len__(self) -> int:
        return len(self._ids)


@dataclass
class RippleStats:
    """RIPPLE-specific counters, kept separately from the generic MAC counters."""

    mtxop_started: int = 0
    data_relays: int = 0
    ack_relays: int = 0
    relays_suppressed: int = 0
    end_to_end_retransmissions: int = 0
    rq_releases: int = 0
    rq_held_max: int = 0


class RippleMac(MacLayer):
    """The RIPPLE MAC/forwarding layer."""

    #: Its edge callbacks act only on pending relays and the contending
    #: access, and both hold the radio's ``mac_active`` while they exist.
    needs_every_edge = False

    def __init__(
        self,
        sim: Simulator,
        address: int,
        radio: Radio,
        phy: PhyParams,
        timing: MacTiming,
        rng: "np.random.Generator | RandomStreams",
        max_aggregation: int = 16,
    ) -> None:
        # A RandomStreams registry is resolved by MacLayer into this
        # station's keyed "mac" substream; the only randomness RIPPLE itself
        # consumes is the DCF backoff of its source-side channel access.
        super().__init__(sim, address, radio, phy, timing, rng)
        self.max_aggregation = max(1, int(max_aggregation))
        self.queue = DropTailQueue(capacity=timing.queue_capacity)  # the paper's Sq
        self.reorder = ReorderBuffer()  # the paper's Rq
        self.ripple_stats = RippleStats()
        self.access = ChannelAccess(sim, radio, timing, self.rng, self._on_access_granted)
        # --- source-side state -------------------------------------------------
        self._mac_seq: Dict[int, int] = {}
        self._pending: List[SubPacket] = []  # sub-packets of the frame in flight
        self._pending_dst: Optional[int] = None
        self._pending_route: Optional[RouteDecision] = None
        self._current_frame: Optional[MacFrame] = None
        self._ack_timeout_event: Optional[Event] = None
        # --- forwarder-side state ----------------------------------------------
        self._pending_relays: Dict[int, _PendingRelay] = {}
        self._relayed_frames = _RecentFrameIds()
        self._suppressed_frames = _RecentFrameIds()
        # --- destination-side state --------------------------------------------
        self._acked_seqs_per_origin: Dict[int, Set[int]] = {}

    # ======================================================================
    # Upper-layer (Sq) interface
    # ======================================================================
    def enqueue(self, packet: Packet, route: RouteDecision) -> bool:
        accepted = self.queue.push(packet, route)
        if accepted:
            self.stats.packets_enqueued += 1
            self._maybe_start()
        else:
            self.stats.packets_dropped_queue += 1
        return accepted

    # ======================================================================
    # Source side: aggregation, channel access, end-to-end retransmission
    # ======================================================================
    def _maybe_start(self) -> None:
        if self._current_frame is not None or self._ack_timeout_event is not None:
            return  # an mTXOP for our own traffic is already in progress
        if not self._pending:
            self._fill_pending()
        if self._pending:
            self.access.request()

    def _fill_pending(self) -> None:
        """Zero-waiting aggregation: take whatever shares the head packet's destination."""
        if self.queue.is_empty:
            return
        _, head_route = self.queue.peek()
        destination = head_route.final_dst
        space = self.max_aggregation - len(self._pending)
        entries = self.queue.pop_matching(
            lambda _pkt, route: route.final_dst == destination, limit=space
        )
        for packet, _route in entries:
            self._pending.append(self._make_subpacket(packet, destination))
        self._pending_dst = destination
        self._pending_route = head_route

    def _top_up_pending(self) -> None:
        if len(self._pending) >= self.max_aggregation or self.queue.is_empty:
            return
        destination = self._pending_dst
        entries = self.queue.pop_matching(
            lambda _pkt, route: route.final_dst == destination,
            limit=self.max_aggregation - len(self._pending),
        )
        for packet, _route in entries:
            self._pending.append(self._make_subpacket(packet, destination))

    def _make_subpacket(self, packet: Packet, destination: int) -> SubPacket:
        seq = self._mac_seq.get(destination, 0)
        self._mac_seq[destination] = seq + 1
        return SubPacket(
            packet=packet, mac_seq=seq, bits=self.timing.subpacket_bits(packet.size_bytes)
        )

    def _on_access_granted(self) -> None:
        if not self._pending or self._pending_route is None:
            return
        if self.radio.is_transmitting:
            self.access.request()
            return
        forwarders = self._pending_route.forwarder_list
        frame = build_data_frame(
            self.timing,
            origin=self.address,
            final_dst=self._pending_dst,
            transmitter=self.address,
            receiver=None,
            subpackets=self._pending,
            forwarder_list=forwarders,
            flush_below=min(sp.mac_seq for sp in self._pending),
        )
        self._current_frame = frame
        self.stats.data_frames_sent += 1
        self.stats.subpackets_sent += len(frame.subpackets)
        if len(frame.subpackets) > 1:
            self.stats.aggregated_frames += 1
        self.ripple_stats.mtxop_started += 1
        self.radio.transmit(frame, frame_airtime_ns(frame, self.phy))

    def on_transmission_complete(self, frame: MacFrame) -> None:
        if frame.kind is FrameKind.DATA and frame is self._current_frame:
            timeout = mtxop_timeout_ns(self.timing, self.phy, frame)
            self._ack_timeout_event = self.sim.schedule(timeout, self._on_ack_timeout)

    def mtxop_timeout_ns(self, frame: MacFrame) -> int:
        """Worst-case duration of the multi-hop exchange started by ``frame``.

        Covers every forwarder relaying the data with its maximum deferral,
        the destination's SIFS-spaced ACK, and the ACK being relayed all the
        way back, plus a slack slot per hop.  The MAC looks this up in
        :mod:`repro.mac.timetable`, which this method is the reference for.
        """
        n = len(frame.forwarder_list)
        data_airtime = frame.airtime_ns(self.phy)
        ack_airtime = self.timing.ack_airtime_ns(self.phy, forwarders=n)
        worst_data_defer = self.timing.sifs_ns + n * self.timing.slot_ns
        worst_ack_defer = self.timing.sifs_ns + max(0, n - 1) * self.timing.slot_ns
        total = n * (worst_data_defer + data_airtime)
        total += self.timing.sifs_ns + ack_airtime
        total += n * (worst_ack_defer + ack_airtime)
        total += (n + 2) * self.timing.slot_ns
        return total

    def _on_ack_timeout(self) -> None:
        self._ack_timeout_event = None
        self._current_frame = None
        self.stats.ack_timeouts += 1
        self.stats.retransmissions += 1
        self.ripple_stats.end_to_end_retransmissions += 1
        self.access.record_failure()
        for subpacket in self._pending:
            subpacket.retries += 1
        self._drop_expired()
        if not self._pending:
            self._pending_dst = None
            self._pending_route = None
            self.access.record_success()
        else:
            self._top_up_pending()
        self._maybe_start()

    def _handle_end_to_end_ack(self, frame: MacFrame) -> None:
        """An ACK for our in-flight frame reached us (directly or via relays)."""
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
            for subpacket in self._pending:
                subpacket.retries += 1
            self._drop_expired()
        if not self._pending:
            self._pending_dst = None
            self._pending_route = None
        else:
            self._top_up_pending()
        self._maybe_start()

    def _drop_expired(self) -> None:
        survivors: List[SubPacket] = []
        for subpacket in self._pending:
            if subpacket.retries > self.timing.retry_limit:
                self.report_drop(subpacket.packet)
            else:
                survivors.append(subpacket)
        self._pending = survivors

    # ======================================================================
    # Receive path: destination ACKs, Rq, forwarder relays
    # ======================================================================
    def on_frame_received(self, frame: MacFrame, errors) -> None:
        if frame.kind is FrameKind.DATA:
            if frame.final_dst == self.address:
                self._receive_as_destination(frame, errors)
            else:
                self._consider_data_relay(frame, errors)
        else:  # ACK
            if frame.final_dst == self.address:
                self._handle_end_to_end_ack(frame)
            else:
                self._consider_ack_relay(frame)
            self._note_overheard_transmission(frame)

    # ------------------------------------------------------------------
    # Destination behaviour
    # ------------------------------------------------------------------
    def _receive_as_destination(self, frame: MacFrame, errors) -> None:
        self.stats.data_frames_received += 1
        received_now = [
            subpacket
            for subpacket, ok in zip(frame.subpackets, errors.subpacket_ok)
            if ok
        ]
        already_have = self._acked_seqs_per_origin.setdefault(frame.origin, set())
        if frame.flush_below > 0:
            # The origin never retransmits sequence numbers below its flush
            # watermark, so entries under it can no longer be re-acked and
            # would otherwise accumulate for the whole run.
            already_have.difference_update(
                [seq for seq in already_have if seq < frame.flush_below]
            )
        acked: List[int] = sorted(
            {sp.mac_seq for sp in received_now}
            | {sp.mac_seq for sp in frame.subpackets if sp.mac_seq in already_have}
        )
        if not acked and not received_now:
            return  # nothing decodable and nothing previously held: stay silent
        already_have.update(sp.mac_seq for sp in received_now)
        ack = build_ack_frame(
            self.timing,
            origin=self.address,
            final_dst=frame.origin,
            transmitter=self.address,
            receiver=None,
            acked_seqs=tuple(acked),
            ack_for_frame=frame.frame_id,
            forwarder_list=frame.forwarder_list,
        )
        self.sim.schedule(self.timing.sifs_ns, self._transmit_destination_ack, ack)
        # Rq: release in order, honouring the origin's flush watermark.
        released: List[Packet] = []
        if received_now:
            for subpacket in received_now:
                released.extend(
                    self.reorder.accept(
                        frame.origin, subpacket.mac_seq, subpacket.packet, frame.flush_below
                    )
                )
        else:
            released.extend(self.reorder.flush(frame.origin, frame.flush_below))
        held = self.reorder.pending(frame.origin)
        self.ripple_stats.rq_held_max = max(self.ripple_stats.rq_held_max, held)
        # The Rq has already removed duplicates and restored order, so its
        # releases bypass deliver_up's sequence-number filter.
        for packet in released:
            self.ripple_stats.rq_releases += 1
            self._pass_up(packet)
        # The destination also suppresses any relay it might have pending for
        # this frame (it has obviously reached the destination already).
        self._cancel_relay(frame.frame_id, suppressed=True)

    def _transmit_destination_ack(self, ack: MacFrame) -> None:
        if self.radio.is_transmitting:
            return
        self.stats.ack_frames_sent += 1
        self.radio.transmit(ack, frame_airtime_ns(ack, self.phy))

    # ------------------------------------------------------------------
    # Forwarder behaviour: data relays
    # ------------------------------------------------------------------
    def _consider_data_relay(self, frame: MacFrame, errors) -> None:
        my_rank = frame.priority_rank(self.address)
        if my_rank is None or my_rank == 0:
            return  # not on this frame's forwarder list
        if frame.frame_id in self._relayed_frames or frame.frame_id in self._suppressed_frames:
            return
        transmitter_rank = frame.priority_rank(frame.transmitter)
        upstream_rank = float("inf") if transmitter_rank is None else transmitter_rank
        if upstream_rank <= my_rank:
            # The frame was transmitted by a station at least as close to the
            # destination as we are: it has already passed us.
            self._suppressed_frames.add(frame.frame_id)
            self._cancel_relay(frame.frame_id, suppressed=True)
            return
        surviving = [
            subpacket
            for subpacket, ok in zip(frame.subpackets, errors.subpacket_ok)
            if ok
        ]
        if not surviving:
            return  # header decoded but every sub-packet corrupted: nothing to relay
        relay = frame.relay_copy(transmitter=self.address)
        relay.subpackets = surviving
        required_idle = my_rank * self.timing.slot_ns + self.timing.sifs_ns
        self._schedule_relay(relay, required_idle)

    # ------------------------------------------------------------------
    # Forwarder behaviour: ACK relays
    # ------------------------------------------------------------------
    def _consider_ack_relay(self, frame: MacFrame) -> None:
        my_rank = frame.priority_rank(self.address)
        if my_rank is None or my_rank == 0:
            return
        if frame.frame_id in self._relayed_frames or frame.frame_id in self._suppressed_frames:
            return
        transmitter_rank = frame.priority_rank(frame.transmitter)
        upstream_rank = 0 if frame.transmitter == frame.origin else transmitter_rank
        if upstream_rank is None or upstream_rank >= my_rank:
            # Transmitted by a station closer to the ACK's destination (the
            # data source) than we are: the ACK is already past us.
            self._suppressed_frames.add(frame.frame_id)
            self._cancel_relay(frame.frame_id, suppressed=True)
            return
        relay = frame.relay_copy(transmitter=self.address)
        required_idle = max(0, my_rank - 1) * self.timing.slot_ns + self.timing.sifs_ns
        self._schedule_relay(relay, required_idle)

    # ------------------------------------------------------------------
    # Relay timers ("channel idle for T" semantics)
    # ------------------------------------------------------------------
    def _schedule_relay(self, relay_frame: MacFrame, required_idle_ns: int) -> None:
        pending = _PendingRelay(frame=relay_frame, required_idle_ns=required_idle_ns)
        self._put_relay(pending)
        self._arm_relay(pending)
        if pending.event is not None:
            # Armed during frame delivery, after the idle edge re-armed our
            # own grant: the relay must still win a tie with it.
            self.access.defer_to(pending.event.time)

    def _put_relay(self, pending: _PendingRelay) -> None:
        """Add a pending relay; the first one holds the radio's busy/idle edges.

        A relay of the same frame id replaces the pending one, whose armed
        event is cancelled: left armed, it would fire at the old deferral,
        drop the newer entry and send the relay early.
        """
        if not self._pending_relays:
            self.radio.hold_mac_active()
        replaced = self._pending_relays.get(pending.frame.frame_id)
        if replaced is not None and replaced.event is not None:
            replaced.event.cancel()
        self._pending_relays[pending.frame.frame_id] = pending

    def _pop_relay(self, frame_id: int) -> Optional[_PendingRelay]:
        """Remove a pending relay; the last one releases the radio's edges."""
        pending = self._pending_relays.pop(frame_id, None)
        if pending is not None and not self._pending_relays:
            self.radio.release_mac_active()
        return pending

    def _arm_relay(self, pending: _PendingRelay) -> None:
        if self.radio.busy:
            return  # re-armed on the next idle transition
        idle_for = self.sim.now - self.radio.idle_since
        remaining = max(0, pending.required_idle_ns - idle_for)
        pending.event = self.sim.schedule(remaining, self._fire_relay, pending)

    def on_channel_busy(self) -> None:
        if self._pending_relays:  # almost always empty
            for pending in self._pending_relays.values():
                if pending.event is not None:
                    pending.event.cancel()
                    pending.event = None
        self.access.notify_busy()

    def on_channel_idle(self) -> None:
        # Relays are armed before the grant, so they win a tie with it.
        if self._pending_relays:
            for pending in self._pending_relays.values():
                self._arm_relay(pending)
        self.access.notify_idle()

    def _fire_relay(self, pending: _PendingRelay) -> None:
        pending.event = None
        frame = pending.frame
        self._pop_relay(frame.frame_id)
        if frame.frame_id in self._suppressed_frames or frame.frame_id in self._relayed_frames:
            return
        if self.radio.busy:
            # Lost the race against another transmission that started in the
            # same instant; treat it like a busy channel and wait again.
            self._put_relay(pending)
            return
        self._relayed_frames.add(frame.frame_id)
        if frame.kind is FrameKind.DATA:
            self.ripple_stats.data_relays += 1
            self.stats.relayed_data_frames += 1
        else:
            self.ripple_stats.ack_relays += 1
            self.stats.relayed_ack_frames += 1
        self.radio.transmit(frame, frame_airtime_ns(frame, self.phy))

    def _cancel_relay(self, frame_id: int, suppressed: bool) -> None:
        pending = self._pop_relay(frame_id)
        if pending is not None:
            if pending.event is not None:
                pending.event.cancel()
            if suppressed:
                self.ripple_stats.relays_suppressed += 1
        if suppressed:
            self._suppressed_frames.add(frame_id)

    # ------------------------------------------------------------------
    # Overhearing
    # ------------------------------------------------------------------
    def _note_overheard_transmission(self, frame: MacFrame) -> None:
        """Suppress a pending data relay once the destination's ACK is heard.

        Hearing any ACK that refers to a data frame we were about to relay
        means the data frame has already reached the destination; relaying it
        would only waste air time.
        """
        if frame.kind is not FrameKind.ACK or frame.ack_for_frame is None:
            return
        if frame.ack_for_frame in self._pending_relays:
            self._cancel_relay(frame.ack_for_frame, suppressed=True)
