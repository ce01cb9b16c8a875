"""MAC-layer base classes shared by every scheme in the paper.

Three pieces live here:

* :class:`RouteDecision` — what the network layer tells the MAC about a
  packet: either a concrete next hop (predetermined / shortest-path
  routing) or a priority-ordered forwarder list (opportunistic schemes).
* :class:`ChannelAccess` — the DCF channel-access procedure (DIFS wait +
  slotted binary-exponential backoff with freezing), reused by every
  scheme: plain DCF and AFR use it for every frame, RIPPLE / preExOR /
  MCExOR use it for source transmissions while relays ride on SIFS-based
  timing instead.
* :class:`MacLayer` — the abstract base holding the radio wiring,
  upper-layer delivery with duplicate suppression, and statistics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.mac.stats import MacStats
from repro.mac.timing import MacTiming
from repro.packet import Packet
from repro.phy.params import PhyParams
from repro.phy.radio import Radio
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams, UniformStream


@dataclass(frozen=True, slots=True)
class RouteDecision:
    """Routing output attached to a packet when it is handed to the MAC.

    ``next_hop`` is used by predetermined/shortest-path forwarding;
    ``forwarder_list`` (priority-ordered, closest-to-destination first,
    *excluding* the destination itself) is used by the opportunistic
    schemes.  ``final_dst`` is the packet's destination node.  Frozen, so
    the packets one route carries share one decision
    (:meth:`~repro.routing.base.RoutingProtocol.route_decision`).
    """

    final_dst: int
    next_hop: Optional[int] = None
    forwarder_list: Tuple[int, ...] = ()


class ChannelAccess:
    """IEEE 802.11 DCF channel access: DIFS + slotted exponential backoff.

    The owner MAC forwards the radio's busy/idle transitions to
    :meth:`notify_busy` / :meth:`notify_idle`; when the medium has been won
    the ``on_granted`` callback fires.  The backoff counter is frozen (not
    redrawn) across busy periods, and the contention window doubles on
    :meth:`record_failure` and resets on :meth:`record_success`, as in the
    standard.

    Each idle period arms one grant event at ``resume + DIFS + remaining *
    slot``; a busy edge cancels it and keeps the whole slots that elapsed
    after the DIFS.  Outcomes equal stepping one timer per slot, ties
    included: a busy edge on a slot boundary counts that slot when it is a
    sensed signal (scheduled one propagation delay, under a slot, earlier)
    but not when it is our own transmission (armed a SIFS or more earlier);
    see also :meth:`defer_to`.

    Both notifications do nothing while the station is not contending (no
    grant is armed then), so the access holds its radio's
    :attr:`~repro.phy.radio.Radio.mac_active` from :meth:`request` to the
    grant, and a MAC that does not need every edge gets none while it does
    not contend.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        timing: MacTiming,
        rng: np.random.Generator,
        on_granted: Callable[[], None],
    ) -> None:
        self._sim = sim
        self._radio = radio
        self._timing = timing
        # Backoff draws come from the station's keyed stream, buffered so
        # each draw is a float multiply instead of a numpy scalar call
        # (``floor(u * cw)`` is uniform over [0, cw) for u ~ U[0, 1)).
        # None once released.
        self._uniforms: Optional[UniformStream] = UniformStream(rng)
        self._on_granted = on_granted
        self._difs_ns = timing.difs_ns
        self._slot_ns = timing.slot_ns
        self.cw = timing.cw_min
        self._active = False
        #: Backoff slots still to count; ``None`` until the round's draw.
        self._remaining_slots: Optional[int] = None
        #: When the current idle period's DIFS ends and slots start counting.
        self._count_from = 0
        self._grant: Optional[Event] = None
        #: Optional per-exchange outcome hook ``listener(success: bool)``,
        #: fired on every :meth:`record_success` / :meth:`record_failure`.
        #: This is the seam rate-adaptation components observe link quality
        #: through without wrapping the MAC's transmit path.
        self.outcome_listener: Optional[Callable[[bool], None]] = None

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def request(self) -> None:
        """Start (or continue) contending for the medium."""
        if self._active:
            return
        self._active = True
        # Before reading carrier sense: a busy medium resumes us on its idle edge.
        self._radio.hold_mac_active()
        if not self._radio.busy:
            self._resume()  # otherwise the idle edge resumes

    def defer_to(self, when: int) -> None:
        """Let a timer armed at this idle edge for ``when`` beat a grant due then.

        A per-slot timer chain armed its last timer one slot before the
        grant, after such a timer, unless the backoff was zero.
        """
        grant = self._grant
        if grant is not None and grant.time == when and when > self._count_from:
            grant.cancel()
            self._grant = self._sim.schedule_at(when, self._granted)

    def release(self) -> None:
        """Drop the backoff draws of a finished run; the access must not contend again."""
        self._uniforms = None

    def record_success(self) -> None:
        """Reset the contention window after a successful exchange."""
        self.cw = self._timing.cw_min
        if self.outcome_listener is not None:
            self.outcome_listener(True)

    def record_failure(self) -> None:
        """Double the contention window after a failed exchange."""
        self.cw = min(self.cw * 2, self._timing.cw_max)
        if self.outcome_listener is not None:
            self.outcome_listener(False)

    # ------------------------------------------------------------------
    # Radio state transitions (bound or forwarded by the owning MAC)
    # ------------------------------------------------------------------
    def notify_busy(self) -> None:
        grant = self._grant
        if grant is None:
            return
        grant.cancel()
        self._grant = None
        counted = self._sim.now - self._count_from
        if counted > 0:
            slots, partial = divmod(counted, self._slot_ns)
            if not partial and self._radio.is_transmitting:
                slots -= 1  # our own transmission wins its boundary
            self._remaining_slots -= slots

    def notify_idle(self) -> None:
        if self._active:
            self._resume()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resume(self) -> None:
        remaining = self._remaining_slots
        if remaining is None:
            # ``cw`` cannot change while a station contends, so this is the
            # draw the round would get at any later point.
            remaining = self._remaining_slots = int(self._uniforms.next_float() * self.cw)
        self._count_from = self._sim.now + self._difs_ns
        self._grant = self._sim.schedule(self._difs_ns + remaining * self._slot_ns, self._granted)

    def _granted(self) -> None:
        self._grant = None
        self._active = False
        self._remaining_slots = None
        self._radio.release_mac_active()
        self._on_granted()


class MacLayer(abc.ABC):
    """Base class for every MAC variant in the library.

    Sub-classes implement :meth:`enqueue` (accept a packet from the network
    layer) and :meth:`on_frame_received` (react to a decoded frame); the
    base class provides radio wiring, upper-layer delivery with duplicate
    suppression, and statistics.  The radio hands :meth:`on_frame_received`
    only the frames :meth:`acts_on` accepts; any other frame it decodes
    costs no call and no bit-error draw.

    Likewise the radio calls :meth:`on_channel_busy` and
    :meth:`on_channel_idle` at every carrier-sense edge unless the class
    sets :attr:`needs_every_edge` False.  Such a MAC promises that both do
    nothing unless it holds the radio's
    :attr:`~repro.phy.radio.Radio.mac_active`
    (:meth:`~repro.phy.radio.Radio.hold_mac_active`, released once per
    hold), and it gets edges only while it does.  :class:`ChannelAccess`
    holds the flag while it contends; RIPPLE also holds it while a relay
    waits for the medium.  A MAC that breaks the promise changes the
    simulation.

    A MAC transmits, or hands a packet up, only because of its own queue
    or because of a frame that names its station (as receiver, final
    destination or forwarder).  preExOR's and MCExOR's :meth:`acts_on`
    accept every ACK, but at a station holding no tracked reception an ACK
    naming another station only changes counters.  With routes fixed for
    the run, the channel relies on this to leave out of dispatch every
    station no route reaches (see :mod:`repro.phy.channel`): such a
    station's queue stays empty and no frame names it, so what it senses
    changes nothing.  A MAC that breaks this contract stops the run at the
    channel's guard instead of changing it.
    """

    #: Most sub-packets one data frame carries; sizes the duplicate filter.
    max_aggregation = 1

    #: Whether the radio must report every busy/idle edge (class notes).
    needs_every_edge = True

    #: The channel access a contending MAC wins the medium with.
    access: Optional[ChannelAccess] = None

    def __init__(
        self,
        sim: Simulator,
        address: int,
        radio: Radio,
        phy: PhyParams,
        timing: MacTiming,
        rng: "np.random.Generator | RandomStreams",
    ) -> None:
        self.sim = sim
        self.address = address
        self.radio = radio
        self.phy = phy
        self.timing = timing
        if isinstance(rng, RandomStreams):
            # Preferred wiring: hand the MAC the whole keyed registry and let
            # it derive its per-station backoff stream, so the draw sequence
            # depends only on (seed, address) — never on how many stations
            # exist or in which order their stacks were built.
            rng = rng.stream_for("mac", address)
        self.rng = rng
        self.stats = MacStats()
        self._upper_layer: Optional[Callable[[Packet], None]] = None
        #: Per origin, the MAC sequence numbers recently passed upward.
        self._delivered: Dict[int, Dict[int, None]] = {}
        radio.attach_mac(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_upper_layer(self, callback: Callable[[Packet], None]) -> None:
        """Register the network-layer receive callback."""
        self._upper_layer = callback

    # ------------------------------------------------------------------
    # Upper-layer interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def enqueue(self, packet: Packet, route: RouteDecision) -> bool:
        """Accept a packet from the network layer; False if the queue dropped it."""

    def deliver_up(self, packet: Packet, origin: int, mac_seq: int) -> None:
        """Hand a received packet to the network layer, suppressing MAC duplicates.

        Per origin, only sequence numbers within ``window`` of the highest
        are kept.  A sender numbers sub-packets in order and resends one only
        while it rides in every frame it builds, for at most ``retry_limit +
        1`` exchanges of at most ``max_aggregation`` sub-packets each, so a
        duplicate is never ``window`` or more below the highest number sent.
        """
        seen = self._delivered.get(origin)
        if seen is None:
            seen = self._delivered[origin] = {}
        elif mac_seq in seen:
            self.stats.duplicate_deliveries += 1
            return
        seen[mac_seq] = None
        window = (self.timing.retry_limit + 1) * self.max_aggregation
        if len(seen) > 2 * window:
            floor = max(seen) - window
            self._delivered[origin] = {seq: None for seq in seen if seq > floor}
        self._pass_up(packet)

    def _pass_up(self, packet: Packet) -> None:
        """Hand a packet to the network layer without duplicate filtering."""
        self.stats.packets_delivered += 1
        if self._upper_layer is not None:
            self._upper_layer(packet)

    def report_drop(self, packet: Packet) -> None:
        """Count a packet the MAC dropped after its last retry."""
        self.stats.packets_dropped_retry += 1

    def release(self) -> None:
        """Drop the backoff stream of a finished run; the counters stay.

        Called by :meth:`~repro.topology.network.WirelessNetwork.release`.
        The MAC must not send again afterwards.
        """
        self.rng = None
        if self.access is not None:
            self.access.release()

    # ------------------------------------------------------------------
    # Radio callbacks
    # ------------------------------------------------------------------
    # One call per carrier-sense edge, or per edge while the MAC holds the
    # radio's mac_active.  Contending MACs bind these to their
    # ChannelAccess; RIPPLE overrides them to handle its relays first.
    def on_channel_busy(self) -> None:
        """The medium turned busy at this station."""

    def on_channel_idle(self) -> None:
        """The medium turned idle at this station."""

    def acts_on(self, frame) -> bool:
        """Whether :meth:`on_frame_received` can change anything for ``frame``.

        True when this station is the frame's receiver or final destination
        or is on its forwarder list.  A MAC that acts on other frames, or on
        fewer, overrides this; one that returns False for a frame it would
        act on changes the simulation.
        """
        address = self.address
        return (
            address == frame.receiver
            or address == frame.final_dst
            or address in frame.forwarder_list
        )

    @abc.abstractmethod
    def on_frame_received(self, frame, errors) -> None:
        """React to a frame decoded by the radio (with per-sub-packet error flags)."""

    def on_transmission_complete(self, frame) -> None:
        """Hook fired when one of our own transmissions leaves the air."""
