"""Half-duplex radio attached to the shared wireless channel.

A :class:`Radio` models one station's transceiver under the standard NS-2
no-capture collision model: two overlapping sensed signals at a receiver
destroy each other, and a half-duplex radio decodes nothing that overlaps
its own transmission.  This is how both "regular" and "hidden" collisions
from Section III arise — a hidden terminal's signal is not sensed by the
transmitter but still collides at the receiver.

So a signal is *clean* only while it is alone in the air and the radio is
not transmitting, and at most one signal is clean at any time.  Instead of
a record per arriving signal the radio keeps ``_sensing``, the number of
sensed signals in the air, and ``_clean``, the one clean decodable
:class:`~repro.phy.channel.Transmission` or ``None``.  Each signal
callback gets the frame's transmission when this radio can decode it and
``None`` when it can only sense it.  A start on an idle radio sets
``_clean``; any other start, and any transmission of our own, clears it.
A decodable signal whose end finds it still in ``_clean`` is decoded; any
other decodable signal counts as a collision.

A clean frame goes to the MAC only if :meth:`~repro.mac.base.MacLayer.acts_on`
accepts it: by default, if this station is the frame's receiver or final
destination or is on its forwarder list.  Any other clean frame the radio
counts as decoded without drawing its header's fate, and adds the
bit-error uniforms the frame would have drawn to :attr:`Radio.owed`, its
count per sender of what it owes that link's stream.  The channel skips
them before the next frame the MAC acts on over the link (see
:mod:`repro.phy.channel`), so each frame the MAC does get reads the draws
it would if every frame drew.

The radio reports three things to the MAC attached to it:

* channel busy / idle transitions (used for backoff freezing and for the
  "idle for ``i * slot + SIFS``" timers of RIPPLE's mTXOP),
* successfully decoded frames together with per-sub-packet error flags,
* completion of its own transmissions.

Busy/idle edges reach the MAC only while :attr:`Radio.mac_active` is true.
A MAC whose edge callbacks do nothing unless it is contending or has a
timer waiting on the medium opts out of the rest when it is built
(:attr:`~repro.mac.base.MacLayer.needs_every_edge` False) and holds the
flag only for those spells (:meth:`Radio.hold_mac_active`); reasons are
counted, so two that overlap, such as RIPPLE contending with a relay
pending, keep it set until both are released.  Any other MAC keeps the
flag set for good and gets every edge.  On a mesh most stations spend
most of the time in neither state, so most edges cost the radio its
carrier-sense bookkeeping and no call.  That bookkeeping (``_sensing``,
:attr:`busy`, ``_clean``, ``_idle_since``) still runs at every edge, so
whatever the MAC reads when it wakes is current.

With routes fixed for the run, a station no route reaches gets no signal
at all (:meth:`~repro.phy.channel.WirelessChannel.restrict_dispatch`):
its radio stays idle and its counters stay at zero, since what it would
sense changes nothing another station does.  So :class:`RadioStats`
count the signals of reachable stations only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.phy.channel import Transmission, WirelessChannel


class RadioState(enum.Enum):
    """Coarse transceiver state, mostly useful for assertions and debugging."""

    IDLE = "idle"
    RECEIVING = "receiving"
    TRANSMITTING = "transmitting"


@dataclass(slots=True)
class RadioStats:
    """Per-radio PHY counters used by tests and the experiment reports.

    ``frames_decoded`` counts the clean frames the MAC got, with a header
    that survived its bit-error draw, and every clean frame the MAC does
    not act on, whose header is never drawn.  ``frames_header_error``
    counts only frames the MAC acts on.  Their sum is every clean frame.
    """

    frames_sent: int = 0
    frames_decoded: int = 0
    frames_collided: int = 0
    frames_header_error: int = 0
    airtime_tx_ns: int = 0


class Radio:
    """A station's half-duplex transceiver."""

    __slots__ = (
        "node_id",
        "channel",
        "busy",
        "_sim",
        "_position",
        "mac",
        "stats",
        "_current_tx",
        "_sensing",
        "_clean",
        "_idle_since",
        "mac_active",
        "_mac_holds",
        "owed",
    )

    def __init__(self, node_id: int, position: tuple[float, float], channel: "WirelessChannel") -> None:
        self.node_id = node_id
        self.channel = channel
        self._sim = channel.sim
        self._position = (float(position[0]), float(position[1]))
        self.mac = None  # attached later by the node wiring
        #: Whether busy/idle edges are handed to the MAC (module notes).
        self.mac_active = False
        self._mac_holds = 0
        self.stats = RadioStats()
        self._current_tx: Optional["Transmission"] = None
        #: Sensed signals in the air, and the clean one (module notes).
        self._sensing = 0
        self._clean: Optional["Transmission"] = None
        self._idle_since: int = 0
        #: Bit-error uniforms owed per sender node id (module notes); one
        #: entry per sender whose frames this radio decodes, so no cap.
        self.owed: Dict[int, int] = {}
        #: Carrier-sense state as a plain attribute: maintained at every
        #: state transition below so the MAC's hottest query (one or more
        #: reads per slot timer) is a single attribute load instead of a
        #: property call re-deriving it from the transmission and the count.
        self.busy = False
        channel.register(self)

    @property
    def position(self) -> tuple[float, float]:
        """Current location in metres."""
        return self._position

    @position.setter
    def position(self, value: tuple[float, float]) -> None:
        # Assigning the public attribute must never leave the channel's
        # per-pair geometry cache stale, so the setter notifies it.
        self._position = (float(value[0]), float(value[1]))
        self.channel.notify_position_changed(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_mac(self, mac) -> None:
        """Attach the MAC entity that will receive this radio's callbacks.

        Besides the ``on_*`` callbacks the radio calls ``acts_on(frame)``
        before it hands a frame over (see :class:`~repro.mac.base.MacLayer`).
        A MAC whose ``needs_every_edge`` is False gets ``on_channel_busy``
        and ``on_channel_idle`` only while it holds :attr:`mac_active`
        (:meth:`hold_mac_active`); any other MAC, including one without
        the attribute, gets every edge.
        """
        self.mac = mac
        self._mac_holds = int(mac is not None and getattr(mac, "needs_every_edge", True))
        self.mac_active = self._mac_holds > 0

    def hold_mac_active(self) -> None:
        """Add one reason for the MAC to get busy/idle edges."""
        self._mac_holds += 1
        self.mac_active = True

    def release_mac_active(self) -> None:
        """Drop one reason added by :meth:`hold_mac_active`."""
        self._mac_holds -= 1
        self.mac_active = self._mac_holds > 0

    # ------------------------------------------------------------------
    # Mobility
    # ------------------------------------------------------------------
    def move_to(self, position: tuple[float, float]) -> None:
        """Relocate this radio (mobility tick).

        Future transmissions — in either direction — use the new position;
        signals already in flight keep the geometry they were launched
        with, like a real wavefront.  The position setter notifies the
        channel so it drops any cached per-pair geometry.
        """
        self.position = position

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        if self._current_tx is not None:
            return RadioState.TRANSMITTING
        if self._sensing:
            return RadioState.RECEIVING
        return RadioState.IDLE

    @property
    def is_transmitting(self) -> bool:
        return self._current_tx is not None

    @property
    def is_channel_busy(self) -> bool:
        """Carrier-sense result: busy while transmitting or sensing any signal.

        Equal to the :attr:`busy` attribute, which hot paths read directly.
        """
        return self.busy

    @property
    def idle_since(self) -> int:
        """Simulation time at which the channel last became idle at this radio."""
        return self._idle_since

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, frame, duration_ns: int) -> "Transmission":
        """Start transmitting ``frame`` for ``duration_ns``.

        The MAC is responsible for having performed carrier sensing; if it
        transmits anyway while signals are arriving, those receptions are
        destroyed (this is exactly what happens to a real half-duplex radio).
        """
        was_busy = self.busy
        transmission = self.channel.start_transmission(self, frame, duration_ns)
        self._current_tx = transmission
        self._clean = None
        self.busy = True
        self.stats.frames_sent += 1
        self.stats.airtime_tx_ns += duration_ns
        if not was_busy and self.mac_active:
            self.mac.on_channel_busy()
        return transmission

    def _end_own_transmission(self, transmission: "Transmission") -> None:
        """Channel callback: our own transmission just finished."""
        self._current_tx = None
        if not self._sensing:
            self.busy = False
            self._idle_since = self._sim.now
            if self.mac_active:
                self.mac.on_channel_idle()
        if self.mac is not None:
            self.mac.on_transmission_complete(transmission.frame)

    # ------------------------------------------------------------------
    # Reception (channel callbacks)
    # ------------------------------------------------------------------
    # ``transmission`` is the arriving frame's Transmission when this radio
    # can decode it and None when it can only sense it.
    def _signal_start(self, transmission: Optional["Transmission"]) -> None:
        self._sensing += 1
        if self.busy:
            # No capture, half duplex: the new signal and any clean one are lost.
            self._clean = None
        else:
            self._clean = transmission
            self.busy = True
            if self.mac_active:
                self.mac.on_channel_busy()

    def _signal_end(self, transmission: Optional["Transmission"]) -> None:
        # Read before the idle edge: a MAC that transmits from
        # on_channel_idle must not destroy the frame whose end freed the
        # channel.
        clean = self._clean
        self._sensing -= 1
        # Update carrier-sense state *before* delivering the frame: protocol
        # timers of the form "channel idle for T" (RIPPLE's relay deferral)
        # must see the idle period as starting at the end of this frame.
        if not self._sensing and self._current_tx is None:
            self._clean = None
            self.busy = False
            self._idle_since = self._sim.now
            if self.mac_active:
                self.mac.on_channel_idle()
        if transmission is None:
            return
        if clean is not transmission:
            self.stats.frames_collided += 1
            return
        # Delivery is inlined here (not a helper) because this callback runs
        # once per sensed signal — the busiest event class in every workload.
        # Passing both ends of the link routes the draws through the keyed
        # per-link bit-error stream (independence across forwarders).
        frame = transmission.frame
        mac = self.mac
        if mac is not None and mac.acts_on(frame):
            result = self.channel.apply_bit_errors(frame, receiver=self, sender=transmission.sender)
            if result.header_ok:
                self.stats.frames_decoded += 1
                mac.on_frame_received(frame, result)
            else:
                self.stats.frames_header_error += 1
        else:
            # Its header's fate would decide nothing: count it decoded, and
            # owe the link the draws.
            self.stats.frames_decoded += 1
            owed = self.owed
            sender_id = transmission.sender.node_id
            owed[sender_id] = owed.get(sender_id, 0) + 1 + len(frame.subpackets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Radio(node={self.node_id}, state={self.state.value})"
