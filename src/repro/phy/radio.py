"""Half-duplex radio attached to the shared wireless channel.

A :class:`Radio` models one station's transceiver.  It tracks

* its own transmissions (a half-duplex radio cannot decode anything while
  it transmits),
* the set of signals currently arriving that are strong enough to be
  *sensed* (these make the channel "busy" for carrier sensing), and
* which of those signals are strong enough to be *decoded*.

Two overlapping sensed signals at a receiver destroy each other (the
standard NS-2 no-capture collision model); this is how both "regular" and
"hidden" collisions from Section III arise — a hidden terminal's signal is
not sensed by the transmitter but still collides at the receiver.

The radio reports three things to the MAC attached to it:

* channel busy / idle transitions (used for backoff freezing and for the
  "idle for ``i * slot + SIFS``" timers of RIPPLE's mTXOP),
* successfully decoded frames together with per-sub-packet error flags,
* completion of its own transmissions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.phy.channel import Transmission, WirelessChannel


class RadioState(enum.Enum):
    """Coarse transceiver state, mostly useful for assertions and debugging."""

    IDLE = "idle"
    RECEIVING = "receiving"
    TRANSMITTING = "transmitting"


@dataclass(slots=True)
class Reception:
    """One signal arriving at one receiver.

    ``slots=True``: one Reception is allocated per sensed receiver per
    frame, squarely on the dispatch hot path.
    """

    transmission: "Transmission"
    power_dbm: float
    decodable: bool
    interfered: bool = False


@dataclass(slots=True)
class RadioStats:
    """Per-radio PHY counters used by tests and the experiment reports."""

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
        "_tx_until",
        "_current_tx",
        "_receptions",
        "_idle_since",
    )

    def __init__(self, node_id: int, position: tuple[float, float], channel: "WirelessChannel") -> None:
        self.node_id = node_id
        self.channel = channel
        self._sim = channel.sim
        self._position = (float(position[0]), float(position[1]))
        self.mac = None  # attached later by the node wiring
        self.stats = RadioStats()
        self._tx_until: Optional[int] = None
        self._current_tx: Optional["Transmission"] = None
        self._receptions: Dict[int, Reception] = {}
        self._idle_since: int = 0
        #: Carrier-sense state as a plain attribute: maintained at every
        #: state transition below so the MAC's hottest query (one or more
        #: reads per slot timer) is a single attribute load instead of a
        #: property call re-deriving it from the transmission/reception sets.
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
        """Attach the MAC entity that will receive this radio's callbacks."""
        self.mac = mac

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
        if self._receptions:
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
        self._tx_until = transmission.end_time
        self.busy = True
        for reception in self._receptions.values():
            reception.interfered = True
        self.stats.frames_sent += 1
        self.stats.airtime_tx_ns += duration_ns
        if not was_busy and self.mac is not None:
            self.mac.on_channel_busy()
        return transmission

    def _end_own_transmission(self, transmission: "Transmission") -> None:
        """Channel callback: our own transmission just finished."""
        self._current_tx = None
        self._tx_until = None
        if not self._receptions:
            self.busy = False
            self._idle_since = self._sim.now
            if self.mac is not None:
                self.mac.on_channel_idle()
        if self.mac is not None:
            self.mac.on_transmission_complete(transmission.frame)

    # ------------------------------------------------------------------
    # Reception (channel callbacks)
    # ------------------------------------------------------------------
    def _signal_start(self, reception: Reception) -> None:
        was_busy = self.busy
        if self._current_tx is not None:
            reception.interfered = True
        if self._receptions:
            # No capture: a new overlapping signal corrupts everything in the air.
            reception.interfered = True
            for other in self._receptions.values():
                other.interfered = True
        self._receptions[reception.transmission.transmission_id] = reception
        self.busy = True
        if not was_busy and self.mac is not None:
            self.mac.on_channel_busy()

    def _signal_end(self, reception: Reception) -> None:
        self._receptions.pop(reception.transmission.transmission_id, None)
        # Update carrier-sense state *before* delivering the frame: protocol
        # timers of the form "channel idle for T" (RIPPLE's relay deferral)
        # must see the idle period as starting at the end of this frame.
        if self._current_tx is None and not self._receptions:
            self.busy = False
            self._idle_since = self._sim.now
            if self.mac is not None:
                self.mac.on_channel_idle()
        # Delivery is inlined here (not a helper) because this callback runs
        # once per sensed signal — the busiest event class in every workload.
        if reception.decodable:
            if reception.interfered:
                self.stats.frames_collided += 1
            else:
                transmission = reception.transmission
                frame = transmission.frame
                # Passing both ends of the link routes the draws through the
                # keyed per-link bit-error stream (independence across
                # forwarders).
                result = self.channel.apply_bit_errors(
                    frame, receiver=self, sender=transmission.sender
                )
                if not result.header_ok:
                    self.stats.frames_header_error += 1
                else:
                    self.stats.frames_decoded += 1
                    if self.mac is not None:
                        self.mac.on_frame_received(frame, result)
        # Both ends of the window have fired and the reception is out of
        # every tracking structure: hand it back to the channel's free pool.
        self.channel._recycle_reception(reception)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Radio(node={self.node_id}, state={self.state.value})"
