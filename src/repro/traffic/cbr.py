"""The saturating UDP source.

The "hidden" background flows in Fig. 5(b) and in the Wigle / Roofnet
experiments each send millions of packets during the run — i.e. they are
effectively saturating sources whose only job is to keep the air busy.
:class:`SaturatingSource` keeps the sender's MAC interface queue topped
up, so the flow is always backlogged without scheduling an event per
(mostly dropped) packet.  The ``cbr`` traffic kind is an alias of
``udp-saturating``, which installs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Simulator
from repro.sim.units import ms
from repro.transport.udp import UdpSender


@dataclass
class CbrStats:
    """Counters for a saturating source."""

    packets_sent: int = 0


class SaturatingSource:
    """Keeps the local MAC queue full so the flow is always backlogged.

    The source polls its node's interface queue every ``poll_interval_ns``
    and refills it to capacity; this emulates an application writing as
    fast as the network accepts without generating one simulator event per
    dropped packet.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: UdpSender,
        mac,
        packet_bytes: int = 1000,
        poll_interval_ns: int = ms(2),
        headroom: int = 2,
    ) -> None:
        self.sim = sim
        self.sender = sender
        self.mac = mac
        self.packet_bytes = packet_bytes
        self.poll_interval_ns = int(poll_interval_ns)
        self.headroom = headroom
        self.stats = CbrStats()
        self._running = False

    def start(self, initial_delay_ns: int = 0) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(initial_delay_ns, self._refill)

    def _refill(self) -> None:
        capacity = self.mac.queue.capacity
        space = capacity - len(self.mac.queue) - self.headroom
        for _ in range(max(0, space)):
            self.sender.send(self.packet_bytes)
            self.stats.packets_sent += 1
        self.sim.schedule(self.poll_interval_ns, self._refill)
