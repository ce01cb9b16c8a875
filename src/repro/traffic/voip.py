"""VoIP traffic: 96 kb/s exponential on-off streams (Section IV-E).

"To simulate VoIP traffic, we model a 96 kb/s on-off traffic stream with
on and off periods exponentially distributed with mean 1.5 seconds."  The
stream is packetised at a 20 ms frame interval (240-byte payloads at
96 kb/s) and carried over UDP; the receiver records per-packet one-way
delay so the flow can be scored with the E-model
(:mod:`repro.metrics.mos`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.mos import VoipQuality, evaluate_voip
from repro.sim.engine import Simulator
from repro.sim.units import ms, seconds
from repro.transport.udp import UdpReceiver, UdpSender


@dataclass
class VoipFlowStats:
    """Sender-side counters for one VoIP stream."""

    packets_sent: int = 0
    on_periods: int = 0


class VoipFlow:
    """One exponential on-off VoIP stream over UDP."""

    def __init__(
        self,
        sim: Simulator,
        sender: UdpSender,
        receiver: UdpReceiver,
        rng: np.random.Generator,
        bitrate_bps: float = 96_000.0,
        packet_interval_ms: float = 20.0,
        mean_on_s: float = 1.5,
        mean_off_s: float = 1.5,
    ) -> None:
        self.sim = sim
        self.sender = sender
        self.receiver = receiver
        self.rng = rng
        self.packet_interval_ns = ms(packet_interval_ms)
        self.packet_bytes = max(1, int(round(bitrate_bps * packet_interval_ms / 1000.0 / 8.0)))
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.stats = VoipFlowStats()
        self._running = False
        self._on_until_ns = 0

    def start(self, initial_delay_ns: int = 0) -> None:
        """Start the on-off cycle."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(initial_delay_ns, self._begin_on_period)

    def reset_stats(self) -> None:
        """Zero sender-side counters at the warmup/measurement boundary.

        The receiver's delay counters are reset separately (by the experiment
        harness) so :meth:`quality` scores only the measurement window.
        """
        self.stats = VoipFlowStats()

    # ------------------------------------------------------------------
    # Quality
    # ------------------------------------------------------------------
    def quality(self) -> VoipQuality:
        """Score the flow so far with the paper's E-model parameters."""
        return evaluate_voip(self.receiver.stats.on_time, packets_sent=self.stats.packets_sent)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _begin_on_period(self) -> None:
        self.stats.on_periods += 1
        duration = seconds(self.rng.exponential(self.mean_on_s))
        self._on_until_ns = self.sim.now + duration
        self._emit_packet()
        self.sim.schedule(duration, self._begin_off_period)

    def _begin_off_period(self) -> None:
        off = seconds(self.rng.exponential(self.mean_off_s))
        self.sim.schedule(off, self._begin_on_period)

    def _emit_packet(self) -> None:
        if self.sim.now > self._on_until_ns:
            return
        self.sender.send(self.packet_bytes)
        self.stats.packets_sent += 1
        self.sim.schedule(self.packet_interval_ns, self._emit_packet)
