"""Poisson session traffic: memoryless arrivals with exponential holding times.

The classic telephony/teletraffic source model (an M/M/∞ session
process): sessions arrive as a Poisson process of rate
``arrival_rate_hz`` and each session, independently, transmits
fixed-interval UDP packets for an exponentially distributed holding time
of mean ``mean_holding_s``.  Sessions overlap freely, so the instantaneous
offered load is ``bitrate_bps`` times the number of concurrently active
sessions — bursty at small arrival rates, smoothing toward
``arrival_rate_hz * mean_holding_s * bitrate_bps`` as sessions stack.

All randomness (inter-arrival and holding draws) comes from the single
keyed generator handed in by the installer
(``network.rng.stream_for("poisson", flow_id)``), so a flow's session
schedule is a pure function of ``(seed, flow_id)`` — independent of other
flows and of sweep parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.units import ms, seconds
from repro.transport.udp import UdpSender


@dataclass
class PoissonFlowStats:
    """Sender-side counters for one Poisson session flow."""

    packets_sent: int = 0
    sessions_started: int = 0
    sessions_active: int = 0


class PoissonFlow:
    """Overlapping Poisson-arriving packet sessions over one UDP sender."""

    def __init__(
        self,
        sim: Simulator,
        sender: UdpSender,
        rng: np.random.Generator,
        arrival_rate_hz: float = 4.0,
        mean_holding_s: float = 0.5,
        bitrate_bps: float = 400_000.0,
        packet_interval_ms: float = 10.0,
    ) -> None:
        if arrival_rate_hz <= 0:
            raise ValueError("arrival_rate_hz must be positive")
        if mean_holding_s <= 0:
            raise ValueError("mean_holding_s must be positive")
        self.sim = sim
        self.sender = sender
        self.rng = rng
        self.arrival_rate_hz = float(arrival_rate_hz)
        self.mean_holding_s = float(mean_holding_s)
        self.packet_interval_ns = ms(packet_interval_ms)
        self.packet_bytes = max(1, int(round(bitrate_bps * packet_interval_ms / 1000.0 / 8.0)))
        self.stats = PoissonFlowStats()
        self._running = False

    def start(self, initial_delay_ns: int = 0) -> None:
        """Start the arrival process (the first session follows an exp. wait)."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(initial_delay_ns + self._exp_ns(1.0 / self.arrival_rate_hz), self._arrive)

    def reset_stats(self) -> None:
        """Zero sender-side counters at the warmup/measurement boundary."""
        active = self.stats.sessions_active
        self.stats = PoissonFlowStats(sessions_active=active)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _exp_ns(self, mean_s: float) -> int:
        return seconds(float(self.rng.exponential(mean_s)))

    def _arrive(self) -> None:
        # Draw order is fixed (holding, then next inter-arrival) so the
        # sample path is reproducible whatever the event engine interleaves.
        self.stats.sessions_started += 1
        self.stats.sessions_active += 1
        session_end_ns = self.sim.now + self._exp_ns(self.mean_holding_s)
        self._emit(session_end_ns)
        self.sim.schedule(self._exp_ns(1.0 / self.arrival_rate_hz), self._arrive)

    def _emit(self, session_end_ns: int) -> None:
        if self.sim.now >= session_end_ns:
            self.stats.sessions_active -= 1
            return
        self.sender.send(self.packet_bytes)
        self.stats.packets_sent += 1
        self.sim.schedule(self.packet_interval_ns, self._emit, session_end_ns)
