"""Short-lived TCP transfers mimicking web traffic (Section IV-D).

Each web flow alternates ON and OFF periods: during ON the user downloads
an object whose size follows a Pareto distribution with mean 80 KB and
shape parameter 1.5 (heavy-tailed, so the aggregate of many such sources
is long-range dependent, as the paper requires); the OFF ("reading") time
is exponential with a one-second mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.units import seconds
from repro.transport.tcp import TcpSender


def pareto_transfer_bytes(rng: np.random.Generator, mean_bytes: float, shape: float) -> int:
    """Draw a transfer size from a classical Pareto distribution with the given mean.

    For shape ``a > 1`` the classical Pareto with scale ``x_m`` has mean
    ``a x_m / (a - 1)``; we invert that to hit the requested mean.  NumPy's
    ``pareto`` draws from the Lomax distribution, so we shift by one and
    scale.
    """
    if shape <= 1.0:
        raise ValueError("Pareto shape must exceed 1 for the mean to exist")
    scale = mean_bytes * (shape - 1.0) / shape
    return max(1, int(round(scale * (1.0 + rng.pareto(shape)))))


@dataclass
class WebFlowStats:
    """Counters for one ON/OFF web flow."""

    transfers_started: int = 0
    transfers_completed: int = 0
    bytes_requested: int = 0


class WebFlow:
    """One ON/OFF web user riding on a persistent TCP connection."""

    def __init__(
        self,
        sim: Simulator,
        sender: TcpSender,
        rng: np.random.Generator,
        mean_transfer_bytes: float = 80_000.0,
        pareto_shape: float = 1.5,
        mean_off_time_s: float = 1.0,
    ) -> None:
        self.sim = sim
        self.sender = sender
        self.rng = rng
        self.mean_transfer_bytes = mean_transfer_bytes
        self.pareto_shape = pareto_shape
        self.mean_off_time_s = mean_off_time_s
        self.stats = WebFlowStats()
        self._running = False

    def start(self, initial_delay_ns: int = 0) -> None:
        """Start the ON/OFF cycle (optionally staggered by ``initial_delay_ns``)."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(initial_delay_ns, self._begin_transfer)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _begin_transfer(self) -> None:
        size = pareto_transfer_bytes(self.rng, self.mean_transfer_bytes, self.pareto_shape)
        self.stats.transfers_started += 1
        self.stats.bytes_requested += size
        self.sender.on_transfer_complete(self._transfer_done)
        self.sender.send_bytes(size)

    def _transfer_done(self) -> None:
        self.stats.transfers_completed += 1
        off_time = self.rng.exponential(self.mean_off_time_s)
        self.sim.schedule(seconds(off_time), self._begin_transfer)
