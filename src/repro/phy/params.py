"""Physical-layer parameters (Table I of the paper).

Two PHY profiles are used in the evaluation:

* a high-rate profile — 216 Mb/s data rate, 54 Mb/s basic (control) rate —
  used for the TCP experiments (Figs. 3-8), and
* a low-rate profile — 6 Mb/s for both data and basic rate — used for the
  VoIP experiments (Table III) and the large Wigle/Roofnet topologies
  (Figs. 10 and 12).

The PLCP preamble + header occupies a fixed 20 microseconds regardless of
rate (``T_phyhdr`` in the paper's overhead formulas).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.serialization import Wire
from repro.sim.units import transmission_time_ns, us


@dataclass(frozen=True)
class PhyParams(Wire):
    """Radio and modulation parameters shared by every node in a scenario."""

    data_rate_bps: float = 216e6
    basic_rate_bps: float = 54e6
    phy_header_ns: int = us(20)
    tx_power_dbm: float = 24.49  # 281 mW, Section IV
    rx_threshold_dbm: float = -135.5  # nominal decode range ~250 m (see propagation)
    cs_threshold_dbm: float = -145.5  # nominal carrier-sense range ~400 m
    noise_floor_dbm: float = -170.0
    #: How many standard deviations the shadowing model's fade draws are
    #: clipped at — the margin that decides how aggressively the channel's
    #: receiver cull can prune dense meshes (6σ ≈ a 2e-9 clip probability;
    #: 4σ ≈ 3e-5 trades a statistically tiny model deviation for a much
    #: tighter cull radius).  Sweepable through the config/spec layer.
    max_deviation_sigmas: float = 6.0
    #: Which propagation model the channel installs, by name in
    #: :data:`repro.phy.registry.PROPAGATION_MODELS` (``shadowing`` — the
    #: paper's log-normal model — ``rayleigh``, ``rician``).
    propagation: str = "shadowing"
    #: Model-specific builder parameters (e.g. ``{"k_factor": 8}`` for
    #: ``rician``); None means "all defaults".
    propagation_params: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        from repro.phy.registry import PROPAGATION_MODELS

        if self.propagation not in PROPAGATION_MODELS:
            raise ValueError(
                f"unknown propagation model {self.propagation!r}; "
                f"known: {PROPAGATION_MODELS.known_names()}"
            )
        if self.propagation_params is not None and not isinstance(self.propagation_params, dict):
            raise ValueError(
                f"propagation_params must be a dict or None, "
                f"got {type(self.propagation_params).__name__}"
            )

    def build_propagation(self):
        """The propagation model instance these parameters select."""
        from repro.phy.registry import build_propagation

        return build_propagation(self)

    def data_airtime_ns(self, payload_bits: int) -> int:
        """Airtime of a frame body of ``payload_bits`` at the data rate, plus PLCP."""
        return self.phy_header_ns + transmission_time_ns(payload_bits, self.data_rate_bps)

    def control_airtime_ns(self, payload_bits: int) -> int:
        """Airtime of a control frame (ACK) of ``payload_bits`` at the basic rate, plus PLCP."""
        return self.phy_header_ns + transmission_time_ns(payload_bits, self.basic_rate_bps)

    def with_rates(self, data_rate_bps: float, basic_rate_bps: float) -> "PhyParams":
        """A copy of these parameters with different data / basic rates."""
        return replace(self, data_rate_bps=data_rate_bps, basic_rate_bps=basic_rate_bps)


#: The default high-rate profile from Table I (216 / 54 Mb/s).
HIGH_RATE_PHY = PhyParams()

#: The low-rate profile used for VoIP and the large topologies (6 / 6 Mb/s).
LOW_RATE_PHY = PhyParams(data_rate_bps=6e6, basic_rate_bps=6e6)
