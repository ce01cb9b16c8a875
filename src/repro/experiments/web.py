"""Short-lived TCP transfers (web traffic): Fig. 8.

The Fig. 1 topology carries 10 ON/OFF web flows between each of the three
source/destination pairs (flows 1-10 on 0→3, 11-20 on 0→4, 21-30 on
5→7): Pareto transfer sizes (mean 80 KB, shape 1.5) separated by
exponential think times (mean 1 s).  Fig. 8 plots the sum throughput of
all active flows for DCF, AFR and RIPPLE on ROUTE0.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.grids import scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.topology.standard import web_topology

#: Schemes plotted in Fig. 8.
WEB_SCHEMES: tuple[str, ...] = ("D", "A", "R16")
#: Number of web users per source/destination pair (Section IV-D).
WEB_FLOWS_PER_PAIR = 10


def web_grid(
    schemes: Sequence[str] = WEB_SCHEMES,
    flows_per_pair: int = WEB_FLOWS_PER_PAIR,
    bit_error_rate: float = 1e-6,
    duration_s: float = 2.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[str]]:
    """The declarative config grid for Fig. 8: one run per scheme, keyed by its label."""
    base = ScenarioConfig(
        topology=web_topology(flows_per_pair),
        route_set="ROUTE0",
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(base, {"scheme_label": schemes})
