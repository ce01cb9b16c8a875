"""Path length sweep with and without cross traffic: Fig. 7(a) and 7(b).

A single long-lived TCP flow runs over a line of 2..7 hops (the longest
path length reported in the opportunistic-routing literature, per the
paper); in Fig. 7(b) a saturating 3-hop cross flow shares the middle
relay.  Throughput falls with distance and RIPPLE stays on top; beyond
5 hops the end points cannot hear each other at all, so RIPPLE's
performance "depends entirely on the forwarders' help".
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.grids import scenario_grid, topology_axis
from repro.experiments.runner import ScenarioConfig
from repro.topology.standard import line_topology

#: Schemes plotted in Fig. 7.
HOPS_SCHEMES: tuple[str, ...] = ("D", "A", "R16")


def hops_grid(
    hop_counts: Sequence[int] = (2, 3, 4, 5, 6, 7),
    cross_traffic: bool = False,
    schemes: Sequence[str] = HOPS_SCHEMES,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, int]]]:
    """The declarative config grid for Fig. 7.

    Returns ``(configs, keys)`` where each key is the ``(scheme label,
    hop count)`` cell the same-index config fills.
    """
    base = ScenarioConfig(
        topology=line_topology(hop_counts[0], cross_traffic=cross_traffic),
        route_set="ROUTE0",
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(
        base,
        {
            "scheme_label": schemes,
            "n_hops": topology_axis(
                hop_counts, lambda hops: line_topology(hops, cross_traffic=cross_traffic)
            ),
        },
    )
