"""VoIP quality (Mean Opinion Score): Table III.

The Fig. 1 topology carries 96 kb/s on-off VoIP streams over UDP at a
6 Mb/s PHY (both data and basic rates): flows 1-10 between stations 0 and
3, 11-20 between 0 and 4, 21-30 between 5 and 7.  Table III reports the
average MoS when flows 1..10, 1..20 and 1..30 are active, for BER 1e-5
and 1e-6, under DCF/ROUTE0, AFR/ROUTE0 and RIPPLE.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.experiments.grids import Axis, scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.phy.params import LOW_RATE_PHY
from repro.topology.standard import voip_topology

#: Schemes reported in Table III.
VOIP_SCHEMES: tuple[str, ...] = ("D", "A", "R16")
#: Flow-count groups reported in Table III ("1..10", "1..20", "1..30").
VOIP_FLOW_GROUPS: Tuple[int, ...] = (10, 20, 30)


def voip_grid(
    bit_error_rate: float = 1e-6,
    schemes: Sequence[str] = VOIP_SCHEMES,
    flow_groups: Sequence[int] = VOIP_FLOW_GROUPS,
    duration_s: float = 2.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, int]]]:
    """The declarative config grid for one BER column group.

    Returns ``(configs, keys)`` where each key is the ``(scheme label,
    flow count)`` cell the same-index config fills.
    """
    base = ScenarioConfig(
        topology=voip_topology(),
        route_set="ROUTE0",
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
        phy=LOW_RATE_PHY,
    )
    return scenario_grid(
        base,
        {
            "scheme_label": schemes,
            "active_flows": Axis(
                flow_groups,
                bind=lambda config, n: replace(config, active_flows=list(range(1, n + 1))),
            ),
        },
    )
