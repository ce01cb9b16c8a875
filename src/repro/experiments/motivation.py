"""Section II motivation numbers: why preExOR / MCExOR hurt interactive traffic.

The paper reports, for a single 10-second TCP flow from station 0 to
station 3 of Fig. 1 (BER 1e-6, Table I parameters):

* total throughput — SPR 6.7 Mb/s, preExOR 5.9 Mb/s, MCExOR 5.85 Mb/s
  (i.e. the opportunistic schemes are *worse* than predetermined routing);
* re-ordering — 26.58 % of TCP packets arrive out of order under preExOR
  and 27.9 % under MCExOR, against essentially none for predetermined
  routing.

This module reproduces that comparison.  "SPR" here is the good multi-hop
route (the 0-1-2-3 path of ROUTE0), which is what the paper's shortest
path routing selects once the direct link is excluded by its quality.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.grids import Axis, scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.topology.standard import fig1_topology

#: Scheme labels compared in Section II, in presentation order.
MOTIVATION_SCHEMES: tuple[str, ...] = ("D", "preExOR", "MCExOR")


def motivation_grid(
    duration_s: float = 1.0,
    bit_error_rate: float = 1e-6,
    seed: int = 1,
    schemes: Sequence[str] = MOTIVATION_SCHEMES,
    active_flows: Sequence[int] = (1,),
) -> Tuple[List[ScenarioConfig], List[str]]:
    """The declarative config grid: one run per scheme, keyed by its Section II name.

    D is the paper's SPR; other labels name themselves.
    """
    base = ScenarioConfig(
        topology=fig1_topology(),
        route_set="ROUTE0",
        active_flows=list(active_flows),
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(
        base,
        {"scheme_label": Axis(schemes, key=lambda label: "SPR" if label == "D" else label)},
    )
