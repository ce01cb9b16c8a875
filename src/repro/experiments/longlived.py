"""Long-lived TCP transfers: Figs. 3 and 4 of the paper.

Each panel of Fig. 3 (BER 1e-6) and Fig. 4 (BER 1e-5) uses one of the
predetermined route sets of Table II (ROUTE0/1/2) and plots, for 1, 2 and
3 simultaneously active flows, the throughput of the five schemes
S / D / R1 / A / R16.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.experiments.grids import Axis, scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.spec import DEFAULT_SCHEME_LABELS
from repro.topology.standard import fig1_topology

#: Flow activation sets used by the figures: flow 1, flows 1+2, flows 1+2+3.
FLOW_SETS: Tuple[Tuple[int, ...], ...] = ((1,), (1, 2), (1, 2, 3))


def longlived_panel_grid(
    route_set: str = "ROUTE0",
    bit_error_rate: float = 1e-6,
    scheme_labels: Sequence[str] = DEFAULT_SCHEME_LABELS,
    flow_sets: Sequence[Tuple[int, ...]] = FLOW_SETS,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, int]]]:
    """The declarative config grid for one panel.

    Returns ``(configs, keys)`` where each key is the ``(scheme label,
    flow count)`` cell the same-index config fills.
    """
    base = ScenarioConfig(
        topology=fig1_topology(),
        route_set=route_set,
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(
        base,
        {
            "scheme_label": scheme_labels,
            "active_flows": Axis(
                flow_sets,
                bind=lambda config, flows: replace(config, active_flows=list(flows)),
                key=len,
            ),
        },
    )
