"""Roofnet topology throughput measurements: Fig. 12(a)-(d).

Source/destination pairs 3, 4 and 5 relay hops apart (two examples of
each, labelled ``3(1)``, ``3(2)``, ... as in the paper) are measured one
at a time on the synthetic Roofnet-like layout, at 6 Mb/s and 216 Mb/s,
with and without nearby hidden terminals, under DCF, AFR and RIPPLE.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.experiments.grids import Axis, scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.phy.params import HIGH_RATE_PHY, LOW_RATE_PHY, PhyParams
from repro.topology.roofnet import roofnet_scenario

#: Schemes plotted in Fig. 12.
ROOFNET_SCHEMES: tuple[str, ...] = ("D", "A", "R16")


def phy_for_rate(data_rate_mbps: float) -> PhyParams:
    """The PHY profile of a Fig. 10 / Fig. 12 panel's data rate."""
    if data_rate_mbps >= 100:
        return HIGH_RATE_PHY
    return LOW_RATE_PHY


def roofnet_grid(
    data_rate_mbps: float = 6.0,
    hidden_terminals: bool = False,
    schemes: Sequence[str] = ROOFNET_SCHEMES,
    hop_counts: Tuple[int, ...] = (3, 3, 4, 4, 5, 5),
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 7,
    max_flows: int | None = None,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, str]]]:
    """The declarative config grid for one Fig. 12 panel.

    Returns ``(configs, keys)`` where each key is the ``(scheme label,
    pair label)`` the same-index config measures; the measured flow is its
    first active flow.
    """
    topology = roofnet_scenario(hop_counts=hop_counts, include_hidden=hidden_terminals, seed=seed)
    measured = [flow for flow in topology.flows if flow.kind == "tcp"]
    if max_flows is not None:
        measured = measured[:max_flows]
    hidden = {flow.flow_id: flow for flow in topology.flows if flow.kind != "tcp"}

    def activate(config: ScenarioConfig, indexed) -> ScenarioConfig:
        index, flow = indexed
        active = [flow.flow_id]
        if hidden_terminals:
            hidden_id = 200 + index
            if hidden_id in hidden:
                active.append(hidden_id)
        return replace(config, active_flows=active)

    base = ScenarioConfig(
        topology=topology,
        route_set="ROUTE0",
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
        phy=phy_for_rate(data_rate_mbps),
    )
    return scenario_grid(
        base,
        {
            "scheme_label": schemes,
            "pair": Axis(
                list(enumerate(measured)),
                bind=activate,
                key=lambda indexed: indexed[1].label,
            ),
        },
    )
