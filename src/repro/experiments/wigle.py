"""Wigle topology throughput measurements: Fig. 10(a)-(d).

Eight station pairs (1-3 hops apart) on the reconstructed Wigle topology
are measured one at a time, at 6 Mb/s and 216 Mb/s PHY rates, with and
without hidden S→R traffic, under DCF, AFR and RIPPLE (each using the
same predetermined relay path).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.experiments.grids import Axis, scenario_grid
from repro.experiments.roofnet import phy_for_rate
from repro.experiments.runner import ScenarioConfig
from repro.topology.wigle import wigle_topology

#: Schemes plotted in Fig. 10.
WIGLE_SCHEMES: tuple[str, ...] = ("D", "A", "R16")


def wigle_grid(
    data_rate_mbps: float = 6.0,
    hidden_traffic: bool = False,
    schemes: Sequence[str] = WIGLE_SCHEMES,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
    max_flows: int | None = None,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, str]]]:
    """The declarative config grid for one Fig. 10 panel.

    Returns ``(configs, keys)`` where each key is the ``(scheme label,
    flow label)`` the same-index config measures; the measured flow is its
    first active flow.  ``max_flows`` limits how many of the eight measured
    pairs are run; ``None`` runs all eight.
    """
    topology = wigle_topology(include_hidden=True)
    measured = [flow for flow in topology.flows if flow.flow_id < 100]
    if max_flows is not None:
        measured = measured[:max_flows]
    hidden_ids = [flow.flow_id for flow in topology.flows if flow.flow_id >= 100]

    def activate(config: ScenarioConfig, flow) -> ScenarioConfig:
        active = [flow.flow_id] + (hidden_ids if hidden_traffic else [])
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
            "pair": Axis(measured, bind=activate, key=lambda flow: flow.label),
        },
    )
