"""Congestion-control grid: does the MAC verdict survive the transport?

The paper's figures fix TCP Reno (the NS-2 default of its era) and vary
the MAC.  With congestion control now a registry
(:data:`repro.transport.registry.TRANSPORT_SCHEMES`), the obvious
follow-up question is runnable: sweep *transport × MAC* on the same
topology and see whether RIPPLE's ordering advantage holds under Tahoe's
collapse-on-dupack, RFC 6582 NewReno and time-based Cubic.  Two panels:
a clean 3-hop line (``topology="line"``) and a 3-hop Roofnet pair
(``topology="roofnet"``), both long-lived TCP.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.experiments.grids import Axis, scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.spec import TransportSpec
from repro.topology.standard import line_topology

#: Transport schemes swept by the family (every registered controller).
CONGESTION_TRANSPORTS: Tuple[str, ...] = ("reno", "tahoe", "newreno", "cubic")

#: MAC schemes compared per transport (the paper's baseline and RIPPLE).
CONGESTION_SCHEMES: Tuple[str, ...] = ("D", "R16")


def transport_axis(names: Sequence[str]) -> Axis:
    """An axis sweeping the scenario-level :class:`TransportSpec` by name."""
    return Axis(
        values=tuple(names),
        bind=lambda config, name: replace(config, transport=TransportSpec(name)),
    )


def _panel_topology(topology: str, seed: int):
    if topology == "line":
        return line_topology(3), [1]
    if topology == "roofnet":
        from repro.topology.roofnet import roofnet_scenario

        spec = roofnet_scenario(hop_counts=(3,), seed=seed)
        return spec, [spec.flows[0].flow_id]
    raise ValueError(f"unknown congestion panel topology {topology!r}; use 'line' or 'roofnet'")


def congestion_grid(
    topology: str = "line",
    transports: Sequence[str] = CONGESTION_TRANSPORTS,
    schemes: Sequence[str] = CONGESTION_SCHEMES,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, str]]]:
    """The declarative transport × MAC grid for one panel.

    Returns ``(configs, keys)`` where each key is the ``(transport name,
    scheme label)`` cell the same-index config fills.
    """
    spec, active = _panel_topology(topology, seed)
    base = ScenarioConfig(
        topology=spec,
        route_set="ROUTE0",
        active_flows=active,
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(
        base,
        {
            "transport": transport_axis(transports),
            "scheme_label": schemes,
        },
    )
