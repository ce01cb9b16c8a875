"""Mobility experiment family: scheme × node-speed sweeps.

The paper evaluates RIPPLE only on fixed layouts; this family asks the
question every real mesh deployment faces — *how do the schemes degrade
as stations move?* — by re-running two of the paper's workloads under
random-waypoint mobility at increasing node speeds:

* **TCP** (``mobility-tcp``): the Fig. 1 long-lived transfer (flow 1,
  0 → 3) — D/A/R1/R16 throughput bars vs speed;
* **VoIP** (``mobility-voip``): the Table III 96 kb/s on-off streams —
  mean MoS bars vs speed.

Speed 0 uses a static random-waypoint spec, so the leftmost bar group of
each panel reproduces the paper's fixed-topology numbers (predetermined
ROUTE0 paths) exactly.  Any non-zero speed also switches route
maintenance on: the scenario builder swaps the predetermined routes for
:class:`~repro.routing.dynamic.AdaptiveEtxRouting` driven by periodic
link re-estimation (see :func:`~repro.experiments.runner.build_network`).
The non-zero bars therefore measure the combined deployment reality —
motion *plus* live ETX route maintenance — not motion in isolation; to
isolate the effect of speed, compare non-zero speeds against each other
(they share the adaptive-routing pipeline and differ only in how fast
links churn).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.experiments.grids import Axis, scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.mobility.spec import MobilitySpec
from repro.phy.params import LOW_RATE_PHY
from repro.topology.standard import fig1_topology, voip_topology

#: Node speeds (m/s) the panels sweep: pedestrian through vehicular.
MOBILITY_SPEEDS_MPS: Tuple[float, ...] = (0.0, 1.0, 2.5, 5.0, 10.0)
#: Schemes compared (the paper's D/A/R1/R16 bars; no "S" — a direct route
#: between moving end points is not meaningful).
MOBILITY_SCHEMES: Tuple[str, ...] = ("D", "A", "R1", "R16")
#: Position-update / link re-estimation cadence for the sweeps (seconds).
UPDATE_INTERVAL_S = 0.05
REESTIMATE_INTERVAL_S = 0.25


def mobility_spec(speed_mps: float, pause_s: float = 0.5) -> MobilitySpec:
    """The random-waypoint spec one sweep point uses (static at speed 0)."""
    return MobilitySpec.random_waypoint(
        float(speed_mps),
        pause_s=pause_s,
        update_interval_s=UPDATE_INTERVAL_S,
        reestimate_interval_s=REESTIMATE_INTERVAL_S,
    )


def mobility_tcp_grid(
    speeds: Sequence[float] = MOBILITY_SPEEDS_MPS,
    schemes: Sequence[str] = MOBILITY_SCHEMES,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, float]]]:
    """The declarative grid for the TCP panel: ``(configs, (scheme, speed) keys)``."""
    base = ScenarioConfig(
        topology=fig1_topology(),
        route_set="ROUTE0",
        active_flows=[1],
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(
        base,
        {
            "scheme_label": schemes,
            "speed": Axis(
                speeds,
                bind=lambda config, speed: replace(config, mobility=mobility_spec(speed)),
                key=float,
            ),
        },
    )


def mobility_voip_grid(
    speeds: Sequence[float] = MOBILITY_SPEEDS_MPS,
    schemes: Sequence[str] = MOBILITY_SCHEMES,
    n_flows: int = 10,
    duration_s: float = 2.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, float]]]:
    """The declarative grid for the VoIP panel: ``(configs, (scheme, speed) keys)``."""
    base = ScenarioConfig(
        topology=voip_topology(),
        route_set="ROUTE0",
        active_flows=list(range(1, n_flows + 1)),
        duration_s=duration_s,
        seed=seed,
        phy=LOW_RATE_PHY,
    )
    return scenario_grid(
        base,
        {
            "scheme_label": schemes,
            "speed": Axis(
                speeds,
                bind=lambda config, speed: replace(config, mobility=mobility_spec(speed)),
                key=float,
            ),
        },
    )
