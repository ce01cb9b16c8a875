"""Ablations over RIPPLE's design parameters (not a paper figure, but
design-choice studies).

Two sweeps:

* **Aggregation limit** — RIPPLE with a maximum of 1, 2, 4, 8 and 16
  packets per frame on the Fig. 1 / ROUTE0 long-lived TCP scenario.  This
  interpolates between the paper's R1 and R16 bars and quantifies how much
  of the win comes from aggregation versus the mTXOP mechanism.
* **Forwarder count** — the line topology with the maximum number of
  forwarders clamped to 1..7 (Section III-B4 discusses why the paper uses
  5 as the default and evaluates up to 7).

Both grids key each config by ``(row label, swept value)``: one table row.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.grids import scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.spec import MacSpec
from repro.topology.standard import fig1_topology, line_topology


def aggregation_ablation_grid(
    levels: Sequence[int] = (1, 2, 4, 8, 16),
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, int]]]:
    """The declarative config grid: one RIPPLE run per aggregation level."""
    base = ScenarioConfig(
        topology=fig1_topology(),
        scheme_label="R16",
        route_set="ROUTE0",
        active_flows=[1],
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    macs = [MacSpec("ripple", {"max_aggregation": level}) for level in levels]
    configs, _keys = scenario_grid(base, {"mac": macs})
    return configs, [("R", level) for level in levels]


def forwarder_ablation_grid(
    forwarder_counts: Sequence[int] = (1, 2, 3, 5, 7),
    n_hops: int = 7,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, int]]]:
    """The declarative config grid: one RIPPLE run per forwarder-list cap."""
    base = ScenarioConfig(
        topology=line_topology(n_hops),
        scheme_label="R16",
        route_set="ROUTE0",
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    configs, _keys = scenario_grid(base, {"max_forwarders": forwarder_counts})
    return configs, [("R16", count) for count in forwarder_counts]
