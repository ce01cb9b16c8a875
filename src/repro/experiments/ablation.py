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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.grids import scenario_grid
from repro.experiments.parallel import SweepRunner
from repro.experiments.runner import ScenarioConfig
from repro.topology.standard import fig1_topology, line_topology


@dataclass
class AggregationAblation:
    """Total throughput versus RIPPLE's maximum aggregation level."""

    #: throughput_mbps[max_aggregation] = total TCP throughput on ROUTE0
    throughput_mbps: Dict[int, float] = field(default_factory=dict)


@dataclass
class ForwarderAblation:
    """Flow throughput versus the maximum number of forwarders used."""

    #: throughput_mbps[max_forwarders] = throughput on the 7-hop line
    throughput_mbps: Dict[int, float] = field(default_factory=dict)


def aggregation_ablation_grid(
    levels: Sequence[int] = (1, 2, 4, 8, 16),
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> List[ScenarioConfig]:
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
    configs, _keys = scenario_grid(base, {"max_aggregation": levels})
    return configs


def run_aggregation_ablation(
    levels: Sequence[int] = (1, 2, 4, 8, 16),
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
) -> AggregationAblation:
    """Sweep RIPPLE's maximum aggregation on the Fig. 1 / ROUTE0 scenario."""
    configs = aggregation_ablation_grid(levels, bit_error_rate, duration_s, seed)
    outcomes = (runner or SweepRunner()).run(configs)
    result = AggregationAblation()
    for level, outcome in zip(levels, outcomes):
        result.throughput_mbps[level] = outcome.total_throughput_mbps
    return result


def forwarder_ablation_grid(
    forwarder_counts: Sequence[int] = (1, 2, 3, 5, 7),
    n_hops: int = 7,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> List[ScenarioConfig]:
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
    return configs


def run_forwarder_ablation(
    forwarder_counts: Sequence[int] = (1, 2, 3, 5, 7),
    n_hops: int = 7,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
) -> ForwarderAblation:
    """Sweep the forwarder-list cap on a long line (Section III-B4 / Fig. 7 setting)."""
    configs = forwarder_ablation_grid(forwarder_counts, n_hops, bit_error_rate, duration_s, seed)
    outcomes = (runner or SweepRunner()).run(configs)
    result = ForwarderAblation()
    for count, outcome in zip(forwarder_counts, outcomes):
        result.throughput_mbps[count] = outcome.flow_throughput(1)
    return result
