"""Propagation-model comparison: the component pack's demo experiment family.

The same 4-hop relay line carrying one long-lived TCP flow, evaluated
under every registered propagation model (log-normal ``shadowing``,
``rayleigh``, ``rician``) × the paper's D and R16 schemes — the smallest
grid that shows what the propagation registry buys: the opportunistic
schemes' advantage grows as the channel's per-frame variance grows,
because independent per-link fades are exactly what forwarder diversity
harvests.

Like every family, the grid is declarative (:func:`fading_grid`) and the
sweep flows through the shared runner/cache; ``python -m
repro.experiments run fading`` is the CLI face.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.experiments.grids import propagation_axis, scenario_grid
from repro.experiments.runner import ScenarioConfig
from repro.topology.standard import line_topology

#: Propagation models compared (all registered entries).
FADING_MODELS: Tuple[str, ...] = ("shadowing", "rayleigh", "rician")

#: Schemes plotted per model.
FADING_SCHEMES: Tuple[str, ...] = ("D", "R16")

#: Model-specific builder parameters used by the family (the Rician point
#: uses a moderate K so it sits visibly between Rayleigh and shadowing).
FADING_PARAMS: Mapping[str, Dict[str, object]] = {"rician": {"k_factor": 4.0}}


def fading_grid(
    models: Sequence[str] = FADING_MODELS,
    schemes: Sequence[str] = FADING_SCHEMES,
    n_hops: int = 4,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, str]]]:
    """The declarative config grid: scheme × propagation model."""
    base = ScenarioConfig(
        topology=line_topology(n_hops),
        route_set="ROUTE0",
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(
        base,
        {
            "scheme_label": schemes,
            "propagation": propagation_axis(models, params=FADING_PARAMS),
        },
    )
