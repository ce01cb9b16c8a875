"""Regular and hidden collisions: Fig. 6(a) and Fig. 6(b).

Fig. 6(a): every station is within carrier-sense range of every other
station, so only "regular" collisions (simultaneous backoff expiry plus
shadowing losses) occur; the total throughput of 1..9 parallel two-hop
TCP flows is plotted for DCF, AFR and RIPPLE.

Fig. 6(b): flow 1 is a three-hop TCP flow whose source cannot hear the
sources of up to nine saturating one-hop UDP flows; the hidden traffic
throttles flow 1 as its load grows.  The paper notes that RIPPLE wins up
to roughly 6-7 hidden flows and loses slightly beyond that because its
longer mTXOPs suffer more from hidden collisions.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.grids import scenario_grid, topology_axis
from repro.experiments.runner import ScenarioConfig
from repro.topology.standard import fig5a_topology, fig5b_topology

#: The three schemes Fig. 6 compares.
COLLISION_SCHEMES: tuple[str, ...] = ("D", "A", "R16")


def regular_collisions_grid(
    flow_counts: Sequence[int] = (1, 3, 5, 7, 9),
    schemes: Sequence[str] = COLLISION_SCHEMES,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, int]]]:
    """The declarative config grid for Fig. 6(a).

    Returns ``(configs, keys)`` where each key is the ``(scheme label,
    flow count)`` cell the same-index config fills.
    """
    base = ScenarioConfig(
        topology=fig5a_topology(n_flows=flow_counts[0]),
        route_set="ROUTE0",
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(
        base,
        {
            "scheme_label": schemes,
            "n_flows": topology_axis(
                flow_counts, lambda n_flows: fig5a_topology(n_flows=n_flows)
            ),
        },
    )


def hidden_collisions_grid(
    hidden_counts: Sequence[int] = (0, 1, 3, 5, 7, 9),
    schemes: Sequence[str] = COLLISION_SCHEMES,
    bit_error_rate: float = 1e-6,
    duration_s: float = 1.0,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Tuple[str, int]]]:
    """The declarative config grid for Fig. 6(b).

    Returns ``(configs, keys)`` where each key is the ``(scheme label,
    hidden-flow count)`` cell the same-index config fills.
    """
    base = ScenarioConfig(
        topology=fig5b_topology(n_hidden=hidden_counts[0]),
        route_set="ROUTE0",
        bit_error_rate=bit_error_rate,
        duration_s=duration_s,
        seed=seed,
    )
    return scenario_grid(
        base,
        {
            "scheme_label": schemes,
            "n_hidden": topology_axis(
                hidden_counts, lambda n_hidden: fig5b_topology(n_hidden=n_hidden)
            ),
        },
    )
