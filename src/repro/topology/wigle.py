"""The Wigle topology of Fig. 9 (real AP locations, small network diameter).

The paper takes the connected component of a Wigle-database AP map (Fig. 3
of Mishra et al. [22]) — eight access points in a few city blocks — and
adds two stations S and R whose traffic acts as hidden interference.  The
database extract itself is not published, so this module reconstructs a
placement with the same structural properties the evaluation relies on:

* small diameter — the eight randomly picked station pairs the paper
  measures traverse only 1-3 hops;
* an irregular, clustered layout (not a line or grid);
* the S → R flow is hidden from most flow sources but interferes at their
  destinations/relays.

The flows and their relay paths mirror the x-axis labels of Fig. 10
(e.g. flow "1-4-6-8" goes from station 1 to station 8 via 4 and 6).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topology.spec import FlowSpec, TopologySpec

#: Station S and R identifiers (the hidden-traffic pair added by the paper).
STATION_S = 9
STATION_R = 10


def wigle_topology(include_hidden: bool = True) -> TopologySpec:
    """Reconstruction of the Fig. 9 Wigle topology (8 APs + hidden pair S, R)."""
    positions: Dict[int, Tuple[float, float]] = {
        1: (0.0, 0.0),
        2: (95.0, 70.0),
        3: (60.0, 180.0),
        4: (150.0, 120.0),
        5: (250.0, 60.0),
        6: (260.0, 175.0),
        7: (350.0, 120.0),
        8: (370.0, 230.0),
    }
    # The paper's eight measured flows, labelled by their relay path
    # (Fig. 10 x-axis style): 1-3 hops each because of the small diameter.
    flow_paths: List[List[int]] = [
        [1, 2],                # 1 hop
        [3, 4],                # 1 hop
        [2, 4, 6],             # 2 hops
        [8, 7, 5],             # 2 hops (the paper's '8-7-5' example)
        [1, 4, 6],             # 2 hops
        [5, 6, 8],             # 2 hops
        [1, 4, 6, 8],          # 3 hops (the paper's '1-4-6-8' example)
        [3, 4, 7],             # 2 hops
    ]
    flows: List[FlowSpec] = []
    routes: Dict[Tuple[int, int], List[int]] = {}
    for index, path in enumerate(flow_paths):
        src, dst = path[0], path[-1]
        label = "-".join(str(node) for node in path)
        flows.append(FlowSpec(flow_id=index + 1, src=src, dst=dst, kind="tcp", label=label))
        routes[(src, dst)] = list(path)
    if include_hidden:
        # S and R sit off to one side: S cannot carrier-sense the left-hand
        # sources (>650 m away) but its transmissions are audible around the
        # right-hand relays and destinations.
        positions[STATION_S] = (700.0, 40.0)
        positions[STATION_R] = (610.0, 120.0)
        flows.append(
            FlowSpec(flow_id=100, src=STATION_S, dst=STATION_R, kind="tcp", label="hidden S->R")
        )
        routes[(STATION_S, STATION_R)] = [STATION_S, STATION_R]
    return TopologySpec(
        name="wigle",
        positions=positions,
        flows=flows,
        route_sets={"ROUTE0": routes},
        description="Wigle AP topology of Fig. 9 (reconstructed) with hidden pair S, R.",
    ).validate()
