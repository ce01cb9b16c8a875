"""Topology specifications: node placements plus the flows/routes defined on them.

The paper does not publish coordinates for its figures, only the structural
properties that matter (which links are good, which end points can barely
hear each other, who is hidden from whom).  Each topology module in this
package therefore *constructs* a placement that satisfies those properties
under the shadowing model of Section IV, and records the paper's flow and
route definitions on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.serialization import Wire


class TopologyError(ValueError):
    """Raised when a topology specification is structurally invalid."""


@dataclass(frozen=True)
class FlowSpec(Wire):
    """One application flow in a scenario."""

    flow_id: int
    src: int
    dst: int
    kind: str = "tcp"  # "tcp" | "udp-saturating" | "voip" | "web"
    label: str = ""


@dataclass
class TopologySpec(Wire):
    """A named node placement with flows and (optionally) predetermined routes.

    Serialized, ``positions`` are keyed by node id as text and a route
    table by ``"src-dst"`` (see :mod:`repro.serialization`).
    """

    name: str
    positions: Dict[int, Tuple[float, float]]
    flows: List[FlowSpec] = field(default_factory=list)
    #: Named route tables: route_sets["ROUTE0"][(src, dst)] = [src, ..., dst]
    route_sets: Dict[str, Dict[Tuple[int, int], List[int]]] = field(default_factory=dict)
    description: str = ""

    @property
    def node_ids(self) -> List[int]:
        return sorted(self.positions)

    def routes(self, route_set: str) -> Dict[Tuple[int, int], List[int]]:
        """Look up one of the named route tables (raises KeyError if absent)."""
        return self.route_sets[route_set]

    def flow(self, flow_id: int) -> FlowSpec:
        for flow in self.flows:
            if flow.flow_id == flow_id:
                return flow
        raise KeyError(f"no flow {flow_id} in topology {self.name}")

    def validate(self) -> "TopologySpec":
        """Check structural invariants; returns self so loaders can chain it.

        Raises :class:`TopologyError` on: an empty node set, non-finite or
        malformed positions, duplicate flow ids, flows or routes that
        reference unknown nodes, and routes that do not join their key's
        end points.  Topology loaders call this before handing a spec to
        the experiment harness, so a bad generated/parsed layout fails
        loudly at load time instead of as a mid-run ``KeyError``.
        """
        if not self.positions:
            raise TopologyError(f"topology {self.name!r} has no nodes")
        for node_id, position in self.positions.items():
            try:
                x, y = float(position[0]), float(position[1])
            except (TypeError, ValueError, IndexError) as exc:
                raise TopologyError(
                    f"topology {self.name!r}: node {node_id} position {position!r} is malformed"
                ) from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TopologyError(
                    f"topology {self.name!r}: node {node_id} position {position!r} is not finite"
                )
        seen_flow_ids: set = set()
        for flow in self.flows:
            if flow.flow_id in seen_flow_ids:
                raise TopologyError(
                    f"topology {self.name!r}: duplicate flow id {flow.flow_id}"
                )
            seen_flow_ids.add(flow.flow_id)
            for endpoint in (flow.src, flow.dst):
                if endpoint not in self.positions:
                    raise TopologyError(
                        f"topology {self.name!r}: flow {flow.flow_id} references "
                        f"unknown node {endpoint}"
                    )
        for set_name, routes in self.route_sets.items():
            for (src, dst), path in routes.items():
                if len(path) < 2 or path[0] != src or path[-1] != dst:
                    raise TopologyError(
                        f"topology {self.name!r}: route {set_name}[{src}-{dst}] = {path} "
                        f"does not join its end points"
                    )
                for hop in path:
                    if hop not in self.positions:
                        raise TopologyError(
                            f"topology {self.name!r}: route {set_name}[{src}-{dst}] "
                            f"passes through unknown node {hop}"
                        )
        return self
