"""Trace-file topologies: load node placements (and flows/routes) from disk.

External datasets — GPS surveys, testbed inventories, other simulators'
scenario dumps — become runnable topologies through the ``trace:`` prefix
entry of :data:`repro.topology.registry.TOPOLOGIES`::

    python -m repro.experiments run --set topology=trace:site.csv traffic=poisson

Two on-disk formats are accepted, chosen by file extension:

``.csv``
    One record per line, first field is the record type::

        # comment lines and blank lines are ignored
        node,<id>,<x_m>,<y_m>
        flow,<flow_id>,<src>,<dst>[,<kind>]
        route,<route_set>,<src>,<dst>,<hop0>;<hop1>;...;<hopN>

``.json``
    A :meth:`~repro.topology.spec.TopologySpec.from_dict` document (the
    exact shape ``TopologySpec.to_dict`` writes), with everything beyond
    ``positions`` optional.

Validation is deliberately loud: a malformed CSV record raises a
:class:`~repro.topology.spec.TopologyError` naming the file, line number
and offending field, and every loaded spec passes through
:meth:`TopologySpec.validate` before it is handed to the harness.

When the file defines flows but no routes, a ``ROUTE0`` table is derived
from geometric shortest paths (same convention as the bundled Roofnet
topology), so predetermined-route schemes work on plain node+flow files;
files may instead spell out their own ``route`` records.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from repro.topology.spec import FlowSpec, TopologyError, TopologySpec

#: Default good-link radius (metres) for the derived-route connectivity graph;
#: matches the bundled Roofnet topology's convention.
DEFAULT_GOOD_LINK_M = 160.0


def load_trace_topology(
    path: str, good_link_m: float = DEFAULT_GOOD_LINK_M
) -> TopologySpec:
    """Load, complete (derived ``ROUTE0`` if needed) and validate one trace file."""
    extension = os.path.splitext(path)[1].lower()
    if extension == ".csv":
        spec = _load_csv(path)
    elif extension == ".json":
        spec = _load_json(path)
    else:
        raise TopologyError(
            f"{path}: unsupported trace-topology extension {extension!r} (expected .csv or .json)"
        )
    # Validate the parsed structure first (so "flow references unknown node"
    # is reported as such, not as a route-derivation failure), then derive
    # routes if needed and validate the completed spec.
    _validate(path, spec)
    if spec.flows and not spec.route_sets:
        spec.route_sets = {"ROUTE0": _derive_routes(path, spec, good_link_m)}
    return _validate(path, spec)


def _validate(path: str, spec: TopologySpec) -> TopologySpec:
    try:
        return spec.validate()
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def _parse_int(path: str, lineno: int, field_name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TopologyError(
            f"{path}:{lineno}: field {field_name!r} must be an integer, got {raw.strip()!r}"
        ) from None


def _parse_float(path: str, lineno: int, field_name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise TopologyError(
            f"{path}:{lineno}: field {field_name!r} must be a number, got {raw.strip()!r}"
        ) from None


def _require_fields(path: str, lineno: int, record: List[str], minimum: int, shape: str) -> None:
    if len(record) < minimum:
        raise TopologyError(
            f"{path}:{lineno}: {record[0]} record needs {shape}, got {len(record) - 1} field(s)"
        )


def _load_csv(path: str) -> TopologySpec:
    positions: Dict[int, Tuple[float, float]] = {}
    flows: List[FlowSpec] = []
    route_sets: Dict[str, Dict[Tuple[int, int], List[int]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            record = [cell.strip() for cell in line.split(",")]
            kind = record[0].lower()
            if kind == "node":
                _require_fields(path, lineno, record, 4, "node,<id>,<x>,<y>")
                node_id = _parse_int(path, lineno, "node id", record[1])
                if node_id in positions:
                    raise TopologyError(f"{path}:{lineno}: duplicate node id {node_id}")
                positions[node_id] = (
                    _parse_float(path, lineno, "x", record[2]),
                    _parse_float(path, lineno, "y", record[3]),
                )
            elif kind == "flow":
                _require_fields(path, lineno, record, 4, "flow,<id>,<src>,<dst>[,<kind>]")
                flows.append(
                    FlowSpec(
                        flow_id=_parse_int(path, lineno, "flow id", record[1]),
                        src=_parse_int(path, lineno, "src", record[2]),
                        dst=_parse_int(path, lineno, "dst", record[3]),
                        kind=record[4] if len(record) > 4 and record[4] else "tcp",
                    )
                )
            elif kind == "route":
                _require_fields(
                    path, lineno, record, 5, "route,<set>,<src>,<dst>,<hop0>;...;<hopN>"
                )
                set_name = record[1]
                src = _parse_int(path, lineno, "src", record[2])
                dst = _parse_int(path, lineno, "dst", record[3])
                hops = [
                    _parse_int(path, lineno, "route hop", hop)
                    for hop in record[4].split(";")
                    if hop.strip()
                ]
                if not hops:
                    raise TopologyError(f"{path}:{lineno}: route record has no hops")
                route_sets.setdefault(set_name, {})[(src, dst)] = hops
            else:
                raise TopologyError(
                    f"{path}:{lineno}: unknown record type {record[0]!r} "
                    "(expected node, flow or route)"
                )
    if not positions:
        raise TopologyError(f"{path}: no node records found")
    return TopologySpec(
        name=_trace_name(path),
        positions=positions,
        flows=flows,
        route_sets=route_sets,
        description=f"Trace topology loaded from {os.path.basename(path)}",
    )


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def _load_json(path: str) -> TopologySpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError as exc:
            raise TopologyError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise TopologyError(
            f"{path}: top level must be a JSON object, got {type(document).__name__}"
        )
    document.setdefault("name", _trace_name(path))
    document.setdefault("description", f"Trace topology loaded from {os.path.basename(path)}")
    try:
        return TopologySpec.from_dict(document)
    except TopologyError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise TopologyError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _trace_name(path: str) -> str:
    return f"trace:{os.path.splitext(os.path.basename(path))[0]}"


def _derive_routes(
    path: str, spec: TopologySpec, good_link_m: float
) -> Dict[Tuple[int, int], List[int]]:
    """Geometric shortest-path ``ROUTE0`` for files that define only flows."""
    from repro.routing.graph import NoPath, shortest_path
    from repro.topology.roofnet import connectivity_from_positions

    graph = connectivity_from_positions(spec.positions, good_link_m=good_link_m)
    routes: Dict[Tuple[int, int], List[int]] = {}
    for flow in spec.flows:
        if (flow.src, flow.dst) in routes:
            continue
        try:
            routes[(flow.src, flow.dst)] = [
                int(hop) for hop in shortest_path(graph, flow.src, flow.dst)
            ]
        except NoPath as exc:
            raise TopologyError(
                f"{path}: cannot derive a route for flow {flow.flow_id} "
                f"({flow.src} -> {flow.dst}): no path within {good_link_m:g} m links; "
                "add route records or increase good_link_m"
            ) from exc
    return routes
