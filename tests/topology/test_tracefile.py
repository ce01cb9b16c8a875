"""Trace-file topology loading: formats, derived routes, loud failure modes."""

from __future__ import annotations

import json

import pytest

from repro.spec import ScenarioConfig, TopologyRef
from repro.topology.registry import TOPOLOGIES, build_topology
from repro.topology.spec import TopologyError
from repro.topology.tracefile import load_trace_topology

GOOD_CSV = """\
# a 3-node relay line with one flow
node,0,0.0,0.0
node,1,115.0,0.0
node,2,230.0,0.0
flow,1,0,2,tcp
"""


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


class TestCsvLoading:
    def test_loads_nodes_flows_and_derives_route0(self, tmp_path):
        spec = load_trace_topology(write(tmp_path, "site.csv", GOOD_CSV))
        assert spec.name == "trace:site"
        assert spec.positions == {0: (0.0, 0.0), 1: (115.0, 0.0), 2: (230.0, 0.0)}
        assert [flow.kind for flow in spec.flows] == ["tcp"]
        assert spec.route_sets["ROUTE0"][(0, 2)] == [0, 1, 2]

    def test_explicit_route_records_win_over_derivation(self, tmp_path):
        content = GOOD_CSV + "route,ROUTE0,0,2,0;2\n"
        spec = load_trace_topology(write(tmp_path, "site.csv", content))
        assert spec.route_sets["ROUTE0"][(0, 2)] == [0, 2]

    def test_flow_kind_defaults_to_tcp(self, tmp_path):
        content = "node,0,0,0\nnode,1,50,0\nflow,7,0,1\n"
        spec = load_trace_topology(write(tmp_path, "site.csv", content))
        assert spec.flows[0].kind == "tcp"

    def test_good_link_m_extends_derivable_routes(self, tmp_path):
        content = "node,0,0,0\nnode,1,200,0\nflow,1,0,1\n"
        path = write(tmp_path, "far.csv", content)
        with pytest.raises(TopologyError, match="cannot derive a route"):
            load_trace_topology(path)  # 200 m > default 160 m good-link radius
        spec = load_trace_topology(path, good_link_m=250.0)
        assert spec.route_sets["ROUTE0"][(0, 1)] == [0, 1]


class TestCsvErrors:
    """Malformed files fail naming the offending row and field."""

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ("node,x,1.0,2.0", r"site\.csv:2: field 'node id'"),
            ("node,3,abc,2.0", r"site\.csv:2: field 'x'"),
            ("node,0,5.0,5.0", r"site\.csv:2: duplicate node id 0"),
            ("node,3", "node record needs"),
            ("flow,2,0,99", "references unknown node 99"),
            ("flow,1,0,2", "duplicate flow id 1"),
            ("route,ROUTE0,0,2,0;99;2", "unknown node 99"),
            ("route,ROUTE0,0,2,1;2", "does not join its end points"),
            ("route,ROUTE0,0,2,", "no hops"),
            ("widget,1,2,3", "unknown record type 'widget'"),
        ],
    )
    def test_malformed_rows_name_row_and_field(self, tmp_path, row, fragment):
        content = "node,0,0.0,0.0\n" + row + "\nnode,1,115.0,0.0\nnode,2,230.0,0.0\nflow,1,0,2\n"
        with pytest.raises(TopologyError, match=fragment):
            load_trace_topology(write(tmp_path, "site.csv", content))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(TopologyError, match="no node records"):
            load_trace_topology(write(tmp_path, "site.csv", "# nothing here\n"))

    def test_unsupported_extension_rejected(self, tmp_path):
        with pytest.raises(TopologyError, match="unsupported trace-topology extension"):
            load_trace_topology(write(tmp_path, "site.yaml", "nodes: []"))


class TestJsonLoading:
    def test_loads_a_topology_document(self, tmp_path):
        document = {
            "positions": {"0": [0.0, 0.0], "1": [115.0, 0.0]},
            "flows": [{"flow_id": 1, "src": 0, "dst": 1, "kind": "voip", "label": ""}],
        }
        spec = load_trace_topology(write(tmp_path, "site.json", json.dumps(document)))
        assert spec.name == "trace:site"
        assert spec.flows[0].kind == "voip"
        assert spec.route_sets["ROUTE0"][(0, 1)] == [0, 1]

    def test_invalid_json_names_the_file(self, tmp_path):
        with pytest.raises(TopologyError, match=r"site\.json: not valid JSON"):
            load_trace_topology(write(tmp_path, "site.json", "{nope"))

    def test_unknown_keys_rejected(self, tmp_path):
        document = {"positions": {"0": [0.0, 0.0]}, "nodes": []}
        with pytest.raises(TopologyError, match="nodes"):
            load_trace_topology(write(tmp_path, "site.json", json.dumps(document)))

    def test_non_object_top_level_rejected(self, tmp_path):
        with pytest.raises(TopologyError, match="top level must be a JSON object"):
            load_trace_topology(write(tmp_path, "site.json", "[1, 2]"))


class TestRegistryIntegration:
    def test_prefix_resolves_through_the_registry(self, tmp_path):
        path = write(tmp_path, "site.csv", GOOD_CSV)
        assert f"trace:{path}" in TOPOLOGIES
        spec = build_topology(f"trace:{path}")
        assert spec.positions[2] == (230.0, 0.0)

    def test_builder_params_flow_through(self, tmp_path):
        content = "node,0,0,0\nnode,1,200,0\nflow,1,0,1\n"
        path = write(tmp_path, "far.csv", content)
        spec = build_topology(f"trace:{path}", good_link_m=250.0)
        assert spec.route_sets["ROUTE0"][(0, 1)] == [0, 1]

    def test_unknown_plain_name_still_rejected(self):
        with pytest.raises(Exception, match="unknown topology"):
            build_topology("tracey")

    def test_topology_ref_and_scenario_spec_round_trip(self, tmp_path):
        path = write(tmp_path, "site.csv", GOOD_CSV)
        ref = TopologyRef(f"trace:{path}", {"good_link_m": 200.0})
        spec = ScenarioConfig(topology=ref, duration_s=0.05)
        restored = ScenarioConfig.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.to_dict() == spec.to_dict()
        assert restored.topology.positions == ref.build().positions
