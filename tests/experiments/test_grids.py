"""scenario_grid: the one grid expander, and its Axis helpers."""

from dataclasses import replace

import pytest

from repro.experiments.ablation import aggregation_ablation_grid
from repro.experiments.grids import Axis, propagation_axis, scenario_grid, topology_axis
from repro.experiments.runner import build_network
from repro.phy.params import LOW_RATE_PHY
from repro.spec import ScenarioConfig
from repro.topology.standard import fig1_topology, line_topology


def small_config(**overrides):
    defaults = dict(
        topology=fig1_topology(),
        scheme_label="D",
        active_flows=[1],
        duration_s=0.05,
        seed=2,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestScenarioGrid:
    def test_cartesian_product_order(self):
        configs, keys = scenario_grid(
            small_config(), {"scheme_label": ["D", "R16"], "seed": [1, 2]}
        )
        assert [(c.mac.name, c.seed) for c in configs] == [
            ("dcf", 1), ("dcf", 2), ("ripple", 1), ("ripple", 2)
        ]
        assert keys == [("D", 1), ("D", 2), ("R16", 1), ("R16", 2)]

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="not_a_field"):
            scenario_grid(small_config(), {"not_a_field": [1, 2]})

    def test_no_axes_yield_base(self):
        assert scenario_grid(small_config(), {}) == ([small_config()], [()])

    def test_axis_bind_and_key(self):
        flows = Axis(
            values=((1,), (1, 2)),
            bind=lambda config, active: replace(config, active_flows=list(active)),
            key=len,
        )
        configs, keys = scenario_grid(small_config(), {"flows": flows})
        assert [c.active_flows for c in configs] == [[1], [1, 2]]
        assert keys == [1, 2]


class TestAxisHelpers:
    def test_topology_axis_builds_each_value_once(self):
        built = []

        def build(n_hops):
            built.append(n_hops)
            return line_topology(n_hops)

        configs, keys = scenario_grid(
            small_config(active_flows=None),
            {"scheme_label": ["D", "R16"], "hops": topology_axis((2, 3), build)},
        )
        assert built == [2, 3]
        assert keys == [("D", 2), ("D", 3), ("R16", 2), ("R16", 3)]
        assert configs[0].topology is configs[2].topology
        assert configs[1].topology is configs[3].topology

    def test_propagation_axis_keeps_the_phy_profile(self):
        axis = propagation_axis(["shadowing", "rician"], params={"rician": {"k_factor": 8}})
        configs, keys = scenario_grid(small_config(phy=LOW_RATE_PHY), {"propagation": axis})
        assert keys == ["shadowing", "rician"]
        assert [c.phy for c in configs] == [
            replace(LOW_RATE_PHY, propagation="shadowing", propagation_params=None),
            replace(LOW_RATE_PHY, propagation="rician", propagation_params={"k_factor": 8}),
        ]


class TestAblationGrids:
    def test_aggregation_level_reaches_every_mac(self):
        levels = (1, 2, 4, 8, 16)
        configs, keys = aggregation_ablation_grid(levels, duration_s=0.05)
        assert keys == [("R", level) for level in levels]
        for config, level in zip(configs, levels):
            network, _routing = build_network(config)
            assert {node.mac.max_aggregation for node in network.nodes.values()} == {level}
