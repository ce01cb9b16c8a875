"""Experiment harness: scheme mapping, scenario construction, result collection."""

import gc
import tracemalloc

import pytest

import repro.experiments.runner as runner
from repro.experiments.report import format_table, nested_to_rows, render_panel
from repro.experiments.runner import ScenarioConfig, build_network, run_scenario
from repro.mobility.spec import MobilitySpec
from repro.phy.channel import WirelessChannel
from repro.phy.params import LOW_RATE_PHY
from repro.serialization import SpecError
from repro.spec import (
    DEFAULT_SCHEME_LABELS,
    PAPER_SCHEMES,
    MacSpec,
    RoutingSpec,
    TransportSpec,
    expand_scheme_label,
)
from repro.topology.roofnet import roofnet_scenario
from repro.topology.standard import fig1_topology, line_topology
from repro.topology.wigle import wigle_topology


class TestSchemeMapping:
    def test_paper_labels_cover_the_figures(self):
        assert set(DEFAULT_SCHEME_LABELS) == {"S", "D", "R1", "A", "R16"}

    def test_s_uses_direct_route(self):
        assert expand_scheme_label("S") == (
            MacSpec("dcf"), RoutingSpec("static", {"route_set": "DIRECT"})
        )

    def test_d_uses_requested_route(self):
        assert expand_scheme_label("D") == (MacSpec("dcf"), RoutingSpec("static"))
        config = ScenarioConfig(topology=line_topology(3), scheme_label="D", route_set="ROUTE2")
        assert config.route_set == "ROUTE2" and config.routing == RoutingSpec("static")

    def test_r16_is_ripple(self):
        assert ScenarioConfig(topology=fig1_topology(), scheme_label="R16").mac == MacSpec("ripple")

    def test_r1_is_ripple_without_aggregation(self):
        assert ScenarioConfig(topology=fig1_topology(), scheme_label="R1").mac == MacSpec("ripple1")

    def test_unknown_label_rejected(self):
        with pytest.raises(SpecError, match="XYZ"):
            expand_scheme_label("XYZ")
        with pytest.raises(SpecError, match="XYZ"):
            ScenarioConfig(topology=fig1_topology(), scheme_label="XYZ")

    def test_all_labels_resolve(self):
        for label, (scheme, _route_set) in PAPER_SCHEMES.items():
            mac, routing = expand_scheme_label(label)
            assert mac == MacSpec(scheme) and routing.name == "static"


class TestBuildNetwork:
    def test_nodes_and_stack_installed(self):
        config = ScenarioConfig(topology=fig1_topology(), scheme_label="D")
        network, routing = build_network(config)
        assert len(network.nodes) == 8
        assert all(node.mac is not None for node in network.nodes.values())
        assert all(node.transport is not None for node in network.nodes.values())

    def test_max_aggregation_override(self):
        config = ScenarioConfig(topology=fig1_topology(), scheme_label="R16", max_aggregation=4)
        network, _ = build_network(config)
        assert network.node(0).mac.max_aggregation == 4

    def test_missing_route_set_rejected(self):
        config = ScenarioConfig(topology=line_topology(3), scheme_label="D", route_set="ROUTE9")
        with pytest.raises(KeyError):
            build_network(config)


class TestRunScenario:
    def test_tcp_flow_produces_throughput(self):
        config = ScenarioConfig(
            topology=fig1_topology(), scheme_label="D", active_flows=[1], duration_s=0.15, seed=2
        )
        result = run_scenario(config)
        assert len(result.flows) == 1
        assert result.total_throughput_mbps > 1.0
        assert result.flow_throughput(1) == result.flows[0].throughput_mbps
        assert result.events_processed > 1000

    def test_udp_saturating_flow(self):
        from repro.topology.standard import fig5b_topology

        config = ScenarioConfig(
            topology=fig5b_topology(n_hidden=1), scheme_label="D", duration_s=0.15, seed=2
        )
        result = run_scenario(config)
        kinds = {flow.kind for flow in result.flows}
        assert kinds == {"tcp", "udp"}
        udp = [flow for flow in result.flows if flow.kind == "udp"][0]
        assert udp.packets_received > 0

    def test_unknown_flow_id_raises(self):
        config = ScenarioConfig(
            topology=fig1_topology(), scheme_label="D", active_flows=[1], duration_s=0.1
        )
        result = run_scenario(config)
        with pytest.raises(KeyError):
            result.flow_throughput(42)

    def test_deterministic_for_fixed_seed(self):
        config = ScenarioConfig(
            topology=fig1_topology(), scheme_label="R16", active_flows=[1], duration_s=0.1, seed=4
        )
        first = run_scenario(config)
        second = run_scenario(config)
        assert first.total_throughput_mbps == second.total_throughput_mbps
        assert first.events_processed == second.events_processed

    def test_different_seeds_differ(self):
        base = dict(topology=fig1_topology(), scheme_label="D", active_flows=[1], duration_s=0.1)
        a = run_scenario(ScenarioConfig(**base, seed=1))
        b = run_scenario(ScenarioConfig(**base, seed=2))
        assert a.events_processed != b.events_processed


#: One scenario per hot-path stressor: relay pipelines on a clear, a noisy
#: and a cubic-controlled line, large-N dispatch on Roofnet, hidden
#: terminals on Wigle, and per-tick geometry invalidation under mobility.
STRESS_FAMILIES = {
    "line-clear": lambda: dict(topology=line_topology(5), bit_error_rate=1e-6),
    "line-cubic": lambda: dict(
        topology=line_topology(5), transport=TransportSpec("cubic"), bit_error_rate=1e-6
    ),
    "line-noisy": lambda: dict(topology=line_topology(5), bit_error_rate=1e-5),
    "roofnet": lambda: dict(topology=roofnet_scenario(seed=7), phy=LOW_RATE_PHY),
    "wigle": lambda: dict(topology=wigle_topology(include_hidden=True), phy=LOW_RATE_PHY),
    "mobility": lambda: dict(
        topology=fig1_topology(), mobility=MobilitySpec.random_waypoint(10.0)
    ),
}


class TestSchemeMatrix:
    """Every stressor under every relaying scheme runs, delivers, and replays."""

    @pytest.mark.parametrize("scheme", ["D", "A", "R1", "R16"])
    @pytest.mark.parametrize("family", list(STRESS_FAMILIES))
    def test_run_delivers_and_replays_bit_identically(self, family, scheme):
        config = ScenarioConfig(
            scheme_label=scheme, duration_s=0.15, seed=1, **STRESS_FAMILIES[family]()
        )
        first = run_scenario(config)
        assert first.events_processed > 1000
        assert first.total_throughput_mbps > 0
        assert run_scenario(config).to_dict() == first.to_dict()


def _left_behind(config):
    """Bytes one run leaves allocated with the cycle collector off, and its network."""
    built = []

    def capture(config):
        built.append(build_network(config))
        return built[-1]

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "build_network", capture)
            before = tracemalloc.get_traced_memory()[0]
            run_scenario(config)
            left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    return left, built[0][0]


class TestReleaseAfterRun:
    """A finished network is cyclic garbage, so run_scenario frees its link buffers itself."""

    def test_finished_run_leaves_under_half_the_memory_behind(self, monkeypatch):
        config = ScenarioConfig(
            topology=roofnet_scenario(seed=7), phy=LOW_RATE_PHY, scheme_label="D",
            duration_s=0.1, seed=1,
        )
        run_scenario(config)  # first-use imports and caches
        left, network = _left_behind(config)
        # The same run keeping its buffers, as it did before release() existed.
        monkeypatch.setattr(WirelessChannel, "release", lambda channel: None)
        kept, kept_network = _left_behind(config)
        assert left < kept / 2
        # The counters outlive the release.
        assert network.channel.stats.transmissions > 100
        assert network.channel.stats == kept_network.channel.stats
        assert [node.radio.stats for node in network.nodes.values()] == [
            node.radio.stats for node in kept_network.nodes.values()
        ]


class TestWarmupAccounting:
    """Warmup-period traffic must not count towards the reported summaries."""

    def test_tcp_throughput_excludes_warmup_bytes(self):
        # Under the old accounting, bytes accumulated since t=0 were divided
        # by duration_ns only, so warmup=0.1/duration=0.1 reported ~2x the
        # throughput of the same scenario measured over the full 0.2 s.
        base = dict(topology=fig1_topology(), scheme_label="D", active_flows=[1], seed=2)
        full = run_scenario(ScenarioConfig(**base, duration_s=0.2, warmup_s=0.0))
        warm = run_scenario(ScenarioConfig(**base, duration_s=0.1, warmup_s=0.1))
        assert warm.total_throughput_mbps > 0
        assert warm.total_throughput_mbps < 1.5 * full.total_throughput_mbps

    def test_warmup_resets_received_counters(self):
        base = dict(topology=fig1_topology(), scheme_label="D", active_flows=[1], seed=2)
        full = run_scenario(ScenarioConfig(**base, duration_s=0.2, warmup_s=0.0))
        warm = run_scenario(ScenarioConfig(**base, duration_s=0.1, warmup_s=0.1))
        # Both simulations see the same event stream; the warmed-up one only
        # reports the second half of it.
        assert warm.flows[0].packets_received < full.flows[0].packets_received

    def test_udp_throughput_excludes_warmup_bytes(self):
        from repro.topology.standard import fig5b_topology

        base = dict(topology=fig5b_topology(n_hidden=1), scheme_label="D", seed=2)
        full = run_scenario(ScenarioConfig(**base, duration_s=0.2, warmup_s=0.0))
        warm = run_scenario(ScenarioConfig(**base, duration_s=0.1, warmup_s=0.1))
        full_udp = [f for f in full.flows if f.kind == "udp"][0]
        warm_udp = [f for f in warm.flows if f.kind == "udp"][0]
        assert warm_udp.packets_received > 0
        assert warm_udp.throughput_mbps < 1.5 * full_udp.throughput_mbps
        # packets_sent is the sender-side count for the measurement window.
        assert warm_udp.packets_sent < full_udp.packets_sent

    def test_zero_warmup_unchanged(self):
        config = ScenarioConfig(
            topology=fig1_topology(), scheme_label="D", active_flows=[1], duration_s=0.1, seed=2
        )
        a = run_scenario(config)
        b = run_scenario(ScenarioConfig(**{**config.__dict__, "warmup_s": 0.0}))
        assert a.total_throughput_mbps == b.total_throughput_mbps


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("title", ["1", "2"], {"D": [1.0, 2.0], "R16": [3.0, 4.5]})
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "scheme" in lines[1]
        assert any("R16" in line for line in lines)

    def test_nested_to_rows_handles_missing(self):
        rows = nested_to_rows({"D": {1: 5.0}}, [1, 2])
        assert rows["D"][0] == 5.0
        assert rows["D"][1] != rows["D"][1]  # NaN for the missing column

    def test_render_panel(self):
        text = render_panel("Fig X", {"D": {1: 1.0, 2: 2.0}}, [1, 2])
        assert "Fig X" in text and "D" in text
