"""The declarative spec layer: round-trips, strictness, label shorthand."""

import dataclasses
import json

import pytest

from repro.experiments.parallel import config_digest
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.registry import MAC_SCHEMES
from repro.mobility.models import MOBILITY_MODELS
from repro.mobility.spec import MobilitySpec
from repro.phy.params import HIGH_RATE_PHY, LOW_RATE_PHY, PhyParams
from repro.routing.registry import ROUTING_STRATEGIES
from repro.serialization import SpecError
from repro.spec import (
    PAPER_SCHEMES,
    PHY_PROFILES,
    MacSpec,
    RoutingSpec,
    ScenarioSpec,
    TopologyRef,
    TrafficSpec,
    expand_scheme_label,
)
from repro.topology.registry import TOPOLOGIES
from repro.topology.standard import fig1_topology
from repro.traffic.registry import TRAFFIC_KINDS


def roundtrip(spec):
    """to_dict → (json) → from_dict inverts to_dict, keyed by exactly the fields."""
    first = spec.to_dict()
    assert list(first) == [f.name for f in dataclasses.fields(spec)]
    rebuilt = type(spec).from_dict(json.loads(json.dumps(first)))
    assert rebuilt == spec
    assert rebuilt.to_dict() == first
    return rebuilt


class TestComponentSpecRoundTrips:
    """Every registered component's spec round-trips losslessly."""

    @pytest.mark.parametrize("name", sorted(MAC_SCHEMES))
    def test_mac_specs(self, name):
        rebuilt = roundtrip(MacSpec(name, {"max_aggregation": 4}))
        assert rebuilt == MacSpec(name, {"max_aggregation": 4})

    @pytest.mark.parametrize("name", sorted(ROUTING_STRATEGIES))
    def test_routing_specs(self, name):
        roundtrip(RoutingSpec(name))

    @pytest.mark.parametrize("name", sorted(TRAFFIC_KINDS) + ["flows"])
    def test_traffic_specs(self, name):
        roundtrip(TrafficSpec(name))

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_topology_refs(self, name):
        roundtrip(TopologyRef(name))

    @pytest.mark.parametrize("model", sorted(MOBILITY_MODELS))
    def test_mobility_specs(self, model):
        roundtrip(MobilitySpec(model=model))

    @pytest.mark.parametrize("profile", sorted(PHY_PROFILES))
    def test_phy_profiles(self, profile):
        params = PHY_PROFILES[profile]
        assert PhyParams.from_dict(params.to_dict()) == params
        assert "max_deviation_sigmas" in params.to_dict()

    def test_scenario_spec_with_ref(self):
        spec = ScenarioConfig(
            topology=TopologyRef("line", {"n_hops": 4}),
            mac=MacSpec("ripple"),
            routing=RoutingSpec("etx"),
            traffic=TrafficSpec("voip"),
            mobility=MobilitySpec.random_waypoint(3.0),
            phy="low_rate",
            duration_s=0.25,
            seed=9,
        )
        rebuilt = roundtrip(spec)
        assert rebuilt.phy == LOW_RATE_PHY
        assert rebuilt.topology.name == "line4"
        assert rebuilt.routing == RoutingSpec("adaptive_etx")

    def test_scenario_spec_with_inline_topology(self):
        spec = ScenarioConfig(topology=fig1_topology(), scheme_label="R16")
        rebuilt = roundtrip(spec)
        assert rebuilt.mac == MacSpec("ripple")


class TestStrictFromDict:
    """Unknown keys are rejected with an error naming field and class."""

    def test_component_spec_unknown_key(self):
        with pytest.raises(SpecError, match="'colour' for MacSpec"):
            MacSpec.from_dict({"name": "dcf", "colour": "red"})

    def test_phy_params_unknown_key(self):
        with pytest.raises(SpecError, match="'biterror_rate' for PhyParams"):
            PhyParams.from_dict({"biterror_rate": 1e-6})

    def test_mobility_spec_unknown_key(self):
        with pytest.raises(SpecError, match="'speed' for MobilitySpec"):
            MobilitySpec.from_dict({"model": "static", "speed": 3})

    def test_topology_spec_unknown_key(self):
        from repro.topology.spec import TopologySpec

        data = fig1_topology().to_dict()
        data["colour"] = "red"
        with pytest.raises(SpecError, match="'colour' for TopologySpec"):
            TopologySpec.from_dict(data)

    def test_flow_spec_unknown_key(self):
        from repro.topology.spec import FlowSpec

        with pytest.raises(SpecError, match="'rate' for FlowSpec"):
            FlowSpec.from_dict({"flow_id": 1, "src": 0, "dst": 1, "rate": 5})

    def test_flow_result_unknown_key(self):
        from repro.metrics.flows import FlowResult

        with pytest.raises(SpecError, match="'goodput' for FlowResult"):
            FlowResult.from_dict(
                {"flow_id": 1, "kind": "tcp", "src": 0, "dst": 1,
                 "throughput_mbps": 1.0, "goodput": 2.0}
            )

    def test_voip_quality_unknown_key(self):
        from repro.metrics.mos import VoipQuality

        with pytest.raises(SpecError, match="'jitter' for VoipQuality"):
            VoipQuality.from_dict(
                {"delay_ms": 1.0, "loss_rate": 0.0, "r_factor": 90.0, "mos": 4.3, "jitter": 1}
            )

    def test_scenario_config_unknown_key(self):
        data = ScenarioConfig(topology=fig1_topology()).to_dict()
        data["scheme"] = "D"
        with pytest.raises(SpecError, match="'scheme' for ScenarioConfig"):
            ScenarioConfig.from_dict(data)

    def test_scenario_spec_unknown_key(self):
        """``repro.spec.ScenarioSpec`` survives as an alias of ScenarioConfig."""
        with pytest.raises(SpecError, match="'schemes' for ScenarioConfig"):
            ScenarioSpec.from_dict({"topology": {"name": "fig1"}, "schemes": ["D"]})

    def test_unknown_component_name_rejected_at_construction(self):
        with pytest.raises(SpecError, match="unknown MAC scheme 'warp'"):
            MacSpec("warp")
        with pytest.raises(SpecError, match="unknown topology 'moon'"):
            TopologyRef("moon")


class TestAliasLayer:
    """scheme_label is init-only sugar over the spec layer; both forms are one object."""

    @pytest.mark.parametrize("label", sorted(PAPER_SCHEMES))
    def test_expansion_round_trips_through_canonical_label(self, label):
        mac, routing = expand_scheme_label(label)
        legacy = ScenarioConfig(topology=fig1_topology(), scheme_label=label)
        explicit = ScenarioConfig(topology=fig1_topology(), mac=mac, routing=routing)
        assert legacy == explicit
        assert "scheme_label" not in legacy.to_dict()
        assert legacy.to_dict() == explicit.to_dict()
        assert config_digest(legacy) == config_digest(explicit)

    def test_label_in_replace_resets_mac_and_routing(self):
        base = ScenarioConfig(topology=fig1_topology(), scheme_label="S")
        moved = dataclasses.replace(base, route_set="ROUTE1")
        assert moved.routing == RoutingSpec("static", {"route_set": "DIRECT"})
        relabeled = dataclasses.replace(moved, scheme_label="R16")
        assert relabeled == ScenarioConfig(
            topology=fig1_topology(), scheme_label="R16", route_set="ROUTE1"
        )

    def test_document_label_excludes_mac_and_routing(self):
        document = {"topology": {"name": "fig1"}, "scheme_label": "D"}
        assert ScenarioConfig.from_dict(document).mac == MacSpec("dcf")
        for key in ("mac", "routing"):
            with pytest.raises(SpecError, match=rf"also gives \['{key}'\]"):
                ScenarioConfig.from_dict({**document, key: {"name": "static"}})

    def test_non_alias_combination_serializes_specs(self):
        config = ScenarioConfig(
            topology=fig1_topology(),
            mac=MacSpec("ripple"),
            routing=RoutingSpec("shortest_path"),
        )
        data = config.to_dict()
        assert "scheme_label" not in data
        assert data["mac"] == {"name": "ripple", "params": {}}
        assert data["routing"] == {"name": "shortest_path", "params": {}}
        rebuilt = ScenarioConfig.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.to_dict() == data

    def test_alias_name_canonicalized_in_digest(self):
        """RoutingSpec('etx') and RoutingSpec('adaptive_etx') are one digest."""
        base = dict(topology=fig1_topology(), mac=MacSpec("dcf"))
        a = ScenarioConfig(routing=RoutingSpec("etx"), **base)
        b = ScenarioConfig(routing=RoutingSpec("adaptive_etx"), **base)
        assert a.to_dict() == b.to_dict()
        assert config_digest(a) == config_digest(b)

    def test_s_label_expands_to_direct_route_set(self):
        mac, routing = expand_scheme_label("S")
        assert mac.name == "dcf"
        assert routing.params == {"route_set": "DIRECT"}


class TestSpecPathDeterminism:
    """The registry-driven path is bit-identical to the legacy label path."""

    def test_legacy_and_spec_configs_produce_identical_results(self):
        legacy = ScenarioConfig(
            topology=fig1_topology(), scheme_label="R16",
            active_flows=[1], duration_s=0.1, seed=4,
        )
        mac, routing = expand_scheme_label("R16")
        explicit = ScenarioConfig(
            topology=fig1_topology(), mac=mac, routing=routing,
            active_flows=[1], duration_s=0.1, seed=4,
        )
        first = run_scenario(legacy)
        second = run_scenario(explicit)
        assert first.to_dict() == second.to_dict()

    def test_scenario_spec_to_config_runs_identically_to_legacy(self):
        spec = ScenarioSpec(
            topology=TopologyRef("fig1"), scheme_label="A",
            active_flows=[1], duration_s=0.1, seed=2,
        )
        legacy = ScenarioConfig(
            topology=fig1_topology(), scheme_label="A",
            active_flows=[1], duration_s=0.1, seed=2,
        )
        assert run_scenario(spec.to_config()).to_dict() == run_scenario(legacy).to_dict()

    def test_traffic_override_changes_the_scenario(self):
        base = dict(topology=fig1_topology(), active_flows=[1], duration_s=0.05, seed=1)
        tcp = run_scenario(ScenarioConfig(**base))
        voip = run_scenario(ScenarioConfig(traffic=TrafficSpec("voip"), **base))
        assert tcp.flows[0].kind == "tcp"
        assert voip.flows[0].kind == "udp"
        assert 1 in voip.voip_quality


class TestComponentParamValidation:
    """Unknown component parameters fail loudly, not by silent default."""

    def test_typoed_mac_param_raises_at_install(self):
        config = ScenarioConfig(
            topology=fig1_topology(),
            mac=MacSpec("ripple", {"max_agregation": 8}),  # typo'd on purpose
            duration_s=0.02,
        )
        with pytest.raises(ValueError, match="max_agregation.*ripple"):
            run_scenario(config)

    @pytest.mark.parametrize(
        "fields, scheme",
        [
            (dict(mac=MacSpec("preexor", {"max_aggregation": 8})), "preexor"),
            (dict(mac=MacSpec("mcexor", {"max_aggregation": 8})), "mcexor"),
            (dict(mac=MacSpec("ripple1", {"max_aggregation": 8})), "ripple1"),
            (dict(mac=MacSpec("rate_adapt", {"inner": "preexor", "max_aggregation": 8})),
             "preexor"),
            (dict(scheme_label="MCExOR", max_aggregation=8), "mcexor"),
        ],
        ids=["preexor", "mcexor", "ripple1", "rate_adapt(preexor)", "config-level"],
    )
    def test_max_aggregation_only_where_a_mac_reads_it(self, fields, scheme):
        """preExOR, MCExOR and R1 never read it, so it would only change the digest."""
        config = ScenarioConfig(topology=fig1_topology(), duration_s=0.02, **fields)
        with pytest.raises(
            ValueError,
            match=rf"\['max_aggregation'\] for MAC scheme '{scheme}'; accepted: \[\]",
        ):
            run_scenario(config)

    def test_valid_mac_params_still_accepted(self):
        for mac in (
            MacSpec("ripple", {"max_aggregation": 2}),
            MacSpec("rate_adapt", {"inner": "ripple", "max_aggregation": 2, "up_after": 3}),
        ):
            config = ScenarioConfig(
                topology=fig1_topology(), mac=mac, active_flows=[1], duration_s=0.02
            )
            assert run_scenario(config).events_processed > 0

    def test_adaptive_etx_missing_fallback_route_set_raises(self):
        config = ScenarioConfig(
            topology=fig1_topology(),
            mac=MacSpec("dcf"),
            routing=RoutingSpec("etx", {"route_set": "ROUTE9"}),
            duration_s=0.02,
        )
        with pytest.raises(KeyError, match="ROUTE9"):
            run_scenario(config)

    def test_adaptive_etx_fallback_opt_out(self):
        from repro.experiments.runner import build_network
        from repro.routing.dynamic import AdaptiveEtxRouting

        config = ScenarioConfig(
            topology=fig1_topology(),
            mac=MacSpec("dcf"),
            routing=RoutingSpec("etx", {"fallback": False}),
        )
        _network, routing = build_network(config)
        assert isinstance(routing, AdaptiveEtxRouting)
        assert routing.fallback is None


class TestPhyProfileResolution:
    def test_high_rate_profile_resolves(self):
        spec = ScenarioSpec(topology=TopologyRef("fig1"), phy="high_rate")
        assert spec.to_config().phy == HIGH_RATE_PHY

    def test_unknown_profile_rejected(self):
        with pytest.raises(SpecError, match="unknown PHY profile"):
            ScenarioSpec.from_dict({"topology": {"name": "fig1"}, "phy": "warp_speed"})
