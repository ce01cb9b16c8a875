"""The transport registry, TransportSpec and the controller a scenario's flows run."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import build_network
from repro.registry import RegistryError
from repro.spec import ScenarioConfig, SpecError, TransportSpec
from repro.topology.standard import line_topology
from repro.traffic.registry import TRAFFIC_KINDS
from repro.transport import TRANSPORT_SCHEMES, build_controller
from repro.transport.congestion import (
    CubicController,
    NewRenoController,
    RenoController,
    TahoeController,
)


class TestRegistry:
    def test_all_schemes_registered(self):
        names = TRANSPORT_SCHEMES.known_names()
        for name in ("reno", "tahoe", "newreno", "cubic"):
            assert name in names

    def test_default_is_reno(self):
        default = ScenarioConfig(topology=line_topology(2)).transport
        assert isinstance(build_controller(default.name, **default.params), RenoController)

    def test_build_controller_types(self):
        assert isinstance(build_controller("tahoe"), TahoeController)
        assert isinstance(build_controller("newreno"), NewRenoController)
        assert isinstance(build_controller("cubic"), CubicController)

    def test_build_controller_params(self):
        cubic = build_controller("cubic", beta=0.5, fast_convergence=False)
        assert cubic.beta == 0.5
        assert cubic.fast_convergence is False
        assert cubic.c == 0.4  # untouched default

    def test_unknown_scheme_rejected(self):
        with pytest.raises(RegistryError):
            build_controller("vegas")

    def test_fresh_instance_per_build(self):
        assert build_controller("reno") is not build_controller("reno")


class TestTransportSpec:
    def test_roundtrip(self):
        spec = TransportSpec("cubic", {"beta": 0.6})
        rebuilt = TransportSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.to_dict() == {"name": "cubic", "params": {"beta": 0.6}}

    def test_unknown_name_fails_at_construction(self):
        with pytest.raises(SpecError, match="transport scheme"):
            TransportSpec("vegas")

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            TransportSpec.from_dict({"name": "reno", "parms": {}})


class TestControllerResolution:
    """Every TCP-backed flow runs the controller ``ScenarioConfig.transport`` names."""

    def test_scenario_spec_applies(self):
        config = ScenarioConfig(
            topology=line_topology(3),
            scheme_label="D",
            transport=TransportSpec("cubic", {"beta": 0.6}),
        )
        network, _routing = build_network(config)
        installed = TRAFFIC_KINDS.lookup("tcp")(network, config, config.topology.flows[0])
        controller = installed.sender.controller
        assert isinstance(controller, CubicController)
        assert controller.beta == 0.6
