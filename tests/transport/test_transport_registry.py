"""The transport registry, TransportSpec and per-flow controller resolution."""

from __future__ import annotations

import json

import pytest

from repro.registry import RegistryError
from repro.spec import SpecError, TransportSpec
from repro.topology.spec import FlowSpec
from repro.transport import TRANSPORT_SCHEMES, build_controller
from repro.transport.congestion import (
    CubicController,
    NewRenoController,
    RenoController,
    TahoeController,
)
from repro.transport.registry import DEFAULT_TRANSPORT


class TestRegistry:
    def test_all_schemes_registered(self):
        names = TRANSPORT_SCHEMES.known_names()
        for name in ("reno", "tahoe", "newreno", "cubic"):
            assert name in names

    def test_default_is_reno(self):
        assert DEFAULT_TRANSPORT == "reno"
        assert isinstance(build_controller(DEFAULT_TRANSPORT), RenoController)

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


class TestFlowSpecTransport:
    def test_roundtrip_with_override(self):
        flow = FlowSpec(flow_id=1, src=0, dst=3, transport="cubic")
        data = flow.to_dict()
        assert data["transport"] == "cubic"
        assert FlowSpec.from_dict(json.loads(json.dumps(data))) == flow


class TestControllerResolution:
    """Precedence: FlowSpec.transport > scenario TransportSpec."""

    class _Config:
        def __init__(self, transport=None):
            self.transport = transport

    def resolve(self, config_transport=None, flow_transport=None):
        from repro.traffic.registry import _controller_for

        flow = FlowSpec(flow_id=1, src=0, dst=3, transport=flow_transport)
        return _controller_for(self._Config(config_transport), flow)

    def test_nothing_configured_yields_none(self):
        assert self.resolve() is None

    def test_scenario_spec_applies(self):
        controller = self.resolve(config_transport=TransportSpec("cubic", {"beta": 0.6}))
        assert isinstance(controller, CubicController)
        assert controller.beta == 0.6

    def test_flow_override_beats_scenario_spec(self):
        controller = self.resolve(
            config_transport=TransportSpec("cubic"), flow_transport="tahoe"
        )
        assert isinstance(controller, TahoeController)
