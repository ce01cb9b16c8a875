"""Component-pack integration: determinism, cache digests, bit-identity.

The cross-cutting guarantees of the propagation/MAC/traffic/topology pack:
every new component is deterministic with parallel == serial, every new
parameter reaches the cache digest (no aliasing with pre-pack entries),
and the default shadowing path is bit-identical to a pre-pack build.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.parallel import CACHE_SCHEMA_VERSION, SweepRunner, config_digest
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.phy.params import PhyParams
from repro.phy.propagation import ShadowingPropagation
from repro.spec import MacSpec, TrafficSpec
from repro.topology.network import WirelessNetwork
from repro.topology.standard import line_topology


def pack_configs():
    """One small config per new component (plus one combining all of them)."""
    topology = line_topology(3)
    base = dict(topology=topology, duration_s=0.05, seed=3)
    return [
        ScenarioConfig(phy=PhyParams(propagation="rayleigh"), **base),
        ScenarioConfig(
            phy=PhyParams(propagation="rician", propagation_params={"k_factor": 2.0}), **base
        ),
        ScenarioConfig(mac=MacSpec("rate_adapt", {"inner": "ripple", "up_after": 3}), **base),
        ScenarioConfig(traffic=TrafficSpec("poisson", {"arrival_rate_hz": 40.0}), **base),
        ScenarioConfig(
            phy=PhyParams(propagation="rician"),
            mac=MacSpec("rate_adapt"),
            traffic=TrafficSpec("poisson", {"arrival_rate_hz": 40.0}),
            **base,
        ),
    ]


class TestDeterminism:
    @pytest.mark.parametrize("index", range(5))
    def test_each_component_is_deterministic(self, index):
        config = pack_configs()[index]
        assert run_scenario(config).to_dict() == run_scenario(config).to_dict()

    def test_parallel_equals_serial_for_the_pack(self):
        configs = pack_configs()
        serial = SweepRunner(jobs=1).run(configs)
        parallel = SweepRunner(jobs=4).run(configs)
        for a, b in zip(serial, parallel):
            assert a.to_dict() == b.to_dict()

    def test_results_round_trip_through_the_cache_layer(self, tmp_path):
        from repro.experiments.parallel import ResultCache

        cache = ResultCache(tmp_path)
        config = pack_configs()[4]
        first = SweepRunner(jobs=1, cache=cache).run_one(config)
        second = SweepRunner(jobs=1, cache=cache).run_one(config)
        assert cache.hits == 1
        assert first.to_dict() == second.to_dict()


class TestBitIdentity:
    """The default propagation path must be exactly the pre-pack model."""

    def test_default_network_propagation_is_shadowing(self):
        network = WirelessNetwork(seed=1)
        assert network.propagation == ShadowingPropagation(
            max_deviation_sigmas=network.phy.max_deviation_sigmas
        )

    def test_explicit_shadowing_phy_equals_default_run(self):
        topology = line_topology(3)
        base = dict(topology=topology, duration_s=0.05, seed=3)
        default = run_scenario(ScenarioConfig(**base))
        explicit = run_scenario(ScenarioConfig(phy=PhyParams(propagation="shadowing"), **base))
        assert default.flows[0].to_dict() == explicit.flows[0].to_dict()
        assert default.events_processed == explicit.events_processed


class TestCacheSchema:
    def test_schema_version_at_least_the_component_pack_bump(self):
        # The pack bumped the layout to 4; later PRs may bump further (the
        # exact current value is pinned in tests/experiments/test_parallel.py).
        assert CACHE_SCHEMA_VERSION >= 4

    def test_digest_covers_propagation_model_and_params(self):
        base = dict(topology=line_topology(3), duration_s=0.05, seed=3)
        digests = {
            config_digest(ScenarioConfig(**base)),
            config_digest(ScenarioConfig(phy=PhyParams(), **base)),
            config_digest(ScenarioConfig(phy=PhyParams(propagation="rayleigh"), **base)),
            config_digest(ScenarioConfig(phy=PhyParams(propagation="rician"), **base)),
            config_digest(
                ScenarioConfig(
                    phy=PhyParams(propagation="rician", propagation_params={"k_factor": 9.0}),
                    **base,
                )
            ),
        }
        assert len(digests) == 5

    def test_digest_covers_mac_and_traffic_params(self):
        base = dict(topology=line_topology(3), duration_s=0.05, seed=3)
        digests = {
            config_digest(ScenarioConfig(mac=MacSpec("rate_adapt"), **base)),
            config_digest(ScenarioConfig(mac=MacSpec("rate_adapt", {"up_after": 5}), **base)),
            config_digest(ScenarioConfig(mac=MacSpec("rate_adapt", {"inner": "ripple"}), **base)),
            config_digest(ScenarioConfig(traffic=TrafficSpec("poisson"), **base)),
            config_digest(
                ScenarioConfig(traffic=TrafficSpec("poisson", {"arrival_rate_hz": 1.0}), **base)
            ),
        }
        assert len(digests) == 5

    def test_digest_json_stable_across_processes(self):
        """The digest payload must be canonical JSON (regression guard)."""
        config = pack_configs()[4]
        assert config_digest(config) == config_digest(
            ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        )


class TestAcceptanceCombination:
    """`topology=trace:... mac=rate_adapt traffic=poisson phy.propagation=rician`."""

    CSV = "node,0,0,0\nnode,1,115,0\nnode,2,230,0\nflow,1,0,2\n"

    def test_full_combination_runs_and_round_trips(self, tmp_path):
        path = tmp_path / "site.csv"
        path.write_text(self.CSV, encoding="utf-8")
        document = {
            "topology": {"name": f"trace:{path}", "params": {}},
            "mac": {"name": "rate_adapt", "params": {}},
            "traffic": {"name": "poisson", "params": {"arrival_rate_hz": 40.0}},
            "phy": {"propagation": "rician"},
            "duration_s": 0.1,
            "seed": 2,
        }
        config = ScenarioConfig.from_dict(document)
        assert ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
        result = run_scenario(config)
        assert result.flows
        restored = ScenarioConfig.from_dict(result.config.to_dict())
        assert restored.to_dict() == result.config.to_dict()
