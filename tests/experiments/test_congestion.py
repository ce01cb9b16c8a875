"""The congestion experiment family and non-default-transport scenarios.

Covers the transport subsystem's scenario-level contract: a cubic
scenario is deterministic, parallel sweeps equal serial ones, results
round-trip through the cache byte-identically, the default transport
canonicalizes out of the digest, and the transport × MAC family grid is
wired the way its tables assume.
"""

from __future__ import annotations

import json

from repro.experiments.congestion import (
    CONGESTION_SCHEMES,
    CONGESTION_TRANSPORTS,
    congestion_grid,
)
from repro.experiments.figures import FIGURES
from repro.experiments.parallel import ResultCache, SweepRunner, config_digest
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.spec import PAPER_SCHEMES, TransportSpec
from repro.topology.standard import line_topology


def cubic_config(**overrides):
    defaults = dict(
        topology=line_topology(3),
        scheme_label="R16",
        active_flows=[1],
        transport=TransportSpec("cubic"),
        duration_s=0.1,
        seed=2,
    )
    defaults.update(overrides)
    return ScenarioConfig(**{key: value for key, value in defaults.items() if value is not None})


class TestCubicScenario:
    def test_runs_are_deterministic(self):
        first = run_scenario(cubic_config())
        second = run_scenario(cubic_config())
        assert first.to_dict() == second.to_dict()

    def test_parallel_equals_serial(self):
        configs = [cubic_config(seed=seed) for seed in (1, 2, 3)]
        serial = SweepRunner(jobs=1).run(configs)
        parallel = SweepRunner(jobs=2).run(configs)
        for a, b in zip(serial, parallel):
            assert a.to_dict() == b.to_dict()

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(cache=cache)
        config = cubic_config()
        first = runner.run_one(config)
        assert cache.misses == 1
        second = runner.run_one(config)
        assert cache.hits == 1
        assert second.to_dict() == first.to_dict()
        rebuilt = ScenarioResult.from_dict(json.loads(json.dumps(first.to_dict())))
        assert rebuilt.to_dict() == first.to_dict()

    def test_transport_counters_surface_in_results(self):
        result = run_scenario(cubic_config())
        flow = result.flows[0]
        data = flow.to_dict()
        for key in ("retransmissions", "fast_retransmits", "timeouts", "rto_backoffs"):
            assert key in data
        assert flow.packets_sent > 0  # the sender's segment count, not 0


class TestTransportDigest:
    def test_default_transport_canonicalizes_out(self):
        """No transport and an explicit reno are one config with one digest."""
        base = cubic_config(transport=None)
        explicit = cubic_config(transport=TransportSpec("reno"))
        assert base == explicit
        assert config_digest(base) == config_digest(explicit)
        assert base.transport == TransportSpec("reno")

    def test_non_default_transport_changes_the_digest(self):
        assert config_digest(cubic_config()) != config_digest(cubic_config(transport=None))
        assert config_digest(
            cubic_config(transport=TransportSpec("cubic", {"beta": 0.6}))
        ) != config_digest(cubic_config())

    def test_transport_survives_serialization(self):
        config = cubic_config(transport=TransportSpec("cubic", {"beta": 0.6}))
        rebuilt = ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt.transport == config.transport
        assert config_digest(rebuilt) == config_digest(config)


class TestCongestionFamily:
    def test_grid_covers_transport_times_mac(self):
        configs, keys = congestion_grid(duration_s=0.05)
        assert len(configs) == len(CONGESTION_TRANSPORTS) * len(CONGESTION_SCHEMES)
        assert keys[0] == (CONGESTION_TRANSPORTS[0], CONGESTION_SCHEMES[0])
        seen = {(config.transport.name, config.mac.name) for config in configs}
        assert seen == {
            (t, PAPER_SCHEMES[s][0]) for t in CONGESTION_TRANSPORTS for s in CONGESTION_SCHEMES
        }

    def test_run_fills_every_cell(self):
        blocks = FIGURES["congestion"].blocks(
            SweepRunner(), 1, 0.05, panels=("line",), transports=("reno", "cubic"), schemes=("D",)
        )
        throughput, retransmissions = blocks.values()
        assert set(throughput) == set(retransmissions) == {"reno", "cubic"}
        for transport in ("reno", "cubic"):
            assert set(throughput[transport]) == {"D"}
            assert throughput[transport]["D"] > 0
            assert retransmissions[transport]["D"] >= 0

    def test_listed_in_the_cli(self):
        assert "congestion" in FIGURES
