"""Sweep runner: digests, caching, and serial/parallel parity."""

import json

from repro.experiments.grids import scenario_grid
from repro.experiments.parallel import ResultCache, SweepRunner, config_digest
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.topology.standard import fig1_topology


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


def small_grid(**axes):
    return scenario_grid(small_config(), axes)[0]


class TestConfigDigest:
    def test_digest_is_stable(self):
        assert config_digest(small_config()) == config_digest(small_config())

    def test_digest_changes_with_any_field(self):
        base = config_digest(small_config())
        assert config_digest(small_config(seed=3)) != base
        assert config_digest(small_config(scheme_label="R16")) != base
        assert config_digest(small_config(bit_error_rate=1e-5)) != base
        assert config_digest(small_config(warmup_s=0.01)) != base

    def test_digest_survives_serialization_roundtrip(self):
        config = small_config(scheme_label="R16", max_aggregation=4)
        rebuilt = ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert config_digest(rebuilt) == config_digest(config)


class TestCacheSchemaVersion:
    """Schema bumps must actually reach the digest (cache-soundness)."""

    def test_version_pinned_to_transport_counters_bump(self):
        # 6 = transport registry: cached result payloads gained per-flow
        # transport counters (retransmissions, fast_retransmits, timeouts,
        # rto_backoffs — and packets_sent is now the sender's count for TCP
        # flows), which schema-5 entries lack.  7 = one grant event per
        # backoff: every payload's events_processed fell, so schema-6
        # entries carry counts this code never produces.  8 = one
        # scenario type, one field-driven codec: config dicts carry every
        # field.  Bump this pin together with the constant — never adjust
        # the pin alone.
        import repro.experiments.parallel as parallel

        assert parallel.CACHE_SCHEMA_VERSION == 8

    def test_digest_incorporates_schema_version(self, monkeypatch):
        """An old-schema digest must differ for the *same* config.

        This is the regression guard for the bump itself: if someone bumps
        the constant but the digest stops covering it (refactor drops the
        field, renames it, or hardcodes a literal), cached pre-bump results
        would silently satisfy post-bump lookups.
        """
        import repro.experiments.parallel as parallel

        config = small_config()
        current = config_digest(config)
        monkeypatch.setattr(parallel, "CACHE_SCHEMA_VERSION", 5)
        assert config_digest(config) != current


class TestSerializationRoundTrip:
    def test_scenario_result_roundtrip_is_lossless(self):
        result = run_scenario(small_config())
        data = json.loads(json.dumps(result.to_dict()))
        rebuilt = ScenarioResult.from_dict(data)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.total_throughput_mbps == result.total_throughput_mbps
        assert rebuilt.events_processed == result.events_processed

    def test_voip_quality_roundtrip(self):
        from repro.topology.standard import voip_topology

        config = ScenarioConfig(
            topology=voip_topology(1),
            scheme_label="D",
            active_flows=[1],
            duration_s=0.1,
            seed=2,
        )
        result = run_scenario(config)
        rebuilt = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert set(rebuilt.voip_quality) == set(result.voip_quality)
        for flow_id, quality in result.voip_quality.items():
            assert rebuilt.voip_quality[flow_id] == quality


class TestSweepRunner:
    def test_results_in_input_order(self):
        grid = small_grid(scheme_label=["D", "R1"])
        results = SweepRunner().run(grid)
        assert [r.config.mac.name for r in results] == ["dcf", "ripple1"]

    def test_parallel_matches_serial_bit_for_bit(self):
        grid = small_grid(scheme_label=["D", "R16"], seed=[1, 2])
        serial = SweepRunner(jobs=1).run(grid)
        parallel = SweepRunner(jobs=4).run(grid)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_runner_matches_direct_run_scenario(self):
        config = small_config()
        assert SweepRunner().run_one(config).to_dict() == run_scenario(config).to_dict()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = small_config()
        assert cache.load(config) is None
        assert cache.misses == 1
        result = run_scenario(config)
        cache.store(config, result)
        cached = cache.load(config)
        assert cached is not None and cache.hits == 1
        assert cached.to_dict() == result.to_dict()

    def test_second_sweep_served_from_cache(self, tmp_path):
        grid = small_grid(scheme_label=["D", "R1"], seed=[1, 2])
        cache = ResultCache(tmp_path)
        first = SweepRunner(jobs=1, cache=cache).run(grid)
        assert cache.hits == 0 and cache.misses == len(grid)
        second = SweepRunner(jobs=1, cache=cache).run(grid)
        assert cache.hits == len(grid)
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]

    def test_same_config_and_seed_give_identical_cached_result(self, tmp_path):
        # Determinism end to end: simulate twice into two separate caches and
        # compare the bytes on disk.
        config = small_config(scheme_label="R16", seed=4)
        digest = config_digest(config)
        payloads = []
        for subdir in ("a", "b"):
            cache = ResultCache(tmp_path / subdir)
            SweepRunner(cache=cache).run([config])
            payloads.append(cache.path_for(digest).read_text())
        assert payloads[0] == payloads[1]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = small_config()
        path = cache.path_for(config_digest(config))
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.load(config) is None
        # And the runner transparently re-simulates and repairs the entry.
        result = SweepRunner(cache=cache).run_one(config)
        assert cache.load(config).to_dict() == result.to_dict()
