"""ResultCache under fire: concurrent readers/writers, corrupt-entry quarantine.

The service leans on two cache properties: atomic writes mean a reader
never observes a torn entry (even with multiple processes hammering one
digest), and a corrupt entry is quarantined — renamed aside and reported
as a miss — instead of permanently poisoning its digest.
"""

import json
import multiprocessing
import sys

from repro.experiments.parallel import ResultCache, config_digest
from repro.experiments.runner import ScenarioConfig, run_scenario

#: Tiny but non-trivial scenario shared by every hammer process.
HAMMER_CONFIG = {
    "topology": {
        "name": "line",
        "params": {"n_hops": 2},
    },
    "duration_s": 0.02,
}


def _hammer_config() -> ScenarioConfig:
    from repro.spec import ScenarioConfig

    return ScenarioConfig.from_dict(HAMMER_CONFIG)


def _writer(cache_root: str, iterations: int) -> None:
    config = _hammer_config()
    result = run_scenario(config)
    cache = ResultCache(cache_root)
    for _ in range(iterations):
        cache.store(config, result)
    sys.exit(0)


def _reader(cache_root: str, iterations: int) -> None:
    config = _hammer_config()
    expected = run_scenario(config).to_dict()  # deterministic: same as any writer's
    cache = ResultCache(cache_root)
    for _ in range(iterations):
        loaded = cache.load(config)
        if loaded is None:
            sys.exit(3)  # atomic replace means the entry must always be readable
        if loaded.to_dict() != expected:
            sys.exit(4)  # torn or mixed read
    sys.exit(0)


class TestConcurrentAccess:
    def test_hammering_one_digest_never_tears(self, tmp_path):
        cache_root = tmp_path / "cache"
        config = _hammer_config()
        ResultCache(cache_root).store(config, run_scenario(config))

        processes = [
            multiprocessing.Process(target=_writer, args=(str(cache_root), 150))
            for _ in range(2)
        ] + [
            multiprocessing.Process(target=_reader, args=(str(cache_root), 300))
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert [process.exitcode for process in processes] == [0, 0, 0, 0]
        # Nothing got quarantined along the way, and the entry still loads.
        assert not list(cache_root.rglob("*.corrupt"))
        final = ResultCache(cache_root)
        assert final.load(config) is not None


class TestQuarantine:
    def test_undecodable_entry_is_quarantined_not_permamissed(
        self, tmp_path, small_config
    ):
        cache = ResultCache(tmp_path / "cache")
        config = small_config()
        digest = config_digest(config)
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json", encoding="utf-8")

        assert cache.load(config) is None
        assert not path.exists()  # moved aside, not left to fail forever
        corpse = path.with_name(path.name + ".corrupt")
        assert corpse.exists()
        assert cache.stats() == {"hits": 0, "misses": 1, "quarantined": 1}

        # The digest heals: a fresh store makes the next load a clean hit.
        result = run_scenario(config)
        cache.store(config, result)
        assert cache.load(config).to_dict() == result.to_dict()
        assert cache.stats() == {"hits": 1, "misses": 1, "quarantined": 1}

    def test_valid_json_that_is_not_a_result_is_quarantined(
        self, tmp_path, small_config
    ):
        config = small_config()
        # A mangled field, and a result that lost its flows, VoIP quality
        # and event count (which must not load as an empty result).
        payloads = {"mangled": {"flows": "nope"}, "truncated": {"config": config.to_dict()}}
        for name, payload in payloads.items():
            cache = ResultCache(tmp_path / name)
            path = cache.path_for(config_digest(config))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload), encoding="utf-8")

            assert cache.load(config) is None
            assert path.with_name(path.name + ".corrupt").exists()
            # Counters stay truthful: the structural reject is a miss, not a hit.
            assert cache.stats() == {"hits": 0, "misses": 1, "quarantined": 1}

    def test_non_dict_payload_is_quarantined_by_load_raw(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = "ab" * 32
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert cache.load_raw(digest) is None
        assert cache.quarantined == 1

    def test_missing_entry_is_a_plain_miss(self, tmp_path, small_config):
        cache = ResultCache(tmp_path / "cache")
        assert cache.load(small_config()) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "quarantined": 0}
