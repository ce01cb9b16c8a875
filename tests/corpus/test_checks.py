"""Invariant checks: clean scenarios pass, injected breakage is caught."""

import pytest

from repro.corpus.checks import (
    CORPUS_CHECKS,
    CheckContext,
    evaluate,
    known_check_ids,
    run_check_on,
)
from repro.corpus.shrink import baseline_document


def _tiny_document(**overrides):
    document = baseline_document()
    document["duration_s"] = 0.01
    document.update(overrides)
    return document


class TestCleanPass:
    def test_all_checks_pass_on_the_baseline(self):
        ctx = CheckContext(_tiny_document())
        for check_id in known_check_ids():
            check = CORPUS_CHECKS.lookup(check_id)
            assert run_check_on(check, ctx) is None, check_id

    def test_evaluate_returns_no_findings(self):
        documents = [
            _tiny_document(),
            _tiny_document(mac={"name": "ripple", "params": {}}),
        ]
        assert evaluate(documents) == []


class TestRegistry:
    def test_check_ids_cover_the_advertised_invariants(self):
        assert known_check_ids() == [
            "digest-stability",
            "determinism",
            "parallel-serial",
            "cache-roundtrip",
        ]

    def test_unknown_check_id_raises(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError):
            CORPUS_CHECKS.lookup("bogus")


class TestInjectedBreakage:
    def test_nondeterministic_runner_trips_determinism(self):
        calls = {"n": 0}

        def flaky_run(config):
            from repro.experiments.runner import run_scenario

            payload = run_scenario(config).to_dict()
            calls["n"] += 1
            payload["events_processed"] = payload["events_processed"] + calls["n"]
            return payload

        ctx = CheckContext(_tiny_document(), run=flaky_run)
        message = run_check_on(CORPUS_CHECKS.lookup("determinism"), ctx)
        assert message is not None and "re-running" in message

    def test_divergent_parallel_runner_trips_parallel_serial(self):
        def skewed_parallel(configs):
            from repro.experiments.runner import run_scenario

            payloads = [run_scenario(config).to_dict() for config in configs]
            payloads[-1]["events_processed"] += 1
            return payloads

        ctx = CheckContext(_tiny_document(), run_parallel=skewed_parallel)
        message = run_check_on(CORPUS_CHECKS.lookup("parallel-serial"), ctx)
        assert message is not None and "parallel run" in message

    def test_crashing_runner_becomes_a_finding_message(self):
        def exploding_run(config):
            raise RuntimeError("boom")

        ctx = CheckContext(_tiny_document(), run=exploding_run)
        message = run_check_on(CORPUS_CHECKS.lookup("determinism"), ctx)
        assert message == "RuntimeError: boom"
