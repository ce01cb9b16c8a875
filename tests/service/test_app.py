"""SimulationService routing: statuses, validation, backpressure, metrics.

Drives :meth:`SimulationService.route` directly — no sockets — which is
exactly the surface the HTTP handler adapts.  The socket path itself is
covered by ``test_http_e2e.py``.
"""

import json

import pytest

from repro.experiments.parallel import config_digest
from repro.experiments.runner import run_scenario
from repro.service.app import SimulationService
from repro.spec import ScenarioConfig


@pytest.fixture
def service(store, cache):
    return SimulationService(store, cache, max_queue=8)


def post_jobs(service, body: dict):
    return service.route("POST", "/jobs", json.dumps(body).encode("utf-8"))


class TestSubmit:
    def test_valid_spec_is_accepted_queued(self, service, store, small_spec):
        status, payload = post_jobs(service, {"spec": small_spec})
        assert status == 202
        assert payload["state"] == "queued"
        assert payload["kind"] == "scenario"
        expected = config_digest(ScenarioConfig.from_dict(small_spec))
        assert payload["digest"] == expected
        assert store.get(payload["job_id"]).config is not None

    def test_body_not_json_is_parse_error(self, service):
        status, payload = service.route("POST", "/jobs", b"{not json")
        assert status == 400
        assert payload["error"]["type"] == "ParseError"

    def test_unknown_request_field_is_spec_error(self, service, small_spec):
        status, payload = post_jobs(service, {"spec": small_spec, "bogus": 1})
        assert status == 400
        assert payload["error"]["type"] == "SpecError"
        assert "bogus" in payload["error"]["message"]

    def test_unknown_component_is_structured_400(self, service):
        status, payload = post_jobs(service, {"spec": {"topology": {"name": "warp"}}})
        assert status == 400
        assert "warp" in payload["error"]["message"]

    def test_bad_spec_enqueues_nothing(self, service, store, small_spec):
        post_jobs(service, {"spec": small_spec, "bogus": 1})
        assert store.job_ids() == []

    def test_cached_digest_is_born_done(self, service, cache, small_spec):
        config = ScenarioConfig.from_dict(small_spec)
        cache.store(config, run_scenario(config))
        status, payload = post_jobs(service, {"spec": small_spec})
        assert status == 202
        assert payload["state"] == "done"
        assert payload["result"] == f"/results/{config_digest(config)}"
        status, result = service.route("GET", payload["result"])
        assert status == 200
        assert result == run_scenario(config).to_dict()

    def test_seeds_fan_out_into_group(self, service, store, small_spec):
        status, payload = post_jobs(service, {"spec": small_spec, "seeds": 3})
        assert status == 202
        assert payload["kind"] == "group"
        assert len(payload["children"]) == 3
        assert len(set(payload["digests"])) == 3
        assert payload["progress"] == {
            "total": 3, "queued": 3, "leased": 0, "done": 0, "failed": 0,
        }
        assert store.queue_depth() == 3


class TestBackpressure:
    def test_full_queue_rejects_without_enqueueing(self, store, cache, small_spec):
        service = SimulationService(store, cache, max_queue=1)
        assert post_jobs(service, {"spec": small_spec})[0] == 202
        other = dict(small_spec, duration_s=0.06)
        status, payload = post_jobs(service, {"spec": other})
        assert status == 429
        assert payload["error"]["type"] == "Backpressure"
        assert store.queue_depth() == 1  # the rejected spec never landed
        assert service.requests_rejected == 1

    def test_cached_submissions_bypass_backpressure(self, store, cache, small_spec):
        service = SimulationService(store, cache, max_queue=0)
        config = ScenarioConfig.from_dict(small_spec)
        cache.store(config, run_scenario(config))
        status, payload = post_jobs(service, {"spec": small_spec})
        assert status == 202
        assert payload["state"] == "done"


class TestReads:
    def test_job_status_roundtrip_and_404(self, service, small_spec):
        _, submitted = post_jobs(service, {"spec": small_spec})
        status, payload = service.route("GET", f"/jobs/{submitted['job_id']}")
        assert status == 200
        assert payload["job_id"] == submitted["job_id"]
        status, payload = service.route("GET", "/jobs/no-such-job")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_result_validation_and_miss(self, service):
        status, payload = service.route("GET", "/results/not-hex!")
        assert status == 400
        assert payload["error"]["type"] == "BadDigest"
        status, payload = service.route("GET", f"/results/{'ab' * 32}")
        assert status == 404

    def test_unknown_route_is_404(self, service):
        assert service.route("GET", "/nope")[0] == 404
        assert service.route("POST", "/jobs/123", b"{}")[0] == 404


class TestHealthAndMetrics:
    def test_healthz(self, service, store):
        status, payload = service.route("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["queue_depth"] == 0

    def test_metrics_track_queue_cache_and_throughput(
        self, service, store, cache, small_spec
    ):
        post_jobs(service, {"spec": small_spec, "seeds": 2})
        status, payload = service.route("GET", "/metrics")
        assert status == 200
        # Group parents are excluded from depth but present in the state tally.
        assert payload["queue_depth"] == 2
        assert payload["jobs"]["queued"] == 3
        assert payload["submitted"] == 2
        assert payload["cache"] == {"hits": 0, "misses": 2, "quarantined": 0}
        assert payload["uptime_s"] > 0
