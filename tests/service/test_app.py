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
from repro.service.worker import Worker
from repro.spec import ScenarioConfig
from tests.conftest import removed_key_documents


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

    @pytest.mark.parametrize("grid", [{"seeds": 2}, {"sweep": {"scheme_label": ["D", "R16"]}}])
    def test_grid_body_is_a_400_naming_the_field(self, service, store, small_spec, grid):
        (name,) = grid
        status, payload = post_jobs(service, {"spec": small_spec, **grid})
        assert status == 400
        assert payload["error"]["type"] == "SpecError"
        assert name in payload["error"]["message"]
        assert store.job_ids() == []

    @pytest.mark.parametrize("case", sorted(removed_key_documents()))
    def test_removed_key_is_a_400_naming_the_field(self, service, store, case):
        document, key = removed_key_documents()[case]
        status, payload = post_jobs(service, {"spec": document})
        assert status == 400
        assert payload["error"]["type"] == "SpecError"
        assert f"unknown field '{key}'" in payload["error"]["message"]
        assert store.job_ids() == []


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

    def test_unreadable_record_is_a_store_error(self, service, old_group_record):
        status, payload = service.route("GET", f"/jobs/{old_group_record}")
        assert status == 500
        assert payload["error"]["type"] == "StoreError"

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
        for seed in (1, 2):
            post_jobs(service, {"spec": dict(small_spec, seed=seed)})
        status, payload = service.route("GET", "/metrics")
        assert status == 200
        assert payload["queue_depth"] == payload["jobs"]["queued"] == 2
        assert payload["submitted"] == 2
        assert payload["cache"] == {"hits": 0, "misses": 2, "quarantined": 0}
        assert payload["uptime_s"] > 0

    def test_drained_store_has_no_queued_jobs(self, service, store, cache, small_spec):
        for seed in (1, 2):
            post_jobs(service, {"spec": dict(small_spec, seed=seed)})
        assert Worker(store, cache=cache).run_forever(idle_exit_s=0) == 2
        _, payload = service.route("GET", "/metrics")
        assert payload["queue_depth"] == payload["jobs"]["queued"] == 0
        assert payload["jobs"]["done"] == 2
