"""End-to-end over a real socket: submit -> worker -> result, bit-identical.

The acceptance proof for the service: a result fetched over HTTP is
byte-identical to running the same ScenarioConfig in-process, both when
the worker simulates it fresh and when the digest is already cached.
"""

import json
import threading

import pytest

from repro.experiments.parallel import config_digest
from repro.experiments.runner import run_scenario
from repro.service.app import SimulationService
from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.service.queue import WorkQueue
from repro.service.server import make_server
from repro.service.worker import Worker
from repro.spec import ScenarioConfig


@pytest.fixture
def service_stack(store, cache):
    """A live HTTP server plus one in-process worker draining its store."""
    service = SimulationService(store, cache, max_queue=64)
    server = make_server(service, port=0)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()

    stop = threading.Event()
    worker = Worker(
        store, cache=cache, queue=WorkQueue(store, backoff_base_s=0.0), poll_s=0.02
    )
    worker_thread = threading.Thread(
        target=worker.run_forever, kwargs={"stop_event": stop}, daemon=True
    )
    worker_thread.start()

    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), store, cache
    finally:
        stop.set()
        worker_thread.join(timeout=30)
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=30)


def test_fresh_and_warm_submissions_match_direct_run(service_stack, small_spec):
    client, _store, _cache = service_stack
    config = ScenarioConfig.from_dict(small_spec)

    submitted = client.submit(small_spec)
    assert submitted["state"] == "queued"
    job = client.wait(submitted["job_id"], timeout_s=60)
    assert job["state"] == "done"
    assert job["digest"] == config_digest(config)

    served = client.result(job["digest"])
    direct = run_scenario(config).to_dict()
    assert json.dumps(served, sort_keys=True) == json.dumps(direct, sort_keys=True)

    # Warm path: the same spec resubmitted is done at submit time.
    resubmitted = client.submit(small_spec)
    assert resubmitted["state"] == "done"
    assert resubmitted["digest"] == job["digest"]


def test_grid_body_is_a_400_over_http(service_stack, small_spec):
    client, store, _cache = service_stack
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/jobs", {"spec": small_spec, "seeds": 2})
    assert excinfo.value.status == 400
    assert excinfo.value.payload["error"]["type"] == "SpecError"
    assert "seeds" in str(excinfo.value)
    assert store.job_ids() == []


def test_failed_job_surfaces_through_wait(service_stack):
    client, store, _cache = service_stack
    # Poison the queue behind the API's validation: a payload the worker
    # cannot parse, capped at one attempt so it quarantines immediately.
    record = store.submit({"corrupt": True}, max_attempts=1)
    with pytest.raises(JobFailed) as excinfo:
        client.wait(record.job_id, timeout_s=60)
    assert excinfo.value.payload["quarantined"] is True
    assert "SpecError" in excinfo.value.payload["error"]


def test_http_errors_carry_structured_payloads(service_stack, small_spec):
    client, _store, _cache = service_stack
    with pytest.raises(ServiceError) as excinfo:
        client.submit(dict(small_spec, warp_drive=9))
    assert excinfo.value.status == 400
    assert "warp_drive" in str(excinfo.value)
    with pytest.raises(ServiceError) as excinfo:
        client.job("no-such-job")
    assert excinfo.value.status == 404
