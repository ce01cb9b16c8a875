"""Worker: claim-run-complete loop, instant cached path, poison quarantine."""

import pytest

import repro.experiments.parallel as parallel
from repro.experiments.parallel import config_digest
from repro.experiments.runner import run_scenario
from repro.service.queue import WorkQueue
from repro.service.worker import Worker


@pytest.fixture
def worker(store, cache):
    # backoff_base_s=0 so retry loops run without waiting out real time.
    queue = WorkQueue(store, backoff_base_s=0.0)
    return Worker(store, cache=cache, queue=queue, worker_id="w-test", poll_s=0.01)


class TestRunOnce:
    def test_idle_queue_returns_none(self, worker):
        assert worker.run_once() is None

    def test_runs_fresh_job_bit_identical_to_direct_run(
        self, store, cache, worker, small_config
    ):
        config = small_config()
        submitted = store.submit(config.to_dict(), digest=config_digest(config))
        record = worker.run_once()
        assert record.job_id == submitted.job_id
        assert record.state == "done"
        assert record.digest == config_digest(config)
        assert worker.jobs_done == 1
        # The lease is gone and the heartbeat thread did not resurrect it.
        assert not worker.queue.lease_path(record.job_id).exists()
        # The cached payload is exactly what an in-process run produces.
        assert cache.load_raw(record.digest) == run_scenario(config).to_dict()

    def test_digest_computed_when_submit_omitted_it(self, store, worker, small_config):
        config = small_config()
        store.submit(config.to_dict())
        record = worker.run_once()
        assert record.digest == config_digest(config)

    def test_cached_digest_completes_without_simulating(
        self, store, cache, worker, small_config, monkeypatch
    ):
        config = small_config()
        cache.store(config, run_scenario(config))
        store.submit(config.to_dict(), digest=config_digest(config))

        def explode(config):
            raise AssertionError("cached job must not simulate")

        monkeypatch.setattr(parallel, "_run_config_to_dict", explode)
        record = worker.run_once()
        assert record.state == "done"


class TestPoisonJobs:
    def test_poison_job_quarantined_not_retried_forever(self, store, worker):
        # A payload ScenarioConfig.from_dict rejects: every attempt fails,
        # and the cap retires the job instead of looping.
        store.submit({"corrupt": True}, max_attempts=3)
        processed = worker.run_forever(idle_exit_s=0)
        assert processed == 3
        assert worker.jobs_failed == 1  # counted once, at quarantine
        (record,) = list(store.records())
        assert record.state == "failed"
        assert record.quarantined
        assert record.attempts == 3
        assert "SpecError" in record.error
        assert worker.run_once() is None  # nothing left to claim

    def test_failed_attempt_below_cap_requeues(self, store, worker):
        store.submit({"corrupt": True}, max_attempts=2)
        record = worker.run_once()
        assert record.state == "queued"
        assert record.attempts == 1
        assert "SpecError" in record.error


class TestLoops:
    def test_run_until_idle_drains_everything(self, store, worker, small_config):
        for seed in (1, 2):
            store.submit(small_config(seed=seed).to_dict())
        assert worker.run_forever(idle_exit_s=0) == 2
        assert all(record.state == "done" for record in store.records())

    def test_run_forever_max_jobs(self, store, worker, small_config):
        for seed in (1, 2):
            store.submit(small_config(seed=seed).to_dict())
        assert worker.run_forever(max_jobs=1) == 1
        assert store.counts()["queued"] == 1

    def test_run_forever_idle_exit(self, worker):
        assert worker.run_forever(idle_exit_s=0.0) == 0
