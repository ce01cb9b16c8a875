"""Fault injection: a worker SIGKILLed mid-job loses its lease, the job retries.

A real worker process claims the job through the real claim/heartbeat
path, but its scenario execution is patched to hang forever — a stand-in
for any wedged or dying worker.  SIGKILL leaves the lease file on disk
with no heartbeats behind it; after the TTL, any sweep requeues the job
and a healthy worker completes it.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import repro
from repro.experiments.parallel import config_digest
from repro.service.queue import WorkQueue
from repro.service.worker import Worker
from repro.spec import ScenarioConfig

SRC_DIR = Path(repro.__file__).resolve().parents[1]

LEASE_TTL_S = 1.0


def _spawn_hanging_worker(store_root: Path) -> subprocess.Popen:
    script = textwrap.dedent(
        f"""
        import threading
        import repro.experiments.parallel as parallel
        # Wedge every simulation: claim + heartbeat run for real, the job never ends.
        parallel._run_config_to_dict = lambda config: threading.Event().wait(600)
        from repro.service.store import JobStore
        from repro.service.worker import Worker
        Worker(JobStore({str(store_root)!r}), lease_ttl_s={LEASE_TTL_S}).run_once()
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.Popen([sys.executable, "-c", script], env=env)


def test_sigkilled_worker_lease_is_reclaimed_and_job_retried(store, small_spec):
    config = ScenarioConfig.from_dict(small_spec)
    job = store.submit(config.to_dict(), digest=config_digest(config))
    lease_path = store.leases_dir / f"{job.job_id}.json"

    process = _spawn_hanging_worker(store.root)
    try:
        deadline = time.time() + 30.0
        # A claim creates the lease file first, then marks the record leased.
        while not (lease_path.exists() and store.get(job.job_id).state == "leased"):
            assert process.poll() is None, "hanging worker exited before claiming"
            assert time.time() < deadline, "worker never claimed the job"
            time.sleep(0.05)
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)

    # The kill left the claim behind: job still leased, lease file present.
    assert lease_path.exists()
    assert store.get(job.job_id).state == "leased"

    # Once heartbeats stop, the lease expires and any sweep requeues the job.
    queue = WorkQueue(store, lease_ttl_s=LEASE_TTL_S, backoff_base_s=0.0)
    deadline = time.time() + 30.0
    while job.job_id not in queue.reclaim_expired():
        assert time.time() < deadline, "expired lease never reclaimed"
        time.sleep(0.1)
    reclaimed = store.get(job.job_id)
    assert reclaimed.state == "queued"
    assert reclaimed.attempts == 1  # the dead worker's attempt is on the record
    assert not lease_path.exists()

    # A healthy worker picks the retry up and completes it for real.
    worker = Worker(store, queue=queue, worker_id="healthy")
    done = worker.run_once()
    assert done is not None and done.job_id == job.job_id
    assert done.state == "done"
    assert done.attempts == 2
    assert worker.cache.load_raw(done.digest) is not None
