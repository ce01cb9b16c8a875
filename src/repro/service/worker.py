"""Workers: claim jobs, run them through the sweep path, heartbeat leases.

A :class:`Worker` is a loop over
:meth:`repro.service.queue.WorkQueue.claim`.  Each claimed job is
executed through :class:`~repro.experiments.parallel.SweepRunner` with
the *shared* result cache — exactly the path ``python -m
repro.experiments run`` takes — so a job whose
:func:`~repro.experiments.parallel.config_digest` is already cached
completes instantly without simulating, and a freshly simulated result
is bit-identical to an in-process run of the same config.

While a job runs, a daemon heartbeat thread refreshes the lease every
``heartbeat_s``; a worker killed mid-job (SIGKILL, OOM, power loss)
stops heartbeating and the lease expires, after which any other worker's
:meth:`~repro.service.queue.WorkQueue.reclaim_expired` sweep requeues
the job for retry.  Failures inside a job (bad payload, component
errors) are recorded via :meth:`~repro.service.queue.WorkQueue.fail_attempt`,
which quarantines the job after ``max_attempts``.

Standalone processes — one per core, or spread across machines sharing
the store directory — run the same loop via::

    python -m repro.service worker --store DIR
"""

from __future__ import annotations

import threading
import uuid
from typing import Optional

from repro.service import clock
from repro.service.queue import WorkQueue
from repro.service.store import JobRecord, JobStore


class Worker:
    """One claim-run-complete loop over a shared job store."""

    def __init__(
        self,
        store: JobStore,
        *,
        cache=None,
        queue: Optional[WorkQueue] = None,
        worker_id: Optional[str] = None,
        lease_ttl_s: Optional[float] = None,
        heartbeat_s: Optional[float] = None,
        poll_s: float = 0.5,
    ) -> None:
        from repro.experiments.parallel import ResultCache

        self.store = store
        kwargs = {} if lease_ttl_s is None else {"lease_ttl_s": lease_ttl_s}
        self.queue = queue or WorkQueue(store, **kwargs)
        self.cache = cache if cache is not None else ResultCache(store.cache_dir)
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        self.heartbeat_s = (
            heartbeat_s if heartbeat_s is not None else max(self.queue.lease_ttl_s / 3.0, 0.05)
        )
        self.poll_s = float(poll_s)
        self.jobs_done = 0
        self.jobs_failed = 0

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------
    def _run_record(self, record: JobRecord) -> str:
        """Execute one claimed job; returns the result digest.

        Raises on any failure (malformed payload, component errors, ...);
        the caller turns exceptions into ``fail_attempt``.
        """
        from repro.experiments.parallel import SweepRunner, config_digest
        from repro.experiments.runner import ScenarioConfig

        config = ScenarioConfig.from_dict(record.config)
        digest = record.digest or config_digest(config)
        # The shared cache makes this the instant path for known digests
        # and the store-through path for fresh ones.
        SweepRunner(jobs=1, cache=self.cache).run_one(config)
        return digest

    def run_once(self) -> Optional[JobRecord]:
        """Claim and process a single job; None when the queue is idle.

        The returned record is terminal (``done``) or requeued/quarantined
        (``queued``/``failed``) — never left ``leased``.
        """
        self.queue.reclaim_expired()
        record = self.queue.claim(self.worker_id)
        if record is None:
            return None
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_s):
                try:
                    self.queue.heartbeat(record.job_id, self.worker_id)
                except OSError:
                    return  # store directory gone; the lease will expire

        heartbeat = threading.Thread(target=beat, name=f"{self.worker_id}-heartbeat", daemon=True)
        heartbeat.start()
        try:
            digest = self._run_record(record)
        except Exception as exc:  # noqa: BLE001 - every job failure must be recorded
            stop.set()
            heartbeat.join()
            return self.queue.fail_attempt(record, f"{type(exc).__name__}: {exc}")
        finally:
            stop.set()
            heartbeat.join()
        self.jobs_done += 1
        return self.queue.complete(record, digest)

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------
    def run_forever(
        self,
        *,
        max_jobs: Optional[int] = None,
        idle_exit_s: Optional[float] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> int:
        """Poll for work until stopped; returns the number of jobs processed.

        ``max_jobs`` bounds the total processed, ``idle_exit_s`` exits
        after that long without finding work (useful for drain-and-exit
        deployments), and ``stop_event`` allows cooperative shutdown from
        another thread.
        """
        processed = 0
        idle_since: Optional[float] = None
        while stop_event is None or not stop_event.is_set():
            record = self.run_once()
            if record is not None:
                processed += 1
                if record.state == "failed":
                    self.jobs_failed += 1
                idle_since = None
                if max_jobs is not None and processed >= max_jobs:
                    break
                continue
            now = clock.monotonic_s()
            if idle_since is None:
                idle_since = now
            if idle_exit_s is not None and now - idle_since >= idle_exit_s:
                break
            if stop_event is not None:
                stop_event.wait(self.poll_s)
            else:
                clock.sleep_s(self.poll_s)
        return processed
