"""Work-stealing claim protocol: lease files, heartbeats, reclaim, backoff.

Any number of workers — threads, processes, or machines sharing the
store's filesystem — drain one :class:`~repro.service.store.JobStore` by
*claiming* jobs through lease files:

* **Claim** — scan queued jobs in id order and atomically create
  ``leases/<job_id>.json`` with ``O_CREAT | O_EXCL``; exactly one
  claimant can win, which is the entire mutual-exclusion story (no
  server, no locks, works across machines on a shared POSIX
  filesystem).  The winner flips the record ``queued -> leased``.
* **Heartbeat** — the owner periodically rewrites its lease with a new
  expiry stamp.  A worker that dies (SIGKILL, power loss) simply stops
  heartbeating.
* **Reclaim** — anyone may sweep expired leases: the job record is
  returned to ``queued`` (with retry backoff) *before* the lease file is
  unlinked, so no claimant can observe a half-reclaimed job.
* **Backoff & quarantine** — each claim counts as an attempt; failures
  and expiries requeue the job ``not_before`` an exponentially growing
  delay, until ``max_attempts`` is reached and the job is retired to
  ``failed`` (the poison-job quarantine) instead of looping forever.

Lease expiry compares epoch stamps written by one machine against the
clock of another, so TTLs should comfortably exceed expected clock skew
plus one heartbeat interval; the defaults (30 s TTL, 10 s heartbeat)
leave a wide margin.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.serialization import Wire
from repro.service import clock
from repro.service.store import JobNotFound, JobRecord, JobStore, JobStoreError

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_TTL_S = 30.0

#: Default first-retry backoff; doubles per attempt up to the cap.
DEFAULT_BACKOFF_BASE_S = 0.5
DEFAULT_BACKOFF_CAP_S = 30.0


@dataclass(frozen=True)
class Lease(Wire):
    """A live claim on one job, held by one worker."""

    job_id: str
    owner: str
    expires_s: float


class WorkQueue:
    """Claim/heartbeat/reclaim protocol over a :class:`JobStore`."""

    def __init__(
        self,
        store: JobStore,
        *,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
    ) -> None:
        self.store = store
        self.lease_ttl_s = float(lease_ttl_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)

    # ------------------------------------------------------------------
    # Lease file IO
    # ------------------------------------------------------------------
    def lease_path(self, job_id: str) -> Path:
        return self.store.leases_dir / f"{job_id}.json"

    def _read_lease(self, path: Path) -> Optional[Lease]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return Lease.from_dict(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError):
            return None  # vanished or torn mid-write; the sweep retries later

    def _try_create_lease(self, job_id: str, owner: str) -> Optional[Lease]:
        """Atomically create the lease file; None if someone else holds it."""
        lease = Lease(job_id=job_id, owner=owner, expires_s=clock.wall_s() + self.lease_ttl_s)
        path = self.lease_path(job_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(lease.to_dict(), handle)
        return lease

    def heartbeat(self, job_id: str, owner: str) -> Lease:
        """Refresh the lease's expiry (atomic rewrite); owner keeps the claim."""
        lease = Lease(job_id=job_id, owner=owner, expires_s=clock.wall_s() + self.lease_ttl_s)
        path = self.lease_path(job_id)
        payload = json.dumps(lease.to_dict())
        tmp = path.with_name(path.name + f".{uuid.uuid4().hex[:6]}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
        return lease

    def release(self, job_id: str) -> None:
        """Drop the lease file (idempotent)."""
        try:
            os.unlink(self.lease_path(job_id))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def claim(self, owner: Optional[str] = None) -> Optional[JobRecord]:
        """Claim the oldest runnable job for ``owner``; None when idle.

        A runnable job is ``queued`` and past its ``not_before`` backoff
        gate.  On success the returned record is already in state
        ``leased`` with ``attempts`` incremented, and the caller owns the
        lease until it completes, fails or stops heartbeating.
        """
        owner = owner or f"worker-{uuid.uuid4().hex[:8]}"
        now = clock.wall_s()
        for job_id in self.store.job_ids():
            try:
                record = self.store.get(job_id)
            except (JobNotFound, JobStoreError):
                continue
            if record.state != "queued" or record.not_before > now:
                continue
            if self._try_create_lease(job_id, owner) is None:
                continue
            # Re-read under the lease: the record may have moved on
            # between the scan and the claim (e.g. a reclaim requeued it
            # with new bookkeeping, or a duplicate submit completed it).
            try:
                record = self.store.get(job_id)
            except (JobNotFound, JobStoreError):
                self.release(job_id)
                continue
            if record.state != "queued" or record.not_before > now:
                self.release(job_id)
                continue
            record.state = "leased"
            record.attempts += 1
            self.store.update(record)
            return record
        return None

    # ------------------------------------------------------------------
    # Completion / failure
    # ------------------------------------------------------------------
    def complete(self, record: JobRecord, digest: str) -> JobRecord:
        """Mark a leased job done (result lives in the cache under ``digest``)."""
        record.state = "done"
        record.digest = digest
        record.error = None
        record.finished_s = clock.wall_s()
        self.store.update(record)
        self.release(record.job_id)
        return record

    def backoff_s(self, attempts: int) -> float:
        """Exponential retry delay after ``attempts`` failed attempts."""
        if attempts <= 0:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** (attempts - 1)))

    def fail_attempt(self, record: JobRecord, error: str) -> JobRecord:
        """Record a failed attempt: requeue with backoff, or quarantine.

        Below the attempt cap the job returns to ``queued`` gated by
        ``not_before``; at the cap it is retired to ``failed`` — the
        poison-job quarantine — keeping the error that killed it.
        """
        record.error = error
        if record.attempts >= record.max_attempts:
            record.state = "failed"
            record.finished_s = clock.wall_s()
        else:
            record.state = "queued"
            record.not_before = clock.wall_s() + self.backoff_s(record.attempts)
        self.store.update(record)
        self.release(record.job_id)
        return record

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------
    def reclaim_expired(self) -> List[str]:
        """Requeue every job whose lease expired; returns the job ids touched.

        The record transition happens *while the lease file still
        exists* (claims are blocked by ``O_EXCL``), then the lease is
        unlinked — so a concurrent claimant can never see the job
        half-reclaimed.  Leases pointing at terminal records (a worker
        died after completing but before releasing) are simply dropped.
        """
        reclaimed: List[str] = []
        now = clock.wall_s()
        for path in sorted(self.store.leases_dir.glob("*.json")):
            lease = self._read_lease(path)
            if lease is None or lease.expires_s > now:
                continue
            job_id = path.stem
            try:
                record = self.store.get(job_id)
            except (JobNotFound, JobStoreError):
                self.release(job_id)
                continue
            if record.state == "leased":
                if record.attempts >= record.max_attempts:
                    record.state = "failed"
                    record.error = record.error or (
                        f"lease expired after {record.attempts} attempt(s); "
                        "worker presumed dead"
                    )
                    record.finished_s = now
                else:
                    record.state = "queued"
                    record.not_before = now + self.backoff_s(record.attempts)
                self.store.update(record)
                reclaimed.append(job_id)
            self.release(job_id)
        return reclaimed
