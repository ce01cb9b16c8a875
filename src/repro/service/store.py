"""Durable, crash-safe job store shared by every worker and the HTTP app.

A :class:`JobStore` is a directory (typically on a filesystem shared by
several machines) holding one JSON file per job plus a ``leases/``
subdirectory used by :class:`repro.service.queue.WorkQueue` for
work-stealing claims.  A job waiting to run (``queued`` or ``leased``)
lives in ``jobs/``; a job that turns terminal (``done`` or ``failed``)
moves to ``done/``, so a submit's queue-depth check and a worker's claim
scan cost what the queue holds, not the store's whole history.  Results
never live here: a job's payload is a canonical
``ScenarioConfig.to_dict()`` document and its *result* is addressed by
the existing content hash
(:func:`repro.experiments.parallel.config_digest`) in the shared
:class:`~repro.experiments.parallel.ResultCache` that sits next to the
store (``<root>/cache`` by default).  A job whose digest is already
cached therefore completes instantly without simulating anything.

Layout::

    <root>/
      jobs/   <job_id>.json      one JobRecord per waiting job (atomic writes)
      done/   <job_id>.json      one JobRecord per terminal job
      leases/ <job_id>.json      live claims (see queue.py)
      cache/  ab/<digest>.json   the shared ResultCache (default location)

Job lifecycle::

    queued --claim--> leased --complete--> done
       ^                |
       |                +--fail/lease-expiry--> queued   (attempts < max)
       +--backoff-------+
                        +--fail/lease-expiry--> failed   (poison quarantine)

Every write is atomic (tmp file + ``os.replace``, exactly like
``ResultCache.store``), so a SIGKILL at any point leaves either the old
or the new record on disk, never a torn one.  State-field transitions
are the single source of truth; lease files only arbitrate *who* may
drive the next transition.  A record turning terminal is written to
``done/`` before its ``jobs/`` file is removed, and :meth:`JobStore.get`
reads ``done/`` first, so a crash between the two steps leaves a stale
waiting copy that no reader serves; the lease sweep removes it (see
queue.py).  A terminal record found in ``jobs/``, as a store written
before ``done/`` existed holds them, is moved by the claim scan that
meets it.
"""

from __future__ import annotations

import json
import os
import tempfile
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.serialization import SpecError, Wire
from repro.service import clock

#: Default store root; override with ``REPRO_SERVICE_DIR`` or ``--store``.
DEFAULT_STORE_DIR = ".repro-service"

#: Terminal and non-terminal job states (the only values ``state`` takes).
JOB_STATES = ("queued", "leased", "done", "failed")

#: Default cap on run attempts before a job is quarantined as poison.
DEFAULT_MAX_ATTEMPTS = 3


class JobStoreError(RuntimeError):
    """Raised for malformed or unreadable job records."""


class JobNotFound(KeyError):
    """Raised when a job id has no record on disk."""


@dataclass
class JobRecord(Wire):
    """One durable job: a scenario config payload plus queue bookkeeping.

    ``config`` is the canonical ``ScenarioConfig.to_dict()`` document of
    the job's one scenario.  ``digest`` is the config's content hash when
    known (always set at HTTP submit time; workers compute it otherwise).
    """

    job_id: str
    config: Optional[Dict[str, object]] = None
    digest: Optional[str] = None
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    #: Epoch seconds before which the job may not be claimed (retry backoff).
    not_before: float = 0.0
    error: Optional[str] = None
    created_s: float = 0.0
    finished_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise SpecError(
                f"unknown job state {self.state!r}; known: {list(JOB_STATES)}"
            )

    @property
    def terminal(self) -> bool:
        """Whether the job can never run again (``done`` or ``failed``)."""
        return self.state in ("done", "failed")

    @property
    def quarantined(self) -> bool:
        """Whether the job was retired as poison (failed at the attempt cap)."""
        return self.state == "failed" and self.attempts >= self.max_attempts


def new_job_id() -> str:
    """A fresh, time-sortable job id (``<epoch-ms>-<random>``).

    The millisecond prefix makes a lexicographic directory scan
    approximate FIFO claim order across submitters; the random suffix
    guarantees uniqueness within and across machines.
    """
    return f"{int(clock.wall_s() * 1000):013d}-{uuid.uuid4().hex[:10]}"


class JobStore:
    """Atomic CRUD over the on-disk job records (no claim logic here).

    Claiming, heartbeats and lease reclaim live in
    :class:`repro.service.queue.WorkQueue`; this class only guarantees
    that every record read is a record some writer wrote in full.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_SERVICE_DIR", DEFAULT_STORE_DIR)
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.done_dir = self.root / "done"
        self.leases_dir = self.root / "leases"
        self.cache_dir = self.root / "cache"
        for directory in (self.jobs_dir, self.done_dir, self.leases_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Record IO
    # ------------------------------------------------------------------
    def path_for(self, job_id: str, terminal: bool = False) -> Path:
        """Where a waiting (or, with ``terminal``, a finished) job's record lives."""
        return (self.done_dir if terminal else self.jobs_dir) / f"{job_id}.json"

    def _write_atomic(self, path: Path, payload: Dict[str, object]) -> None:
        text = json.dumps(payload, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def submit(
        self,
        config: Optional[Dict[str, object]],
        *,
        digest: Optional[str] = None,
        job_id: Optional[str] = None,
        state: str = "queued",
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> JobRecord:
        """Create and persist a new job record; returns it.

        ``state`` may be ``"done"`` for digest-already-cached submissions
        (the instant-completion path) — such jobs are born terminal and
        never enter the queue.
        """
        record = JobRecord(
            job_id=job_id or new_job_id(),
            config=config,
            digest=digest,
            state=state,
            max_attempts=max_attempts,
            created_s=clock.wall_s(),
            finished_s=clock.wall_s() if state in ("done", "failed") else None,
        )
        job_id = record.job_id
        if self.path_for(job_id).exists() or self.path_for(job_id, terminal=True).exists():
            raise JobStoreError(f"job id collision: {job_id}")
        self._write_atomic(self.path_for(job_id, record.terminal), record.to_dict())
        return record

    def get(self, job_id: str) -> JobRecord:
        """Load one record, a finished one first; :class:`JobNotFound` if absent, error if torn."""
        try:
            return self._read(self.path_for(job_id, terminal=True))
        except JobNotFound:
            return self._read(self.path_for(job_id))

    def get_waiting(self, job_id: str) -> JobRecord:
        """Load one record from ``jobs/`` only, without looking in ``done/``."""
        return self._read(self.path_for(job_id))

    def _read(self, path: Path) -> JobRecord:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise JobNotFound(path.stem) from None
        except (OSError, ValueError) as exc:
            raise JobStoreError(f"unreadable job record {path}: {exc}") from exc
        try:
            return JobRecord.from_dict(data)
        except SpecError as exc:
            raise JobStoreError(f"malformed job record {path}: {exc}") from exc

    def update(self, record: JobRecord) -> None:
        """Persist ``record`` (atomic replace); a terminal one moves to ``done/``."""
        self._write_atomic(self.path_for(record.job_id, record.terminal), record.to_dict())
        if record.terminal:
            try:
                os.unlink(self.path_for(record.job_id))
            except FileNotFoundError:
                pass

    def waiting_ids(self) -> List[str]:
        """Ids of the records in ``jobs/``, sorted (approximate FIFO order)."""
        return sorted(path.stem for path in self.jobs_dir.glob("*.json"))

    def job_ids(self) -> List[str]:
        """Every job id, waiting or finished, lexicographically sorted."""
        finished = (path.stem for path in self.done_dir.glob("*.json"))
        return sorted(set(self.waiting_ids()).union(finished))

    def records(self) -> Iterator[JobRecord]:
        """Iterate every readable record in id order (skips torn/foreign files)."""
        for job_id in self.job_ids():
            try:
                yield self.get(job_id)
            except (JobNotFound, JobStoreError):
                continue

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Number of jobs per state plus the live lease count."""
        counts = {state: 0 for state in JOB_STATES}
        quarantined = 0
        for record in self.records():
            counts[record.state] += 1
            if record.quarantined:
                quarantined += 1
        counts["quarantined"] = quarantined
        counts["leases"] = sum(1 for _ in self.leases_dir.glob("*.json"))
        return counts

    def queue_depth(self) -> int:
        """Jobs waiting to run (``queued`` + ``leased``): the files in ``jobs/``, unparsed."""
        return len(self.waiting_ids())
