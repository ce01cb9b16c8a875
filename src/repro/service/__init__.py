"""Simulation-as-a-service: a durable job queue and HTTP API over the cache.

The sweep subsystem (PR 1) made every experiment a pure function of its
:class:`~repro.experiments.runner.ScenarioConfig`, content-addressed in
an on-disk :class:`~repro.experiments.parallel.ResultCache`; the spec
layer (PR 4) gave those configs a validated JSON wire format.  This
package is the consequence: point any number of workers — processes or
machines sharing a filesystem — at one store directory, put a small HTTP
server in front, and any client can submit a scenario document
and fetch back a bit-reproducible, cached result.

Layers (see ``docs/SERVICE.md`` for the full architecture):

* :mod:`repro.service.store` — durable, crash-safe job records
  (``queued -> leased -> done|failed``), atomic-rename writes, results
  addressed by ``config_digest`` in the shared cache.
* :mod:`repro.service.queue` — work-stealing claims via ``O_EXCL``
  lease files, heartbeats, lease-expiry reclaim, bounded retries with
  exponential backoff, poison-job quarantine.
* :mod:`repro.service.worker` — the claim-run-complete loop; executes
  jobs through ``SweepRunner`` + the shared cache, so cached digests
  complete instantly and fresh runs are bit-identical to local ones.
* :mod:`repro.service.app` / :mod:`repro.service.schemas` — the
  socket-free request handlers, with strict request validation,
  structured 400s and queue-depth backpressure (429).
* :mod:`repro.service.server` — the stdlib ``http.server`` front the
  ``serve`` command binds.
* :mod:`repro.service.client` — the tiny ``urllib`` client the tests,
  CLI and CI smoke job share.
* :mod:`repro.service.executor` — ``JobStoreExecutor``, the
  ``SweepRunner`` backend that turns any existing sweep into a
  distributed one.
* :mod:`repro.service.clock` — the one module allowed to read the host
  clock (leases and timeouts are operational time; simulation time
  never is).

The package re-exports only the store, queue and worker.  The client,
the executor and the server are imported from their modules, so a
process that never talks HTTP loads neither ``urllib`` nor
``http.server``.

Run it::

    python -m repro.service serve  --store DIR --port 8642 --workers 4
    python -m repro.service worker --store DIR            # more drain, anywhere
    python -m repro.service submit --url http://HOST:8642 spec.json --wait
    python -m repro.service status --url http://HOST:8642 JOB_ID
"""

from repro.service.queue import WorkQueue
from repro.service.store import JobNotFound, JobRecord, JobStore, JobStoreError
from repro.service.worker import Worker

__all__ = [
    "JobNotFound",
    "JobRecord",
    "JobStore",
    "JobStoreError",
    "WorkQueue",
    "Worker",
]
