"""The HTTP face of the simulation service (stdlib ``http.server`` only).

Endpoints::

    POST /jobs              submit one scenario document as one job
    GET  /jobs/{id}         job status
    GET  /results/{digest}  cached ScenarioResult payload (canonical JSON)
    GET  /healthz           liveness + store reachability
    GET  /metrics           queue depth, lease count, cache hit/miss, jobs/s

Submissions are validated with the repository's strict ``from_dict``
layer: a malformed body is a structured ``400`` naming the offending
field, never a traceback.  A queue already holding ``max_queue`` waiting
jobs answers ``429`` (backpressure) without enqueueing anything.  A
scenario whose :func:`~repro.experiments.parallel.config_digest` is
already in the shared cache is born ``done`` — the submit itself is the
cache hit.

The request-handling core (:class:`SimulationService`) is plain
functions from parsed input to ``(status, payload)`` pairs, so tests
drive it without sockets.  The thin ``ThreadingHTTPServer`` wrapper the
CLI serves lives in :mod:`repro.service.server`, so a process that only
handles requests in-process never loads ``http.server``.
"""

from __future__ import annotations

import json
import string
from typing import Dict, Tuple

from repro.serialization import SpecError
from repro.service import clock
from repro.service.schemas import SubmitRequest, error_payload, job_payload
from repro.service.store import JobNotFound, JobStore, JobStoreError
from repro.spec import ScenarioConfig

#: Default cap on waiting (queued + leased) jobs before submits get 429.
DEFAULT_MAX_QUEUE = 256

#: Default bind address of ``python -m repro.service serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

_HEX = set(string.hexdigits.lower())

Response = Tuple[int, Dict[str, object]]


class SimulationService:
    """Framework-free request handlers: parsed input -> (status, payload)."""

    def __init__(
        self,
        store: JobStore,
        cache,
        *,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        self.store = store
        self.cache = cache
        self.max_queue = int(max_queue)
        self.started_monotonic_s = clock.monotonic_s()
        self.jobs_submitted = 0
        self.requests_rejected = 0

    # ------------------------------------------------------------------
    # POST /jobs
    # ------------------------------------------------------------------
    def submit(self, body: bytes) -> Response:
        from repro.experiments.parallel import config_digest

        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, error_payload("ParseError", f"request body is not valid JSON: {exc}")
        try:
            request = SubmitRequest.from_dict(document)
            config = ScenarioConfig.from_dict(request.spec)
            digest = config_digest(config)
        except SpecError as exc:
            return 400, error_payload("SpecError", str(exc))
        except (ValueError, KeyError, TypeError, OSError) as exc:
            # Registry lookups, component parameter validation, trace-file
            # topology loads — all reachable from user-supplied documents.
            return 400, error_payload(type(exc).__name__, str(exc))

        cached = self.cache.load_raw(digest) is not None
        if not cached:
            depth = self.store.queue_depth()
            if depth >= self.max_queue:
                self.requests_rejected += 1
                return 429, error_payload(
                    "Backpressure",
                    f"queue holds {depth} job(s), the limit is {self.max_queue} — retry later",
                )
        record = self.store.submit(
            config.to_dict(),
            digest=digest,
            state="done" if cached else "queued",
            max_attempts=request.max_attempts,
        )
        self.jobs_submitted += 1
        return 202, job_payload(record)

    # ------------------------------------------------------------------
    # GET /jobs/{id}, /results/{digest}
    # ------------------------------------------------------------------
    def job_status(self, job_id: str) -> Response:
        try:
            record = self.store.get(job_id)
        except JobNotFound:
            return 404, error_payload("NotFound", f"no job {job_id!r}")
        except JobStoreError as exc:
            return 500, error_payload("StoreError", str(exc))
        return 200, job_payload(record)

    def result(self, digest: str) -> Response:
        if not digest or any(ch not in _HEX for ch in digest.lower()):
            return 400, error_payload("BadDigest", f"{digest!r} is not a hex digest")
        data = self.cache.load_raw(digest)
        if data is None:
            return 404, error_payload(
                "NotFound",
                f"no cached result for digest {digest}; submit its config first",
            )
        return 200, data

    # ------------------------------------------------------------------
    # GET /healthz, /metrics
    # ------------------------------------------------------------------
    def healthz(self) -> Response:
        try:
            depth = self.store.queue_depth()
        except OSError as exc:
            return 500, error_payload("StoreError", f"job store unreachable: {exc}")
        return 200, {"status": "ok", "store": str(self.store.root), "queue_depth": depth}

    def metrics(self) -> Response:
        counts = self.store.counts()
        uptime = max(clock.monotonic_s() - self.started_monotonic_s, 1e-9)
        return 200, {
            "queue_depth": self.store.queue_depth(),
            "jobs": {state: counts[state] for state in ("queued", "leased", "done", "failed")},
            "quarantined": counts["quarantined"],
            "leases": counts["leases"],
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "quarantined": self.cache.quarantined,
            },
            "submitted": self.jobs_submitted,
            "rejected": self.requests_rejected,
            "uptime_s": uptime,
            "jobs_per_s": counts["done"] / uptime,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, method: str, path: str, body: bytes = b"") -> Response:
        """Dispatch one request; the transport-agnostic entry point."""
        parts = [part for part in path.split("/") if part]
        if method == "POST" and parts == ["jobs"]:
            return self.submit(body)
        if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            return self.job_status(parts[1])
        if method == "GET" and len(parts) == 2 and parts[0] == "results":
            return self.result(parts[1])
        if method == "GET" and parts == ["healthz"]:
            return self.healthz()
        if method == "GET" and parts == ["metrics"]:
            return self.metrics()
        return 404, error_payload("NotFound", f"no route {method} {path}")
