"""Tiny stdlib HTTP client for the simulation service.

Used by the test suite, the ``submit``/``status`` CLI subcommands and
the CI smoke job; also the reference for anyone talking to the service
from outside Python (see ``docs/SERVICE.md`` for the curl equivalent of
every call).  Only ``urllib.request`` — no third-party dependency.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from repro.service import clock


class ServiceError(RuntimeError):
    """An HTTP-level failure, carrying the structured error payload."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        error = payload.get("error") if isinstance(payload, dict) else None
        message = error.get("message") if isinstance(error, dict) else str(payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class JobFailed(ServiceError):
    """Raised by :meth:`ServiceClient.wait` when the job ends ``failed``."""

    def __init__(self, job: Dict[str, object]) -> None:
        RuntimeError.__init__(
            self, f"job {job.get('job_id')} failed: {job.get('error')}"
        )
        self.status = 0
        self.payload = job


class ServiceClient:
    """Blocking JSON client bound to one service base URL."""

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> Dict[str, object]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = {"error": {"type": "HTTPError", "message": str(exc)}}
            raise ServiceError(exc.code, payload) from None

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: Dict[str, object],
        *,
        seeds: Optional[object] = None,
        sweep: Optional[Dict[str, List[object]]] = None,
        max_attempts: Optional[int] = None,
    ) -> Dict[str, object]:
        """``POST /jobs``: one scenario document, optionally fanned out."""
        body: Dict[str, object] = {"spec": spec}
        if seeds is not None:
            body["seeds"] = seeds
        if sweep:
            body["sweep"] = sweep
        if max_attempts is not None:
            body["max_attempts"] = max_attempts
        return self._request("POST", "/jobs", body)

    def job(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/{id}``: current status/progress of one job."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, digest: str) -> Dict[str, object]:
        """``GET /results/{digest}``: the cached ScenarioResult payload."""
        return self._request("GET", f"/results/{digest}")

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        *,
        timeout_s: float = 120.0,
        poll_s: float = 0.2,
    ) -> Dict[str, object]:
        """Poll ``GET /jobs/{id}`` until the job is terminal.

        Returns the final job payload on ``done``; raises
        :class:`JobFailed` on ``failed`` and :class:`TimeoutError` when
        ``timeout_s`` elapses first.
        """
        deadline = clock.monotonic_s() + timeout_s
        while True:
            job = self.job(job_id)
            if job.get("state") == "done":
                return job
            if job.get("state") == "failed":
                raise JobFailed(job)
            if clock.monotonic_s() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job.get('state')!r} after {timeout_s:g}s"
                )
            clock.sleep_s(poll_s)
