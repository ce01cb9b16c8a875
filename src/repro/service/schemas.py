"""Wire format of the HTTP API: strict request parsing, response shaping.

Requests ride the same strict codec as every serialized object in the
repository (:mod:`repro.serialization`): an unknown, missing or mistyped
field raises :class:`~repro.serialization.SpecError` naming the field and
the class, which the app turns into a structured 400 instead of a stack
trace.  The scenario payload itself is a
:class:`repro.spec.ScenarioConfig` document — the service adds *no*
second scenario format; whatever runs from ``--spec file.json`` runs over
HTTP unchanged.

A :class:`SubmitRequest` holds one scenario and creates one job:

``spec``
    One scenario document (required).
``max_attempts``
    Optional retry cap for the job (poison quarantine threshold).

Any other key is a structured 400 — a ``seeds`` or ``sweep`` grid
included: a grid is expanded by
:func:`~repro.experiments.grids.scenario_grid` and submitted one scenario
per ``POST /jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.serialization import SpecError, Wire
from repro.service.store import DEFAULT_MAX_ATTEMPTS, JobRecord


@dataclass
class SubmitRequest(Wire):
    """Parsed ``POST /jobs`` body: one scenario document."""

    spec: Dict[str, object]
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SpecError(
                f"SubmitRequest.max_attempts must be >= 1, got {self.max_attempts}"
            )


def job_payload(record: JobRecord) -> Dict[str, object]:
    """The ``GET /jobs/{id}`` response body for one record.

    A done job also links its result.
    """
    payload: Dict[str, object] = {
        "job_id": record.job_id,
        "state": record.state,
        "digest": record.digest,
        "attempts": record.attempts,
        "max_attempts": record.max_attempts,
        "error": record.error,
        "created_s": record.created_s,
        "finished_s": record.finished_s,
        "quarantined": record.quarantined,
    }
    if record.state == "done" and record.digest:
        payload["result"] = f"/results/{record.digest}"
    return payload


def error_payload(kind: str, message: str) -> Dict[str, object]:
    """The structured error body every non-2xx response carries."""
    return {"error": {"type": kind, "message": message}}
