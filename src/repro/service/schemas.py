"""Wire format of the HTTP API: strict request parsing, response shaping.

Requests ride the same strict codec as every serialized object in the
repository (:mod:`repro.serialization`): an unknown, missing or mistyped
field raises :class:`~repro.serialization.SpecError` naming the field and
the class, which the app turns into a structured 400 instead of a stack
trace.  The scenario payload itself is a
:class:`repro.spec.ScenarioConfig` document — the service adds *no*
second scenario format; whatever runs from ``--spec file.json`` runs over
HTTP unchanged.

A :class:`SubmitRequest` is either a single scenario or a small grid:

``spec``
    One scenario document (required).
``seeds``
    Optional — an integer N (meaning seeds ``1..N``) or an explicit
    list; each seed becomes one child job.
``sweep``
    Optional — ``{field: [values, ...]}`` over top-level scenario
    document fields (``scheme_label`` included); the Cartesian product
    of all sweep axes (times ``seeds``) fans out into child jobs under
    one group job.
``max_attempts``
    Optional retry cap per child job (poison quarantine threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional

from repro.serialization import SpecError, Wire, from_dict
from repro.service.store import DEFAULT_MAX_ATTEMPTS, JobRecord, JobStore
from repro.spec import SCENARIO_FIELDS, ScenarioConfig

#: Hard ceiling on fan-out from one submit call, independent of queue
#: backpressure: a single request may not enqueue more than this many jobs.
MAX_FANOUT = 1024


@dataclass
class SubmitRequest(Wire):
    """Parsed ``POST /jobs`` body: one spec document plus fan-out axes."""

    spec: Dict[str, object]
    seeds: Optional[List[int]] = None
    sweep: Dict[str, List[object]] = field(default_factory=dict)
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    @classmethod
    def from_dict(cls, data: object) -> "SubmitRequest":
        """Decode a request body; an integer ``seeds`` N means seeds ``1..N``."""
        seeds = data.get("seeds") if isinstance(data, dict) else None
        if type(seeds) is int:
            if seeds < 1:
                raise SpecError(f"SubmitRequest.seeds must be >= 1, got {seeds}")
            data = {**data, "seeds": list(range(1, seeds + 1))}
        request = from_dict(cls, data)
        if request.seeds == []:
            raise SpecError("SubmitRequest.seeds must be an int or a non-empty list of ints")
        for key, values in request.sweep.items():
            if key not in SCENARIO_FIELDS:
                raise SpecError(
                    f"SubmitRequest.sweep field {key!r} is not a ScenarioConfig field; "
                    f"accepted: {sorted(SCENARIO_FIELDS)}"
                )
            if key == "seed":
                raise SpecError("sweep seeds with the 'seeds' field, not sweep['seed']")
            if not values:
                raise SpecError(f"SubmitRequest.sweep[{key!r}] must be a non-empty list")
        if request.max_attempts < 1:
            raise SpecError(
                f"SubmitRequest.max_attempts must be >= 1, got {request.max_attempts}"
            )
        return request

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------
    def expand(self) -> List[ScenarioConfig]:
        """The validated ScenarioConfig per child job, in deterministic order.

        Sweep axes are enumerated key-sorted, last axis fastest (the same
        convention as :func:`repro.experiments.parallel.expand_grid`),
        with seeds as the innermost axis.
        """
        axes = [(key, self.sweep[key]) for key in sorted(self.sweep)]
        if self.seeds is not None:
            axes.append(("seed", list(self.seeds)))
        if not axes:
            return [ScenarioConfig.from_dict(dict(self.spec))]
        names = [name for name, _ in axes]
        combos = list(product(*(values for _, values in axes)))
        if len(combos) > MAX_FANOUT:
            raise SpecError(
                f"request fans out into {len(combos)} jobs; the per-request "
                f"ceiling is {MAX_FANOUT}"
            )
        configs: List[ScenarioConfig] = []
        for combo in combos:
            document = dict(self.spec)
            document.update(zip(names, combo))
            configs.append(ScenarioConfig.from_dict(document))
        return configs


def job_payload(store: JobStore, record: JobRecord) -> Dict[str, object]:
    """The ``GET /jobs/{id}`` response body for one record.

    Scenario jobs expose their digest and (when done) the result path;
    group jobs expose per-state child progress instead.
    """
    payload: Dict[str, object] = {
        "job_id": record.job_id,
        "kind": record.kind,
        "state": record.state,
        "digest": record.digest,
        "attempts": record.attempts,
        "max_attempts": record.max_attempts,
        "error": record.error,
        "created_s": record.created_s,
        "finished_s": record.finished_s,
        "quarantined": record.quarantined,
    }
    if record.kind == "group":
        progress = store.group_progress(record)
        payload["children"] = list(record.children)
        payload["progress"] = progress
        if progress["total"] and progress["done"] == progress["total"]:
            payload["state"] = "done"
        elif progress["failed"]:
            payload["state"] = "failed" if (
                progress["done"] + progress["failed"] == progress["total"]
            ) else "queued"
    elif record.state == "done" and record.digest:
        payload["result"] = f"/results/{record.digest}"
    return payload


def error_payload(kind: str, message: str) -> Dict[str, object]:
    """The structured error body every non-2xx response carries."""
    return {"error": {"type": kind, "message": message}}
