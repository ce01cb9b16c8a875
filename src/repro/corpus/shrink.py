"""Delta-debugging minimizer for failing scenario specs.

When a corpus check fails on a sampled spec, the raw document names
seven composed layers — most of them innocent.  The shrinker walks the
failing document toward the registry-default baseline one field at a
time, keeping a replacement only while the *same* check still fails, and
reports the minimal failing spec plus the non-default components left in
it.  ``mac=afr`` in a three-line JSON document is actionable;
"sample 37 of 64 failed" is not.

The oracle (``still_fails``) is supplied by the caller
(:func:`repro.corpus.checks.evaluate` closes it over the failing check),
so the shrinker itself knows nothing about simulators — it is plain
greedy delta debugging over dict fields:

1. per top-level field, try the baseline value (or, for a field the
   baseline leaves at its default, try dropping it);
2. per surviving component entry, try emptying its ``params`` dict.

Each pass repeats until a full sweep makes no progress, which is a
fixpoint: every remaining non-default field is individually necessary to
reproduce the failure.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


def baseline_document(like: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """The all-defaults scenario document shrinking steers toward.

    ``line`` topology, every other field left at its default.  Run
    framing (duration/warmup/seed) is copied from ``like`` so shrinking
    never changes how long the scenario runs — only what it composes.
    """
    from repro.spec import TopologyRef

    document: Dict[str, object] = {"topology": TopologyRef("line").to_dict()}
    if like is not None:
        for key in ("duration_s", "warmup_s", "seed"):
            if key in like:
                document[key] = like[key]
    return document


def shrink_document(
    document: Dict[str, object],
    still_fails: Callable[[Dict[str, object]], bool],
    baseline: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Greedily minimize ``document`` while ``still_fails`` stays true.

    Returns the minimal failing document (possibly ``document`` itself
    when nothing can be simplified).  The input is never mutated.
    """
    if baseline is None:
        baseline = baseline_document(like=document)
    current = dict(document)
    progress = True
    while progress:
        progress = False
        for key in sorted(current):
            if key in baseline and current[key] == baseline[key]:
                continue
            candidate = dict(current)
            if key in baseline:
                candidate[key] = baseline[key]
            else:
                del candidate[key]
            if still_fails(candidate):
                current = candidate
                progress = True
        for key in sorted(current):
            candidate_value = _without_params(current[key])
            if candidate_value is None:
                continue
            candidate = dict(current)
            candidate[key] = candidate_value
            if still_fails(candidate):
                current = candidate
                progress = True
    return current


def _without_params(value: object) -> Optional[object]:
    """The same component entry with its params cleared, or None if n/a."""
    if not isinstance(value, dict):
        return None
    if value.get("params"):
        cleared = dict(value)
        cleared["params"] = {}
        return cleared
    return None


def offending_components(
    minimal: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Human labels for the non-default fields of a shrunk document.

    E.g. ``["mac=afr"]`` — the components the failure is pinned on after
    everything else shrank away.
    """
    labels: List[str] = []
    for key in sorted(set(minimal) | set(baseline)):
        value = minimal.get(key)
        if value == baseline.get(key):
            continue
        labels.append(f"{key}={_component_label(key, value)}")
    return labels


def _component_label(key: str, value: object) -> str:
    if isinstance(value, dict):
        for name_key in ("name", "model", "propagation"):
            if name_key in value:
                label = str(value[name_key])
                params = value.get("params")
                if params:
                    inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
                    label = f"{label}({inner})"
                return label
        return repr(value)
    return str(value)
