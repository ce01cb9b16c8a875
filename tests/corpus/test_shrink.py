"""Shrinking: a failure on a rich spec is pinned to its offending component.

This is the acceptance scenario of the corpus gate end to end: a
deliberately broken component (a runner that misbehaves only when the
resolved MAC is ``afr``) is caught by the determinism check on a
many-layer sampled spec, and the delta-debugging minimizer walks the
spec down to the baseline-plus-``mac=afr`` document — naming the broken
component without touching the global registries.
"""

import functools
import itertools

from repro.corpus.checks import CheckContext, evaluate
from repro.corpus.shrink import (
    baseline_document,
    offending_components,
    shrink_document,
)

_afr_runs = itertools.count(1)


def _broken_for_afr(config):
    """A runner that is deterministic everywhere except under mac=afr.

    Every afr run reports a different event count, so two runs of the same
    afr config never agree.
    """
    from repro.experiments.runner import run_scenario

    payload = run_scenario(config).to_dict()
    if config.mac.name == "afr":
        payload["events_processed"] = payload["events_processed"] + next(_afr_runs)
    return payload


def _rich_failing_document():
    document = baseline_document()
    document["duration_s"] = 0.01
    document["mac"] = {"name": "afr", "params": {}}
    document["routing"] = {"name": "shortest_path", "params": {}}
    document["traffic"] = {"name": "voip", "params": {}}
    document["transport"] = {"name": "cubic", "params": {}}
    return document


class TestEndToEnd:
    def test_broken_component_is_caught_and_shrunk(self):
        make_context = functools.partial(CheckContext, run=_broken_for_afr)
        findings = evaluate(
            [_rich_failing_document()],
            check_ids=["determinism"],
            make_context=make_context,
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.check == "determinism"
        # Shrunk to exactly baseline + the broken component.
        expected = baseline_document(like=finding.document)
        expected["mac"] = {"name": "afr", "params": {}}
        assert finding.shrunk == expected
        assert finding.components == ["mac=afr"]

    def test_clean_components_produce_no_findings(self):
        make_context = functools.partial(CheckContext, run=_broken_for_afr)
        document = _rich_failing_document()
        document["mac"] = {"name": "dcf", "params": {}}
        assert evaluate([document], ["determinism"], make_context=make_context) == []


class TestShrinkMechanics:
    def test_shrink_reaches_the_baseline_when_anything_fails(self):
        document = _rich_failing_document()
        baseline = baseline_document(like=document)
        assert shrink_document(document, lambda candidate: True) == baseline

    def test_shrink_keeps_the_document_when_nothing_else_fails(self):
        document = _rich_failing_document()
        minimal = shrink_document(document, lambda candidate: candidate == document)
        assert minimal == document

    def test_shrink_clears_unneeded_params(self):
        document = baseline_document()
        document["mac"] = {"name": "ripple", "params": {"max_aggregation": 4}}

        def fails(candidate):
            mac = candidate.get("mac")
            return bool(mac) and mac.get("name") == "ripple"

        minimal = shrink_document(document, fails)
        assert minimal["mac"] == {"name": "ripple", "params": {}}

    def test_offending_components_label_the_delta(self):
        baseline = baseline_document()
        minimal = dict(baseline)
        minimal["mac"] = {"name": "rate_adapt", "params": {"inner": "dcf"}}
        minimal["seed"] = 9
        assert offending_components(minimal, baseline) == [
            "mac=rate_adapt(inner=dcf)",
            "seed=9",
        ]
