"""Static analysis for the platform's determinism & cache-soundness contracts.

The simulator's core guarantees are *global* properties that no single
unit test can protect:

* bit-identical replays — every random draw flows through the keyed
  per-link streams of :class:`repro.sim.rng.RandomStreams`;
* write-once registries whose entries stay importable and documented.

One forgotten ``np.random.default_rng(...)`` silently breaks those
guarantees.  This package enforces them mechanically: an AST-based lint
pass (rules registered in :data:`repro.analysis.base.ANALYSIS_RULES`, one
shared tree walk per file) plus a semi-static introspection layer that
imports the registries and checks them against their own source.  (Sound
sweep caching needs no rule: the field-driven codec of
:mod:`repro.serialization` emits every config field by construction.)

Run it as ``python -m repro.analysis`` (CI gates on the exit status);
suppress an individual finding with an inline pragma::

    rng = np.random.default_rng(seed)  # repro: allow[no-unkeyed-rng] seed-scoped layout draw

The rule catalogue (ids, rationale, pragma syntax) is generated into
``docs/ANALYSIS.md`` by ``python -m repro.docs``, the one command that
writes every generated document.
"""

from __future__ import annotations

from repro.analysis.base import ANALYSIS_RULES, ProjectRule, SourceRule, register_rule
from repro.analysis.driver import analyze, analyze_source, iter_modules
from repro.analysis.findings import Finding
from repro.analysis.pragmas import PRAGMA_RULE_ID, PragmaIndex

__all__ = [
    "ANALYSIS_RULES",
    "Finding",
    "PRAGMA_RULE_ID",
    "PragmaIndex",
    "ProjectRule",
    "SourceRule",
    "analyze",
    "analyze_source",
    "iter_modules",
    "register_rule",
]
