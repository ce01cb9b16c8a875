"""Scenario corpus: enumerate the registry cross-product, gate invariants.

The composable scenario API means the platform's real surface is the
cross-product of its registries (topology x MAC x routing x traffic x
transport x propagation x mobility) — tens of thousands of valid
scenarios, of which hand-written tests exercise a handful.  This package
turns that surface into a first-class test subject:

* :mod:`repro.corpus.space` — enumerate the valid spec space straight
  off the live registries, filtered by a declarative constraint table,
  with fully seeded sampling;
* :mod:`repro.corpus.checks` — the registered invariant checks every
  sampled spec must pass (digest stability, determinism,
  parallel==serial, cache round-trip);
* :mod:`repro.corpus.shrink` — delta-debug any failure to a minimal
  failing spec naming the offending component(s);
* :mod:`repro.corpus.golden` — pinned sweep-cache digests tripwiring
  accidental schema drift;
* :mod:`repro.corpus.docs` — the ``docs/CORPUS.md`` catalogue, written by
  ``python -m repro.docs``.

CLI: ``python -m repro.corpus --sample 64 --seed 0`` (exit 1 on
findings); the same sampled specs run as the cached ``corpus``
experiment family (``python -m repro.experiments report corpus``).
"""

from repro.corpus.checks import CORPUS_CHECKS, CheckContext, CorpusFinding, evaluate
from repro.corpus.shrink import baseline_document, offending_components, shrink_document
from repro.corpus.space import CONSTRAINTS, LAYERS, SpecSpace, default_space

__all__ = [
    "CORPUS_CHECKS",
    "CONSTRAINTS",
    "CheckContext",
    "CorpusFinding",
    "LAYERS",
    "SpecSpace",
    "baseline_document",
    "default_space",
    "evaluate",
    "offending_components",
    "shrink_document",
]
