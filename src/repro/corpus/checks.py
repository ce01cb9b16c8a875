"""The corpus invariant checks: what every composable scenario must obey.

Each check is a registered, individually-selectable entry of
:data:`CORPUS_CHECKS` (a plain :class:`repro.registry.Registry`, the
same machinery behind every component registry).  A check takes
a :class:`CheckContext` for one sampled spec document and returns None
when the invariant holds, or a failure message.

The invariants are the platform's load-bearing contracts, checked *per
scenario* rather than per hand-picked test case:

* ``digest-stability`` — the same document always hashes to the same
  sweep-cache digest, including across a serialization round-trip and a
  topology rebuild (builder determinism);
* ``determinism`` — two runs of the same seeded scenario produce
  byte-identical result JSON;
* ``parallel-serial`` — a multiprocessing sweep of the scenario equals
  the serial run (the SweepRunner contract);
* ``cache-roundtrip`` — a result stored in a fresh
  :class:`~repro.experiments.parallel.ResultCache` loads back
  byte-identical, by config and by raw digest.

The simulation entry points are injectable on :class:`CheckContext`
(``run`` / ``run_parallel``), which is how the test-suite proves the
catch-and-shrink pipeline end to end against a deliberately broken
component without touching the global write-once registries.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.registry import Registry

#: The registry of corpus invariant checks (``--check <id>`` on the CLI).
CORPUS_CHECKS = Registry("corpus check")


def _default_run(config) -> Dict[str, object]:
    from repro.experiments.runner import run_scenario

    return run_scenario(config).to_dict()


def _default_run_parallel(configs) -> List[Dict[str, object]]:
    from repro.experiments.parallel import SweepRunner

    results = SweepRunner(jobs=2).run(list(configs))
    return [result.to_dict() for result in results]


def _dumps(payload) -> str:
    """The canonical byte form results are compared in (sorted-key JSON)."""
    return json.dumps(payload, sort_keys=True)


class CheckContext:
    """Everything one spec document's checks share: builds, runs, memos.

    The first serial run is memoized so the run-based invariants
    (determinism, parallel==serial, cache round-trip) cost one extra run
    each instead of two — at 64 sampled specs that halves the CLI's
    wall-clock.  ``run``/``run_parallel`` default to the real simulator
    and are injectable for the shrinker tests.
    """

    def __init__(
        self,
        document: Dict[str, object],
        run: Optional[Callable] = None,
        run_parallel: Optional[Callable] = None,
    ) -> None:
        self.document = dict(document)
        self.run = run or _default_run
        self.run_parallel = run_parallel or _default_run_parallel
        self._config = None
        self._serial: Optional[Dict[str, object]] = None

    def fresh_config(self):
        """A *fresh* ScenarioConfig decoded from the document (topology rebuilt)."""
        from repro.spec import ScenarioConfig

        return ScenarioConfig.from_dict(self.document)

    def config(self):
        """The resolved ScenarioConfig (topology built once, then reused)."""
        if self._config is None:
            self._config = self.fresh_config()
        return self._config

    def serial_result(self) -> Dict[str, object]:
        """The memoized first serial run of the scenario."""
        if self._serial is None:
            self._serial = self.run(self.config())
        return self._serial


@dataclass
class CorpusFinding:
    """One failed invariant: the spec, the message, and its shrunk core."""

    check: str
    message: str
    document: Dict[str, object]
    #: Minimal failing document from the shrinker (None when not shrunk).
    shrunk: Optional[Dict[str, object]] = None
    #: The non-default pieces of the shrunk document, e.g. ``["mac=afr"]``
    #: — the component(s) the failure is pinned on.
    components: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "message": self.message,
            "document": self.document,
            "shrunk": self.shrunk,
            "components": list(self.components),
        }

    def render(self) -> str:
        lines = [f"[{self.check}] {self.message}"]
        if self.components:
            lines.append(f"  components: {', '.join(self.components)}")
        if self.shrunk is not None:
            lines.append(f"  minimal failing spec: {json.dumps(self.shrunk, sort_keys=True)}")
        return "\n".join(lines)


class InvariantCheck:
    """Base class: one registered invariant over a :class:`CheckContext`."""

    id = "invariant"
    title = "corpus invariant"

    def run_check(self, ctx: CheckContext) -> Optional[str]:
        raise NotImplementedError

    def __call__(self, ctx: CheckContext) -> Optional[str]:
        return self.run_check(ctx)


def register_check(cls):
    """Class decorator: instantiate and register a check under its id."""
    CORPUS_CHECKS.add(cls.id, cls())
    return cls


@register_check
class DigestStability(InvariantCheck):
    """The same document always produces the same sweep-cache digest.

    Hashes the resolved config three ways — as built, rebuilt from the
    document (folding topology-builder determinism in), and after a
    config round-trip.  Any disagreement means a cache keyed by one form
    misses (or worse, collides) under another.
    """

    id = "digest-stability"
    title = "config digest is stable across rebuilds and round-trips"

    def run_check(self, ctx: CheckContext) -> Optional[str]:
        from repro.experiments.parallel import config_digest
        from repro.experiments.runner import ScenarioConfig

        first = config_digest(ctx.config())
        rebuilt = config_digest(ctx.fresh_config())
        if rebuilt != first:
            return f"digest changed on topology rebuild: {first} != {rebuilt}"
        roundtripped = config_digest(ScenarioConfig.from_dict(ctx.config().to_dict()))
        if roundtripped != first:
            return f"digest changed across config round-trip: {first} != {roundtripped}"
        return None


@register_check
class Determinism(InvariantCheck):
    """Same seed, same scenario => byte-identical result JSON.

    The whole platform (cache, parallel sweeps, the service) assumes a
    scenario is a pure function of its config; a scenario that draws
    outside the keyed RNG streams or depends on ambient state fails
    here.
    """

    id = "determinism"
    title = "two runs of the same seeded scenario are byte-identical"

    def run_check(self, ctx: CheckContext) -> Optional[str]:
        first = _dumps(ctx.serial_result())
        second = _dumps(ctx.run(ctx.fresh_config()))
        if first != second:
            return "re-running the same seeded scenario changed the result JSON"
        return None


@register_check
class ParallelSerial(InvariantCheck):
    """A multiprocessing sweep equals the serial run, bit for bit.

    Runs the scenario twice through a two-worker
    :class:`~repro.experiments.parallel.SweepRunner` and compares both
    results against the serial memo — the contract that makes ``--jobs``
    and the distributed service pure accelerators.
    """

    id = "parallel-serial"
    title = "parallel sweep results equal the serial run"

    def run_check(self, ctx: CheckContext) -> Optional[str]:
        serial = _dumps(ctx.serial_result())
        for position, payload in enumerate(ctx.run_parallel([ctx.config(), ctx.config()])):
            if _dumps(payload) != serial:
                return f"parallel run {position} differs from the serial result"
        return None


@register_check
class CacheRoundTrip(InvariantCheck):
    """A stored result loads back byte-identical, by config and by digest.

    Stores the serial result in a throwaway
    :class:`~repro.experiments.parallel.ResultCache` and reads it back
    through both ``load(config)`` and ``load_raw(digest)`` — the two
    paths the sweep runner and the HTTP service actually use.
    """

    id = "cache-roundtrip"
    title = "result cache store/load is the identity"

    def run_check(self, ctx: CheckContext) -> Optional[str]:
        from repro.experiments.parallel import ResultCache, config_digest
        from repro.experiments.runner import ScenarioResult

        serial = ctx.serial_result()
        root = tempfile.mkdtemp(prefix="repro-corpus-cache-")
        try:
            cache = ResultCache(root)
            cache.store(ctx.config(), ScenarioResult.from_dict(serial))
            loaded = cache.load(ctx.config())
            if loaded is None:
                return "cache miss immediately after store"
            if _dumps(loaded.to_dict()) != _dumps(serial):
                return "cache load(config) returned a different result payload"
            raw = cache.load_raw(config_digest(ctx.config()))
            if raw is None or _dumps(raw) != _dumps(serial):
                return "cache load_raw(digest) returned a different result payload"
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return None


def known_check_ids() -> List[str]:
    """Registered check ids in registration (cheapest-first) order."""
    return list(CORPUS_CHECKS.names())


def evaluate(
    documents: Sequence[Dict[str, object]],
    check_ids: Optional[Sequence[str]] = None,
    make_context: Callable[[Dict[str, object]], CheckContext] = CheckContext,
    shrink_failures: bool = True,
) -> List[CorpusFinding]:
    """Run the selected checks over every document; shrink what fails.

    A check that raises is a failure like any other (the exception text
    becomes the message): a spec the registries admitted must at least
    build and run.  Each failing (document, check) pair is minimized with
    :func:`repro.corpus.shrink.shrink_document` re-running *that* check,
    and the finding reports the offending non-default components.
    """
    from repro.corpus import shrink as shrink_mod

    checks = [CORPUS_CHECKS.lookup(check_id) for check_id in (check_ids or known_check_ids())]
    findings: List[CorpusFinding] = []
    for document in documents:
        ctx = make_context(document)
        for check in checks:
            message = run_check_on(check, ctx)
            if message is None:
                continue
            finding = CorpusFinding(check.id, message, dict(document))
            if shrink_failures:
                finding.shrunk = shrink_mod.shrink_document(
                    document,
                    lambda candidate: still_fails(check, candidate, make_context),
                )
                finding.components = shrink_mod.offending_components(
                    finding.shrunk, shrink_mod.baseline_document(like=document)
                )
            findings.append(finding)
    return findings


def run_check_on(check: InvariantCheck, ctx: CheckContext) -> Optional[str]:
    """One check on one context; an exception is a failure message."""
    try:
        return check(ctx)
    except Exception as exc:  # noqa: BLE001 - any crash on an admitted spec is a finding
        return f"{type(exc).__name__}: {exc}"


def still_fails(
    check: InvariantCheck,
    document: Dict[str, object],
    make_context: Callable[[Dict[str, object]], CheckContext],
) -> bool:
    """Whether ``document`` still fails ``check`` (the shrinker's oracle).

    A candidate that does not even parse as a scenario document is *not*
    a reproduction of the failure — the shrinker must stay inside the
    valid space while minimizing.
    """
    from repro.serialization import SpecError
    from repro.spec import ScenarioConfig

    try:
        ScenarioConfig.from_dict(document)
    except (SpecError, ValueError, KeyError, TypeError):
        return False
    return run_check_on(check, make_context(document)) is not None
