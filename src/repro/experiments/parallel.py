"""Sweep execution with content-hashed result caching.

Every figure and table of the paper is an embarrassingly parallel sweep:
the same :func:`~repro.experiments.runner.run_scenario` evaluated over a
grid of scheme labels, seeds, BER points and topology parameters, each
point fully determined by its :class:`~repro.experiments.runner.ScenarioConfig`.
:func:`~repro.experiments.grids.scenario_grid` expands such a grid, and
this module runs it:

* :class:`SweepRunner` — evaluate a list of configs, serially or fanned
  out over ``multiprocessing`` workers.  Results come back in input order
  and are bit-identical to a serial run because every scenario is seeded
  and self-contained (both paths round-trip results through the same
  ``to_dict``/``from_dict`` layer, so cached, local and worker-produced
  results are interchangeable).
* :class:`ResultCache` — an on-disk JSON cache keyed by a stable SHA-256
  digest of the config (:func:`config_digest`), making re-runs incremental:
  only configs never seen before are simulated.

Cache layout::

    <cache root>/                e.g. .repro-cache/ or $REPRO_CACHE_DIR
      ab/                        first two hex digits of the digest
        ab3f...e1.json           ScenarioResult.to_dict() of that config

The cache is safe to delete at any time and safe to share between
processes (or machines on a shared filesystem — the simulation service
of :mod:`repro.service` uses exactly that): entries are written
atomically (tmp file + rename), and a corrupt entry is *quarantined* —
renamed to ``<digest>.json.corrupt`` and counted — so the slot heals on
the next ``store`` instead of staying a silent permanent miss.

Typical use (see also ``python -m repro.experiments`` and
``examples/sweep_parallel.py``)::

    from repro.experiments import ResultCache, SweepRunner, scenario_grid

    grid, keys = scenario_grid(base, {"scheme_label": ["D", "A", "R16"], "seed": [1, 2, 3]})
    runner = SweepRunner(jobs=4, cache=ResultCache())
    results = runner.run(grid)      # List[ScenarioResult], input order
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario

#: Default cache root; override with the ``REPRO_CACHE_DIR`` environment variable.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Version of the ``ScenarioConfig`` serialization layout, folded into every
#: cache digest.  Bump it whenever the meaning of a config dict changes in a
#: way ``to_dict`` round-tripping alone cannot express (a new
#: behaviour-bearing field, changed defaults, ...), so results cached by an
#: older layout are never silently reused as if they matched.
#:
#: History: 1 = pre-mobility layout (PR 1); 2 = ``mobility`` field added;
#: 3 = component-spec layer (``mac``/``routing``/``traffic`` canonicalized
#: against the scheme-label aliases, ``max_deviation_sigmas`` in ``phy``);
#: 4 = component pack (``propagation``/``propagation_params`` in ``phy``,
#: rate-adaptive MAC / Poisson traffic / trace topologies behind component
#: params), so no pre-pack entry can alias a config that now carries
#: component parameters those layouts could not express;
#: 5 = counter-based (Philox) RNG streams — every draw value changed, so a
#: schema-4 result describes a different sample path than a schema-5 run of
#: the same config and must never be reused;
#: 6 = transport registry: result payloads gained per-flow transport
#: counters (``retransmissions``/``fast_retransmits``/``timeouts``/
#: ``rto_backoffs`` and TCP ``packets_sent``), which schema-5 entries lack —
#: config digests for default-transport scenarios are otherwise unchanged
#: (an absent/``reno`` transport serializes to the pre-registry layout);
#: 7 = one grant event per backoff instead of a timer per DIFS and per slot:
#: simulated outcomes are unchanged but every payload's ``events_processed``
#: is lower, so a schema-6 entry holds a count this code never produces;
#: 8 = one scenario type and one field-driven codec: a config dict always
#: carries every field (concrete ``mac``/``routing``/``traffic``/``transport``,
#: no ``scheme_label``) and values are never coerced.
CACHE_SCHEMA_VERSION = 8


def config_digest(config: ScenarioConfig) -> str:
    """Stable SHA-256 content hash of a scenario config.

    Computed over the canonical sorted-key JSON encoding of
    ``config.to_dict()`` together with :data:`CACHE_SCHEMA_VERSION`; two
    configs that would produce the same simulation share a digest, any
    change to any field (including the topology's positions, flows or
    routes) changes it, and a schema bump invalidates every older entry.
    """
    return _digest(config.to_dict())


def _digest(document: Dict[str, object]) -> str:
    """:func:`config_digest` of a config already serialized to ``document``."""
    payload = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "config": document},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed on-disk store of :class:`ScenarioResult` dicts."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def path_for(self, digest: str) -> Path:
        """Location of the cache entry for ``digest`` (two-level fan-out)."""
        return self.root / digest[:2] / f"{digest}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so the slot heals on the next store.

        Leaving the bad file in place would turn one torn write into a
        *permanent* miss (every load fails, every store is skipped as
        "already simulated" by callers that trust load); renaming it to
        ``.corrupt`` both frees the slot and preserves the evidence.
        """
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            return  # lost a race with another loader; it quarantined first
        self.quarantined += 1

    def load_raw(self, digest: str) -> Optional[Dict[str, object]]:
        """The raw cached payload for ``digest``, or None on a miss.

        This is the digest-addressed read the simulation service's
        ``GET /results/{digest}`` endpoint serves; an entry that exists
        but does not decode is quarantined and reported as a miss.
        """
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            data = json.loads(text)
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return None
        if not isinstance(data, dict):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return data

    def load(self, config: ScenarioConfig) -> Optional[ScenarioResult]:
        """Return the cached result for ``config``, or None on a miss."""
        document = config.to_dict()
        digest = _digest(document)
        data = self.load_raw(digest)
        if data is None:
            return None
        if data.get("config") == document:
            # The payload holds this very config: reuse it, not a decoded copy.
            data = dict(data, config=config)
        try:
            return ScenarioResult.from_dict(data)
        except (ValueError, KeyError, TypeError):
            # Decoded as JSON but not as a result: a stale or mangled
            # layout under a current digest is corruption all the same.
            self._quarantine(self.path_for(digest))
            self.hits -= 1
            self.misses += 1
            return None

    def stats(self) -> Dict[str, int]:
        """Hit/miss/quarantine counters accumulated on this cache object."""
        return {"hits": self.hits, "misses": self.misses, "quarantined": self.quarantined}

    def store(self, config: ScenarioConfig, result: ScenarioResult) -> None:
        """Persist ``result`` under ``config``'s digest (atomic write)."""
        path = self.path_for(config_digest(config))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(result.to_dict(), sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def _run_config_to_dict(config: ScenarioConfig) -> Dict[str, object]:
    """Worker entry point: run one scenario, return its serialized result.

    Module-level so it is picklable under every multiprocessing start method.
    Returning the dict (rather than the object graph) keeps the inter-process
    payload identical to what the cache stores, which is what guarantees that
    cached and fresh results are interchangeable.
    """
    return run_scenario(config).to_dict()


class CacheMissError(RuntimeError):
    """Raised by :class:`CacheOnlySweepRunner` when a result was never computed."""


class SweepRunner:
    """Evaluate a list of scenario configs, in parallel and incrementally.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``1`` (the default) runs everything in
        the current process, ``0``/negative means one worker per CPU.
    cache:
        A :class:`ResultCache` for incremental re-runs, or None (default) to
        always simulate.  Hit/miss counts accumulate on the cache object.

    Results are returned in input order and are independent of ``jobs``:
    every scenario carries its own seed and builds its own simulator, so a
    4-way parallel run is bit-identical to a serial one.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None) -> None:
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = int(jobs)
        self.cache = cache

    def run(self, configs: Sequence[ScenarioConfig]) -> List[ScenarioResult]:
        """Run every config (or fetch it from the cache); preserves order."""
        configs = list(configs)
        results: List[Optional[ScenarioResult]] = [None] * len(configs)
        pending: List[int] = []
        for index, config in enumerate(configs):
            cached = self.cache.load(config) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)
        if pending:
            fresh = self._execute([configs[index] for index in pending])
            for index, result_dict in zip(pending, fresh):
                result = ScenarioResult.from_dict(result_dict)
                results[index] = result
                if self.cache is not None:
                    self.cache.store(configs[index], result)
        return results  # type: ignore[return-value]  # every slot is filled

    def run_one(self, config: ScenarioConfig) -> ScenarioResult:
        """Convenience wrapper for a single config."""
        return self.run([config])[0]

    # ------------------------------------------------------------------
    # Execution backends
    # ------------------------------------------------------------------
    def _execute(self, configs: List[ScenarioConfig]) -> List[Dict[str, object]]:
        if self.jobs > 1 and len(configs) > 1:
            return self._execute_parallel(configs)
        return [_run_config_to_dict(config) for config in configs]

    def _execute_parallel(self, configs: List[ScenarioConfig]) -> List[Dict[str, object]]:
        # Imported here: a process that never fans out never loads it.
        import multiprocessing

        # fork is cheapest where available (Linux); spawn works everywhere
        # else because configs and the worker function are picklable.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        with context.Pool(processes=min(self.jobs, len(configs))) as pool:
            return pool.map(_run_config_to_dict, configs)


class CacheOnlySweepRunner(SweepRunner):
    """A runner that only ever *reads*: cache hits or :class:`CacheMissError`.

    Backs the ``report`` CLI subcommand — rendering a completed
    experiment's tables must never silently kick off hours of simulation
    because one grid point is missing.  The error names the missing grid
    points so the user can tell a never-run sweep from a partially
    evicted or differently-parameterised one.
    """

    #: How many missing grid points the error message spells out.
    MISSES_SHOWN = 5

    def __init__(self, cache: ResultCache) -> None:
        super().__init__(jobs=1, cache=cache)

    @staticmethod
    def _describe(config: ScenarioConfig) -> str:
        parts = [
            config.topology.name,
            config.mac.name,
            f"seed={config.seed}",
            f"duration={config.duration_s:g}s",
        ]
        if config.mobility is not None:
            mobility = config.mobility.model
            speed = config.mobility.params.get("speed_max_mps")
            if speed is not None:
                mobility += f"@{float(speed):g}m/s"
            parts.append(f"mobility={mobility}")
        return "/".join(parts)

    def _execute(self, configs: List[ScenarioConfig]) -> List[Dict[str, object]]:
        shown = ", ".join(self._describe(config) for config in configs[: self.MISSES_SHOWN])
        suffix = ", ..." if len(configs) > self.MISSES_SHOWN else ""
        raise CacheMissError(
            f"{len(configs)} scenario(s) are not in the result cache: {shown}{suffix}"
        )
