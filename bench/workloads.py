"""The four benchmark workloads and what one untraced run of each measures.

Every workload exercises the same three user paths on its own inputs:

* **scenario runs** — D and R16 pairs of :func:`run_scenario`, timed with
  the network build included;
* **a sweep** — cold :class:`SweepRunner` passes, each on a fresh
  :class:`ResultCache`, and warm passes over a filled cache;
* **the service** — a closed loop with one in-process client: ``POST
  /jobs``, ``Worker.run_once`` until the job is done, ``GET
  /results/{digest}``.  Each round trip submits a spec never submitted
  before, to a service with an empty job store.  A cached round trip (a
  spec already served) is mostly file-system calls, whose time the
  speedometer does not correct; the traced run reports it.

The workloads differ in the size of their scenarios, and so in which layers
dominate (see the comment on each).

Shared machines change speed by up to a factor of two or three, for spells
from a fraction of a second to minutes.  So every timed operation is short
(at most about half a second) and its wall time is scaled to a reference
speed by a :class:`~bench.speed.Speedometer` sampling the machine during
it; a run takes many samples of each metric, spread evenly over the run,
and reports their median.

A run is a fixed number of *rounds*, each doing a little of every operation.
The amount of work is fixed by a :class:`Plan` scaled by the run length,
never by a time budget, so two commits do the same work.  Scenario seeds
derive from the run's ``--seed``; the program receives only the generated
configs.  Every output is checked (see :class:`Tally`); a failed check is
counted, and the run then exits non-zero.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import runner as runner_module
from repro.experiments.longlived import FLOW_SETS, longlived_panel_grid
from repro.experiments.mobility import mobility_voip_grid
from repro.experiments.parallel import ResultCache, SweepRunner
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.phy.params import LOW_RATE_PHY
from repro.service.app import SimulationService
from repro.service.store import JobStore
from repro.service.worker import Worker
from repro.spec import ScenarioSpec
from repro.topology.roofnet import roofnet_scenario
from repro.topology.standard import line_topology

from bench.speed import Speedometer

SCHEMES = ("D", "R16")

#: The run length, in seconds, that each workload's :attr:`Workload.plan` is sized for.
REFERENCE_SECONDS = 10

#: Worker steps a service job may take before the loop gives up on it.
MAX_WORKER_STEPS = 50

Metric = Dict[str, object]

#: perf_counter() at the start and at the end of one timed operation.
Span = Tuple[float, float]


@dataclass(frozen=True)
class Plan:
    """How much work one run does; identical on every commit."""

    duration_s: float  # simulated seconds per timed scenario run
    grid_duration_s: float  # simulated seconds per sweep config
    service_duration_s: float  # simulated seconds per service spec
    rounds: int
    # Per round: timed D/R16 pairs (each on a seed of its own), cold sweep
    # passes, uncached round trips and warm passes.
    pairs: int
    cold_passes: int
    uncached_trips: int
    warm_passes: int
    trace_repeats: int  # traced runs per scheme in a ``--trace 1`` run

    def scaled(self, seconds: float) -> "Plan":
        """This plan for a run of ``seconds`` instead of the reference length."""
        factor = seconds / REFERENCE_SECONDS
        return replace(
            self,
            rounds=max(2, round(self.rounds * factor)),
            trace_repeats=max(1, round(self.trace_repeats * factor)),
        )


@dataclass(frozen=True)
class Workload:
    """One named input set: its scenarios, sweep grid, service specs and checks."""

    name: str
    scenario: Callable[[str, int, float], ScenarioConfig]  # (scheme, seed, duration)
    grid: Callable[[int, float], List[ScenarioConfig]]  # (seed, duration)
    service_spec: Callable[[int, int, float], Dict[str, object]]  # (seed, index, duration)
    plan: Plan
    voip_calls: int = 0  # calls each timed run must report VoIP quality for
    r16_beats_d: bool = False  # the paper's ordering must hold on every timed pair


def scenario_seed(seed: int, index: int) -> int:
    """The ``ScenarioConfig.seed`` of the ``index``-th input made from ``--seed``."""
    return seed * 1000 + index


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _line5():
    return line_topology(5)


@functools.lru_cache(maxsize=None)
def _roofnet():
    return roofnet_scenario(seed=7)


def line_tcp(scheme: str, seed: int, duration_s: float) -> ScenarioConfig:
    return ScenarioConfig(
        topology=_line5(), scheme_label=scheme, bit_error_rate=1e-6,
        duration_s=duration_s, seed=seed,
    )


def roofnet_tcp(scheme: str, seed: int, duration_s: float) -> ScenarioConfig:
    return ScenarioConfig(
        topology=_roofnet(), scheme_label=scheme, phy=LOW_RATE_PHY,
        duration_s=duration_s, seed=seed,
    )


def mobile_voip(scheme: str, seed: int, duration_s: float) -> ScenarioConfig:
    configs, _keys = mobility_voip_grid((10.0,), (scheme,), 10, duration_s, seed)
    return configs[0]


def route0_cell(scheme: str, seed: int, duration_s: float) -> ScenarioConfig:
    configs, _keys = longlived_panel_grid(
        "ROUTE0", 1e-6, (scheme,), (FLOW_SETS[-1],), duration_s, seed
    )
    return configs[0]


def _scheme_grid(scenario: Callable[[str, int, float], ScenarioConfig]):
    """A sweep of ``scenario`` over both schemes and two seeds."""

    def grid(seed: int, duration_s: float) -> List[ScenarioConfig]:
        return [
            scenario(scheme, scenario_seed(seed, 100 + index), duration_s)
            for index in range(2)
            for scheme in SCHEMES
        ]

    return grid


def _route0_grid(seed: int, duration_s: float) -> List[ScenarioConfig]:
    configs, _keys = longlived_panel_grid(
        "ROUTE0", 1e-6, duration_s=duration_s, seed=scenario_seed(seed, 100)
    )
    return configs


def _config_spec(scenario: Callable[[str, int, float], ScenarioConfig]):
    """Service specs that submit ``scenario`` under D inline, one seed each.

    One scheme keeps the uncached round trips alike, so their median is
    not the midpoint of two clusters.
    """

    def spec(seed: int, index: int, duration_s: float) -> Dict[str, object]:
        return scenario("D", scenario_seed(seed, 200 + index), duration_s).to_dict()

    return spec


def _smoke_spec(seed: int, index: int, duration_s: float) -> Dict[str, object]:
    """The service-smoke spec: a two-hop line, addressed by registry name."""
    return {
        "topology": {"name": "line", "params": {"n_hops": 2}},
        "duration_s": duration_s,
        "seed": scenario_seed(seed, 200 + index),
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Under D, mac/ timer callbacks are most of the fired events, so sim/
        # and mac/ dominate; R16's mTXOP trains skip contention and move time
        # into core/.  A MAC-timer change shows on D and barely moves R16.
        # The scenario is 0.3 s, not the paper's 2 s, so that a run holds many
        # short timed runs (see bench/speed.py).
        Workload(
            name="line-tcp",
            scenario=line_tcp,
            grid=_scheme_grid(line_tcp),
            service_spec=_config_spec(line_tcp),
            plan=Plan(0.3, 0.05, 0.05, 7, 2, 2, 2, 4, 2),
            r16_beats_d=True,
        ),
        # Each transmission reaches ~23 receivers (~4 on the line), so phy/
        # dispatch dominates: a PHY change shows here and not on line-tcp.
        # 1.0 s, not 2 s, for the same reason as line-tcp.
        Workload(
            name="roofnet-tcp",
            scenario=roofnet_tcp,
            grid=_scheme_grid(roofnet_tcp),
            service_spec=_config_spec(roofnet_tcp),
            plan=Plan(1.0, 0.1, 0.1, 5, 2, 2, 3, 4, 2),
        ),
        # The paper's interactive traffic: small UDP packets, no ACK clocking.
        # Mobility ticks invalidate phy/ caches and routing/ rebuilds the ETX
        # graph; short scenarios make set-up a visible share.
        Workload(
            name="mobile-voip",
            scenario=mobile_voip,
            grid=_scheme_grid(mobile_voip),
            service_spec=_config_spec(mobile_voip),
            plan=Plan(2.0, 0.2, 0.2, 7, 3, 2, 2, 4, 3),
            voip_calls=10,
        ),
        # Small scenarios put experiments/, the codec, the result cache and
        # service/ on the critical path; a simulator-only change should not
        # move its warm or cached metrics.
        Workload(
            name="sweep-service",
            scenario=route0_cell,
            grid=_route0_grid,
            service_spec=_smoke_spec,
            plan=Plan(0.2, 0.05, 0.05, 5, 2, 1, 4, 6, 3),
        ),
    )
}


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Operations attempted in one run, and the checks among them that failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def canonical(payload) -> str:
    """The byte-exact text two equal results share."""
    if isinstance(payload, ScenarioResult):
        payload = payload.to_dict()
    return json.dumps(payload, sort_keys=True)


def metric(value: float, unit: str, samples: int, exact: bool = False) -> Metric:
    """One reported number; ``exact`` marks simulated statistics fixed by the seed."""
    entry: Metric = {"value": float(value), "unit": unit, "samples": samples}
    if exact:
        entry["exact"] = True
    return entry


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def timed(fn: Callable, *args) -> Tuple[object, Span]:
    """``fn(*args)`` and the span it took."""
    start = time.perf_counter()
    value = fn(*args)
    return value, (start, time.perf_counter())


def timed_collected(fn: Callable, *args) -> Tuple[object, Span]:
    """:func:`timed` for an operation long enough to start from a collected heap.

    Without it, a collection of garbage the earlier operations left lands
    in whichever timed operation happens to trigger it.
    """
    gc.collect()
    return timed(fn, *args)


def seconds(span: Span) -> float:
    return span[1] - span[0]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Service:
    """One in-process service and the worker that drains its job store."""

    app: SimulationService
    worker: Worker


def open_service(root: Path, cache: ResultCache) -> Service:
    """A service over a job store at ``root`` that shares the result ``cache``."""
    store = JobStore(root)
    return Service(SimulationService(store, cache), Worker(store, cache=cache))


@dataclass
class Bench:
    """Everything a run works on, built by :func:`prepare`."""

    workload: Workload
    seed: int
    plan: Plan
    workdir: Path
    grid: List[ScenarioConfig]
    cache: ResultCache  # the services' shared result cache
    service: Service  # serves the traced run's cached round trips
    _stores: "count[int]" = field(default_factory=count)

    def request(self, index: int) -> bytes:
        """The ``POST /jobs`` body of the ``index``-th service spec."""
        spec = self.workload.service_spec(self.seed, index, self.plan.service_duration_s)
        return json.dumps({"spec": spec}).encode()

    def empty_service(self) -> Service:
        """A service with an empty job store, sharing the result cache."""
        return open_service(self.workdir / f"store-{next(self._stores)}", self.cache)

    def fresh_cache(self) -> ResultCache:
        return ResultCache(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))


def prepare(workload: Workload, seed: int, plan: Plan, workdir: Path) -> Bench:
    """Build the run's inputs, the first network, and the service; the end of set-up."""
    first = workload.scenario(SCHEMES[0], scenario_seed(seed, 0), plan.duration_s)
    runner_module.build_network(first)
    cache = ResultCache(workdir / "results")
    return Bench(
        workload=workload,
        seed=seed,
        plan=plan,
        workdir=workdir,
        grid=workload.grid(seed, plan.grid_duration_s),
        cache=cache,
        service=open_service(workdir / "store", cache),
    )


# ----------------------------------------------------------------------
# The three user paths
# ----------------------------------------------------------------------
class ScenarioRuns:
    """Runs scenarios of one workload and checks every result.

    A flow on the lossy Roofnet mesh can starve for a whole timed run under
    DCF, so delivery is checked per flow over all of a run's timed runs of
    a scheme (:meth:`check_delivery`), not per run.
    """

    def __init__(self, bench: Bench, tally: Tally) -> None:
        self.bench = bench
        self.tally = tally
        self._first: Dict[Tuple[str, int], str] = {}
        self._delivered: Dict[Tuple[str, int], int] = {}

    def config(self, scheme: str, index: int) -> ScenarioConfig:
        bench = self.bench
        return bench.workload.scenario(
            scheme, scenario_seed(bench.seed, index), bench.plan.duration_s
        )

    def run(self, scheme: str, index: int) -> Tuple[ScenarioResult, Span]:
        config = self.config(scheme, index)
        result, span = timed_collected(run_scenario, config)
        self.record(scheme, config, result)
        return result, span

    def record(self, scheme: str, config: ScenarioConfig, result: ScenarioResult) -> None:
        tally, workload = self.tally, self.bench.workload
        label = f"{workload.name} {scheme} seed {config.seed}"
        tally.attempted += 1
        text = canonical(result)
        first = self._first.setdefault((scheme, config.seed), text)
        tally.check(first == text, f"{label}: a repeat gave a different result")
        for flow in result.flows:
            key = (scheme, flow.flow_id)
            self._delivered[key] = self._delivered.get(key, 0) + flow.packets_received
        if workload.voip_calls:
            tally.check(
                len(result.voip_quality) == workload.voip_calls,
                f"{label}: {len(result.voip_quality)} of {workload.voip_calls} calls "
                f"report VoIP quality",
            )

    def check_delivery(self) -> None:
        """Every flow delivered data in some timed run of each scheme."""
        silent = sorted(key for key, packets in self._delivered.items() if packets <= 0)
        self.tally.check(
            not silent, f"{self.bench.workload.name}: (scheme, flow) {silent} delivered nothing"
        )

    def pair(self, index: int) -> Dict[str, Span]:
        """Timed D and R16 runs on seed ``index``, in alternating order; their spans."""
        results, spans = {}, {}
        for scheme in SCHEMES[::-1] if index % 2 else SCHEMES:
            results[scheme], spans[scheme] = self.run(scheme, index)
        if self.bench.workload.r16_beats_d:
            self.tally.check(
                results["R16"].total_throughput_mbps > results["D"].total_throughput_mbps,
                f"{self.bench.workload.name} pair {index}: R16 goodput is not above D",
            )
        return spans

    def warm_up(self) -> None:
        for scheme in SCHEMES:
            self.run(scheme, 0)


class Sweeps:
    """Cold and warm passes over the grid; every pass must equal the first.

    The first cold pass fills the cache every warm pass reads; later cold
    caches are deleted once timed.
    """

    def __init__(self, bench: Bench, tally: Tally) -> None:
        self.bench = bench
        self.tally = tally
        self._reference: Optional[List[str]] = None
        self.warm_cache: Optional[ResultCache] = None

    def _check(self, what: str, results: List[ScenarioResult]) -> None:
        self.tally.attempted += len(results)
        texts = [canonical(result) for result in results]
        if self._reference is None:
            self._reference = texts
        self.tally.check(texts == self._reference, f"{what} sweep differs from the first pass")

    def cold(self, jobs: int) -> Span:
        """One pass on a fresh cache."""
        cache = self.bench.fresh_cache()
        results, span = timed_collected(SweepRunner(jobs=jobs, cache=cache).run, self.bench.grid)
        self._check(f"cold jobs={jobs}", results)
        if self.warm_cache is None:
            self.warm_cache = cache
        else:
            shutil.rmtree(cache.root, ignore_errors=True)
        return span

    def warm(self) -> Span:
        """One pass over the first cold pass's cache."""
        if self.warm_cache is None:
            raise RuntimeError("a cold pass fills the cache before a warm pass")
        runner = SweepRunner(jobs=1, cache=ResultCache(self.warm_cache.root))
        results, span = timed(runner.run, self.bench.grid)
        self.tally.check(runner.cache.misses == 0, "a warm sweep pass missed the cache")
        self._check("warm", results)
        return span


def _call(calls: Optional[Dict[str, List[float]]], name: str, fn: Callable, *args):
    """``fn(*args)``, timed into ``calls[name]`` (ms) when per-call timings are wanted."""
    if calls is None:
        return fn(*args)
    value, span = timed(fn, *args)
    calls.setdefault(name, []).append(seconds(span) * 1000.0)
    return value


def round_trip(
    service: Service, body: bytes, calls: Optional[Dict[str, List[float]]] = None
) -> Tuple[str, Dict[str, object]]:
    """Submit ``body``, work the queue until its job is done, fetch the result."""
    route = service.app.route
    status, job = _call(calls, "submit", route, "POST", "/jobs", body)
    if status != 202:
        raise RuntimeError(f"POST /jobs answered {status}: {job}")
    for _step in range(MAX_WORKER_STEPS):
        if job["state"] == "done":
            break
        if job["state"] == "failed":
            raise RuntimeError(f"job {job['job_id']} failed: {job['error']}")
        _call(calls, "worker_run_once", service.worker.run_once)
        status, job = _call(calls, "status", route, "GET", f"/jobs/{job['job_id']}")
    else:
        raise RuntimeError(f"job {job['job_id']} not done after {MAX_WORKER_STEPS} steps")
    status, payload = _call(calls, "result", route, "GET", f"/results/{job['digest']}")
    if status != 200:
        raise RuntimeError(f"GET /results answered {status}: {payload}")
    return str(job["digest"]), payload


class ServiceLoop:
    """One client's round trips; each payload must equal a direct run of its spec.

    An uncached round trip goes to a service with an empty job store, so
    the queue scans in ``POST /jobs`` and ``Worker.run_once`` read one
    record, however many trips came before.  A round trip given ``calls``
    also records each endpoint's time in it (ms).
    """

    def __init__(self, bench: Bench, tally: Tally) -> None:
        self.bench = bench
        self.tally = tally
        self._served: Dict[str, str] = {}
        self._requests: List[bytes] = []
        self._specs = count()
        self._cached_trips = 0

    def uncached(self, calls: Optional[Dict[str, List[float]]] = None) -> Span:
        """The round trip of the next spec, never submitted before."""
        body = self.bench.request(next(self._specs))
        service = self.bench.empty_service()
        (digest, payload), span = timed_collected(round_trip, service, body, calls)
        self.tally.attempted += 1
        direct = run_scenario(ScenarioSpec.from_dict(json.loads(body)["spec"]).to_config())
        self._served[digest] = canonical(payload)
        self._requests.append(body)
        self.tally.check(
            self._served[digest] == canonical(direct),
            f"service result {digest[:12]} differs from a direct run",
        )
        return span

    def cached(self, calls: Optional[Dict[str, List[float]]] = None) -> Span:
        """A round trip of a spec already served, cycling through them."""
        body = self._requests[self._cached_trips % len(self._requests)]
        self._cached_trips += 1
        (digest, payload), span = timed(round_trip, self.bench.service, body, calls)
        self.tally.attempted += 1
        self.tally.check(
            canonical(payload) == self._served.get(digest),
            f"cached service result {digest[:12]} differs from the uncached one",
        )
        return span


def _share(total: int, slot: int, slots: int) -> int:
    """How many of ``total`` operations the ``slot``-th of ``slots`` even slots gets."""
    return total * (slot + 1) // slots - total * slot // slots


def _metric_defs(
    plan: Plan, grid_size: int
) -> Dict[str, Tuple[str, str, Callable[[float], float]]]:
    """Each end-to-end metric of a run: (its spans, unit, value from a span's seconds)."""
    return {
        "sim_s_per_wall_s.D": ("D", "sim-s/s", lambda s: plan.duration_s / s),
        "sim_s_per_wall_s.R16": ("R16", "sim-s/s", lambda s: plan.duration_s / s),
        "sweep_cold_s.j1": ("cold", "s", lambda s: s),
        "sweep_warm_ms": ("warm", "ms", lambda s: s * 1e3 / grid_size),
        "service_rtt_uncached_ms.p50": ("uncached", "ms", lambda s: s * 1e3),
    }


def measure(
    bench: Bench, tally: Tally, speedometer: Speedometer
) -> Tuple[Dict[str, Metric], Dict[str, Dict[str, List[float]]]]:
    """The end-to-end metrics of one untraced run (set-up and memory excluded).

    Returns the metrics and, per metric, its samples both scaled (what the
    metric's median is taken over) and raw.  After a warm-up of every
    operation, each round runs its heavy steps (the timed pairs, the cold
    passes at one job, the uncached round trips) and spreads its warm
    passes evenly between them, so every metric samples the whole run.

    The warm-up also runs one pass at one job per CPU, which must equal the
    pass at one job.  It is not timed: on a shared two-CPU machine its time
    follows whichever CPU is busier.  The traced run reports it.
    """
    plan = bench.plan
    runs, sweeps = ScenarioRuns(bench, tally), Sweeps(bench, tally)
    service = ServiceLoop(bench, tally)
    runs.warm_up()
    sweeps.cold(1)
    sweeps.cold(cpu_count())
    service.uncached()
    for _ in range(plan.warm_passes):
        sweeps.warm()

    spans: Dict[str, List[Span]] = {}

    def add(name: str, span: Span) -> None:
        spans.setdefault(name, []).append(span)

    def pair(index: int) -> None:
        for scheme, span in runs.pair(index).items():
            add(scheme, span)

    pairs = count(1)
    for _round in range(plan.rounds):
        steps = (
            [functools.partial(pair, next(pairs)) for _ in range(plan.pairs)]
            + [lambda: add("cold", sweeps.cold(1))] * plan.cold_passes
            + [lambda: add("uncached", service.uncached())] * plan.uncached_trips
        )
        for slot, step in enumerate(steps):
            step()
            for _ in range(_share(plan.warm_passes, slot, len(steps))):
                add("warm", sweeps.warm())
    runs.check_delivery()

    metrics: Dict[str, Metric] = {}
    samples: Dict[str, Dict[str, List[float]]] = {"scaled": {}, "raw": {}}
    for name, (key, unit, value) in _metric_defs(plan, len(bench.grid)).items():
        scaled = [value(speedometer.scaled(span)) for span in spans[key]]
        samples["scaled"][name] = scaled
        samples["raw"][name] = [value(seconds(span)) for span in spans[key]]
        metrics[name] = metric(statistics.median(scaled), unit, len(scaled))
    return metrics, samples
