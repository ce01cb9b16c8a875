"""The traced run of a workload: per-layer metrics.

A traced run (``--trace 1``) is an interpreter of its own, apart from the
untraced runs, so tracing never touches an end-to-end number.  Simulation
metrics carry a ``.D`` or ``.R16`` suffix; harness metrics (sweep, cache,
codec, service) have none.
"""

from __future__ import annotations

import cProfile
import os
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro
from repro.experiments import runner as runner_module
from repro.experiments.parallel import SweepRunner, config_digest
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario

from bench.layers import (
    EVENT_LAYERS,
    HARNESS_LAYERS,
    SCENARIO_LAYERS,
    LayerFold,
    scenario_counters,
)
from bench.workloads import (
    SCHEMES,
    Bench,
    Metric,
    ScenarioRuns,
    ServiceLoop,
    Tally,
    canonical,
    cpu_count,
    metric,
    round_trip,
    seconds,
    timed,
    timed_collected,
)

#: Cached round trips behind ``service.rtt_ms.p50`` and ``.p95``; ten lie beyond the p95.
TAIL_TRIPS = 200

#: Untraced repeats of each harness call timed for its ``_ms.p50``.
CALL_REPEATS = 5

_UNITS = {
    "events_per_sim_s": "events/sim-s",
    "tx_per_sim_s": "tx/sim-s",
    "mtxop_per_sim_s": "mtxop/sim-s",
    "forwarded_per_sim_s": "pkt/sim-s",
    "receivers_per_tx": "rx/tx",
    "mean_aggregation": "subpkt/frame",
    "goodput_mbps": "Mb/s",
    "no_route": "count",
}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _unit(name: str) -> str:
    return _UNITS.get(name.split(".", 1)[1], "fraction")


def _p50(values: List[float], unit: str = "ms") -> Metric:
    return metric(percentile(values, 0.5), unit, len(values))


def _fold(profile: cProfile.Profile) -> LayerFold:
    return LayerFold(profile, os.path.dirname(os.path.abspath(repro.__file__)))


def _dump(profile: cProfile.Profile, pstats_dir: Optional[Path], name: str) -> None:
    if pstats_dir is not None:
        pstats_dir.mkdir(parents=True, exist_ok=True)
        profile.dump_stats(str(pstats_dir / f"{name}.pstats"))


def _traced_scenario(config: ScenarioConfig):
    """Run ``config`` under the profiler, capturing the network it builds."""
    networks = []
    original = runner_module.build_network

    def capture(config):
        network, routing = original(config)
        networks.append(network)
        return network, routing

    profile = cProfile.Profile()
    runner_module.build_network = capture
    try:
        result, span = timed_collected(profile.runcall, run_scenario, config)
    finally:
        runner_module.build_network = original
    return result, seconds(span), profile, networks[0]


def _trace_scheme(
    bench: Bench, runs: ScenarioRuns, scheme: str, pstats_dir: Optional[Path]
) -> Dict[str, Metric]:
    config = runs.config(scheme, 0)
    duration = config.duration_s
    shares: Dict[str, List[float]] = {}
    overhead: List[float] = []
    counters: Optional[Dict[str, float]] = None
    for _repeat in range(bench.plan.trace_repeats):
        _result, untraced = runs.run(scheme, 0)
        result, traced, profile, network = _traced_scenario(config)
        runs.record(scheme, config, result)
        overhead.append(traced / seconds(untraced))
        fold = _fold(profile)
        for layer in SCENARIO_LAYERS:
            shares.setdefault(f"{layer}.self_share", []).append(fold.share(layer))
        shares.setdefault("named_share", []).append(fold.named_share())
        exact = scenario_counters(network, result, duration)
        for layer in EVENT_LAYERS:
            exact[f"{layer}.events_per_sim_s"] = fold.events.get(layer, 0) / duration
        runs.tally.check(
            counters is None or counters == exact,
            f"{bench.workload.name} {scheme}: simulated counters differ between repeats",
        )
        counters = exact
        _dump(profile, pstats_dir, f"{bench.workload.name}-{scheme}")
    assert counters is not None  # trace_repeats >= 1
    builds = [
        seconds(timed(runner_module.build_network, config)[1]) * 1000.0
        for _ in range(CALL_REPEATS)
    ]
    metrics = {
        f"{name}.{scheme}": metric(value, _unit(name), 1, exact=True)
        for name, value in counters.items()
    }
    for name, values in shares.items():
        metrics[f"{name}.{scheme}"] = metric(statistics.median(values), "fraction", len(values))
    metrics[f"trace_overhead.{scheme}"] = metric(
        statistics.median(overhead), "ratio", len(overhead)
    )
    metrics[f"topology.build_ms.p50.{scheme}"] = _p50(builds)
    return metrics


def _trace_harness(bench: Bench, tally: Tally, pstats_dir: Optional[Path]) -> Dict[str, Metric]:
    configs, jobs_n = bench.grid, cpu_count()
    runner = SweepRunner(jobs=1, cache=bench.fresh_cache())
    cold_ms: List[float] = []
    results = []
    for config in configs:
        result, span = timed(runner.run_one, config)
        cold_ms.append(seconds(span) * 1000.0)
        results.append(result)
    tally.attempted += len(configs)
    parallel_results, parallel_span = timed_collected(
        SweepRunner(jobs=jobs_n, cache=bench.fresh_cache()).run, configs
    )
    parallel_s = seconds(parallel_span)
    tally.attempted += len(configs)
    tally.check(
        [canonical(r) for r in parallel_results] == [canonical(r) for r in results],
        f"{bench.workload.name}: jobs={jobs_n} sweep differs from run_one",
    )
    warm_cache, store_cache = runner.cache, bench.fresh_cache()
    timings: Dict[str, List[float]] = {}
    for _repeat in range(CALL_REPEATS):
        for config, result in zip(configs, results):
            config_dict, result_dict = config.to_dict(), result.to_dict()
            for name, fn, args in (
                ("experiments.config_digest_ms", config_digest, (config,)),
                ("experiments.cache_load_ms", warm_cache.load, (config,)),
                ("experiments.cache_store_ms", store_cache.store, (config, result)),
                ("spec.config_from_dict_ms", ScenarioConfig.from_dict, (config_dict,)),
                ("spec.result_from_dict_ms", ScenarioResult.from_dict, (result_dict,)),
            ):
                timings.setdefault(name, []).append(seconds(timed(fn, *args)[1]) * 1000.0)

    calls: Dict[str, List[float]] = {}
    service = ServiceLoop(bench, tally)
    specs = bench.plan.uncached_trips + 1
    for _ in range(specs):
        service.uncached(calls)
    for _ in range(specs * CALL_REPEATS):
        service.cached(calls)
    cached_ms = [seconds(service.cached()) * 1000.0 for _ in range(TAIL_TRIPS)]

    bodies = [bench.request(index) for index in range(specs)]

    def harness_pass() -> None:
        SweepRunner(jobs=1, cache=warm_cache).run(configs)
        for index in range(specs * CALL_REPEATS):
            round_trip(bench.service, bodies[index % specs])

    harness_pass()  # the first pass after the round trips above fills lazy state
    untraced = seconds(timed(harness_pass)[1])
    profile = cProfile.Profile()
    traced = seconds(timed(profile.runcall, harness_pass)[1])
    _dump(profile, pstats_dir, f"{bench.workload.name}-harness")
    fold = _fold(profile)

    metrics = {f"{name}.p50": _p50(values) for name, values in timings.items()}
    metrics["experiments.run_one_cold_ms.p50"] = _p50(cold_ms)
    metrics["experiments.parallel_efficiency"] = metric(
        sum(cold_ms) / 1000.0 / (jobs_n * parallel_s), "fraction", 1
    )
    metrics["experiments.sweep_cold_s.jN"] = metric(parallel_s, "s", 1)
    for name, values in calls.items():
        metrics[f"service.{name}_ms.p50"] = _p50(values)
    for q in (50, 95):
        metrics[f"service.rtt_ms.p{q}"] = metric(
            percentile(cached_ms, q / 100.0), "ms", len(cached_ms)
        )
    for layer in HARNESS_LAYERS:
        metrics[f"{layer}.self_share"] = metric(fold.share(layer), "fraction", 1)
    metrics["named_share.harness"] = metric(fold.named_share(), "fraction", 1)
    metrics["trace_overhead.harness"] = metric(traced / untraced, "ratio", 1)
    return metrics


def trace(bench: Bench, tally: Tally, pstats_dir: Optional[Path] = None) -> Dict[str, Metric]:
    """The per-layer metrics of one traced run; profiles go to ``pstats_dir`` if given."""
    runs = ScenarioRuns(bench, tally)
    runs.warm_up()
    metrics: Dict[str, Metric] = {}
    for scheme in SCHEMES:
        metrics.update(_trace_scheme(bench, runs, scheme, pstats_dir))
    metrics.update(_trace_harness(bench, tally, pstats_dir))
    return metrics
