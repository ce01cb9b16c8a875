#!/usr/bin/env python3
"""Parallel multi-seed scheme sweep from one declarative scenario.

Starts from a declarative `ScenarioConfig` — the topology is a registry
reference (`TopologyRef("fig1")`, built at construction), not a
hand-built object — expands it with `scenario_grid` into a config grid
(5 scheme labels x 3 seeds), fans the grid out over worker processes,
and caches every scenario result on disk so a second run of this script
is served from cache in milliseconds.

The same scenario, straight from the shell:

    python -m repro.experiments run --set topology=fig1 scheme=R16 flows=1

Run with:  python examples/sweep_parallel.py
Then run it again and watch the cache line at the bottom.
(Set REPRO_EXAMPLE_DURATION to shorten the simulated time, e.g. in CI.)
"""

import os
import statistics
import time

from repro.experiments import (
    DEFAULT_SCHEME_LABELS,
    ResultCache,
    ScenarioConfig,
    SweepRunner,
    TopologyRef,
    scenario_grid,
)

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "0.2"))
SEEDS = (1, 2, 3)


def main() -> None:
    base = ScenarioConfig(
        topology=TopologyRef("fig1"),  # resolved into the concrete topology
        route_set="ROUTE0",
        active_flows=[1],
        duration_s=DURATION_S,
    )
    grid, keys = scenario_grid(base, {"scheme_label": DEFAULT_SCHEME_LABELS, "seed": SEEDS})
    print(f"{len(grid)} scenarios ({len(DEFAULT_SCHEME_LABELS)} schemes x {len(SEEDS)} seeds)")

    cache = ResultCache()  # .repro-cache/ unless $REPRO_CACHE_DIR says otherwise
    runner = SweepRunner(jobs=4, cache=cache)
    start = time.perf_counter()
    results = runner.run(grid)
    elapsed = time.perf_counter() - start

    print(f"\n{'scheme':<8} {'mean Mb/s':>10} {'stdev':>8}   (flow 1, {DURATION_S} s)")
    for label in DEFAULT_SCHEME_LABELS:
        per_seed = [
            result.total_throughput_mbps
            for (scheme, _seed), result in zip(keys, results)
            if scheme == label
        ]
        stdev = statistics.stdev(per_seed) if len(per_seed) > 1 else 0.0
        print(f"{label:<8} {statistics.mean(per_seed):>10.2f} {stdev:>8.2f}")

    total = cache.hits + cache.misses
    print(f"\n{elapsed:.2f} s wall clock; cache: {cache.hits}/{total} hits in {cache.root}")


if __name__ == "__main__":
    main()
