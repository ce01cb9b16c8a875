#!/usr/bin/env python3
"""VoIP quality under mobility: MoS vs node speed through the sweep runner.

Takes the Table III workload (96 kb/s on-off VoIP calls on the Fig. 1
topology) and puts the stations on random-waypoint trajectories at
increasing speeds.  Speed 0 reproduces the paper's fixed-placement MoS
exactly; the other columns show how each scheme's call quality holds up
as movement invalidates links and the mobility subsystem re-estimates the
ETX graph and refreshes routes mid-call.

The `mobility-voip` experiment family behind this is itself a declarative
grid over the scenario API; one of its grid points, from the shell:

    python -m repro.experiments run --set topology=voip traffic=flows \
        scheme=R16 mobility=random_waypoint mobility.speed=5 phy=low_rate

Like examples/sweep_parallel.py, the grid fans out over worker processes
and every scenario result is cached on disk, so a second run of this
script renders from cache in milliseconds.

Run with:  python examples/mobile_voip.py
(Set REPRO_EXAMPLE_DURATION to shorten the simulated time, e.g. in CI.)
"""

import os
import time

from repro.experiments import ResultCache, SweepRunner
from repro.experiments.mobility import mobility_voip_grid
from repro.experiments.report import render_panel

SPEEDS_MPS = (0.0, 1.0, 5.0, 10.0)
SCHEMES = ("D", "A", "R16")
DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "1.0"))
CALLS = 10


def mean(values) -> float:
    """The mean over a run's calls; a run that scored none counts as the worst, 1.0."""
    return sum(values) / len(values) if values else 1.0


def main() -> None:
    cache = ResultCache()  # .repro-cache/ unless $REPRO_CACHE_DIR says otherwise
    runner = SweepRunner(jobs=4, cache=cache)
    start = time.perf_counter()
    configs, keys = mobility_voip_grid(SPEEDS_MPS, SCHEMES, CALLS, DURATION_S)
    results = runner.run(configs)
    elapsed = time.perf_counter() - start

    mos, loss = {}, {}
    for (label, speed), result in zip(keys, results):
        qualities = result.voip_quality.values()
        mos.setdefault(label, {})[speed] = mean([quality.mos for quality in qualities])
        loss.setdefault(label, {})[speed] = mean([quality.loss_rate for quality in qualities])

    print(
        render_panel(
            f"Mean MoS, {CALLS} calls, vs node speed (m/s, random waypoint)",
            mos,
            list(SPEEDS_MPS),
        )
    )
    print()
    print(
        render_panel(
            "Effective loss rate (late + lost)",
            loss,
            list(SPEEDS_MPS),
        )
    )
    total = cache.hits + cache.misses
    print(f"\n{elapsed:.2f} s wall clock; cache: {cache.hits}/{total} hits in {cache.root}")


if __name__ == "__main__":
    main()
