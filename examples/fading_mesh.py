#!/usr/bin/env python3
"""The component pack in one script: fading, rate adaptation, Poisson traffic, trace files.

Part 1 runs the `fading` experiment family — the 4-hop relay line under
every registered propagation model (log-normal shadowing, Rayleigh,
Rician K=4) for the D and R16 schemes — through the cached sweep runner.

Part 2 exercises the rest of the pack end to end: it *writes* a small
CSV trace topology to a temp directory, loads it through the `trace:`
prefix entry of the topology registry (routes derived from geometric
shortest paths), and runs Poisson session traffic over the ARF
rate-adaptive MAC under Rician fading — the works.  The same scenario
from the shell:

    python -m repro.experiments run --set topology=trace:mesh.csv \
        mac=rate_adapt traffic=poisson traffic.arrival_rate_hz=30 \
        phy.propagation=rician duration=0.5

Run with:  python examples/fading_mesh.py
(Set REPRO_EXAMPLE_DURATION to shorten the simulated time, e.g. in CI.)
"""

import os
import tempfile
import textwrap

from repro.experiments import ResultCache, ScenarioConfig, SweepRunner
from repro.experiments.fading import FADING_MODELS
from repro.experiments.figures import FIGURES
from repro.experiments.report import render_panel
from repro.phy.params import PhyParams
from repro.spec import MacSpec, TrafficSpec
from repro.topology.registry import build_topology

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "1.0"))

#: A 6-station double chain with two crossing flows.
TRACE_CSV = """\
# station placements (metres) — two parallel 3-hop chains, bridged
node,0,0,0
node,1,115,0
node,2,230,0
node,3,0,90
node,4,115,90
node,5,230,90
# flows: one per chain (Poisson sessions re-flavour them at run time)
flow,1,0,2
flow,2,3,5
"""


def main() -> None:
    cache = ResultCache()  # .repro-cache/ unless $REPRO_CACHE_DIR says otherwise
    runner = SweepRunner(jobs=2, cache=cache)

    (table,) = FIGURES["fading"].blocks(runner, 1, DURATION_S).values()
    print(
        render_panel(
            "Flow-1 Mb/s per propagation model (4-hop line)",
            table,
            list(FADING_MODELS),
        )
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(TRACE_CSV))
        topology = build_topology(f"trace:{path}")
        print(
            f"\nloaded {topology.name}: {len(topology.positions)} nodes, "
            f"{len(topology.flows)} flows, derived routes "
            f"{sorted(topology.route_sets['ROUTE0'])}"
        )
        config = ScenarioConfig(
            topology=topology,
            mac=MacSpec("rate_adapt", {"inner": "dcf", "up_after": 5}),
            traffic=TrafficSpec("poisson", {"arrival_rate_hz": 30.0}),
            phy=PhyParams(propagation="rician", propagation_params={"k_factor": 4.0}),
            duration_s=DURATION_S,
            seed=3,
        )
        outcome = runner.run_one(config)
        for flow in outcome.flows:
            print(
                f"flow {flow.flow_id}: {flow.throughput_mbps:.2f} Mb/s, "
                f"{flow.packets_received} packets received"
            )

    total = cache.hits + cache.misses
    print(f"\ncache: {cache.hits}/{total} hits in {cache.root}")


if __name__ == "__main__":
    main()
