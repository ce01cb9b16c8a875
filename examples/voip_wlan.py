#!/usr/bin/env python3
"""Table III-style VoIP experiment: how many calls can the mesh carry?

Places 96 kb/s on-off VoIP streams (20 ms packetisation, exponential
on/off with 1.5 s means) on the Fig. 1 topology at a 6 Mb/s PHY and scores
each flow with the E-model (R-factor -> MoS), exactly as Section IV-E
describes: packets later than the 52 ms wireless budget count as losses
against a 177 ms mouth-to-ear delay.

The VoIP workload is just a traffic kind in the scenario API — the same
cell is one CLI invocation away:

    python -m repro.experiments run --set topology=voip scheme=D \
        phy=low_rate flows=1,2,3,4,5,6,7,8,9,10

Run with:  python examples/voip_wlan.py [duration_seconds]
(Or set REPRO_EXAMPLE_DURATION, e.g. in CI.)
"""

import os
import sys

from repro.experiments import SweepRunner
from repro.experiments.report import render_panel
from repro.experiments.voip import voip_grid


def mean(values) -> float:
    """The mean over a run's calls; a run that scored none counts as the worst, 1.0."""
    return sum(values) / len(values) if values else 1.0


def main() -> None:
    default = float(os.environ.get("REPRO_EXAMPLE_DURATION", "1.5"))
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else default
    groups = (10, 20)
    configs, keys = voip_grid(1e-6, flow_groups=groups, duration_s=duration, seed=1)
    mos, loss = {}, {}
    for (label, calls), result in zip(keys, SweepRunner().run(configs)):
        qualities = result.voip_quality.values()
        mos.setdefault(label, {})[calls] = mean([quality.mos for quality in qualities])
        loss.setdefault(label, {})[calls] = mean([quality.loss_rate for quality in qualities])
    print(
        render_panel(
            f"Table III (BER 1e-6, 6 Mb/s PHY, {duration} s simulated) — mean MoS\n"
            "columns: number of active VoIP calls",
            mos,
            list(groups),
        )
    )
    print()
    print("Effective loss rate (late + lost packets):")
    print(render_panel("", loss, list(groups)))
    print("\nMoS scale: 1 impossible, 2 very annoying, 3 annoying, 4 fair, 4.5 perfect")


if __name__ == "__main__":
    main()
