#!/usr/bin/env python3
"""Fig. 6(b)-style experiment: a TCP flow throttled by hidden saturating traffic.

Flow 1 is a three-hop TCP transfer; up to nine one-hop UDP sources that
its source cannot carrier-sense pound the medium near its relays and
destination.  The example sweeps the number of hidden flows and prints
flow 1's throughput for DCF, AFR and RIPPLE — reproducing the shape of
Fig. 6(b): everyone collapses as hidden load grows, RIPPLE leads at low
load and loses its edge when hidden collisions break its long mTXOPs.

One grid point of the same sweep, straight from the scenario API:

    python -m repro.experiments run --set topology=fig5b topology.n_hidden=4 scheme=R16

Run with:  python examples/hidden_terminals.py [duration_seconds]
(Or set REPRO_EXAMPLE_DURATION, e.g. in CI.)
"""

import os
import sys

from repro.experiments import SweepRunner
from repro.experiments.figures import FIGURES
from repro.experiments.report import render_panel


def main() -> None:
    default = float(os.environ.get("REPRO_EXAMPLE_DURATION", "0.5"))
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else default
    hidden_counts = (0, 2, 4, 6)
    (table,) = FIGURES["fig6b"].blocks(
        SweepRunner(), 1, duration, hidden_counts=hidden_counts
    ).values()
    print(
        render_panel(
            f"Fig. 6(b) — flow 1 throughput (Mb/s) vs number of hidden flows "
            f"({duration} s simulated)",
            table,
            list(hidden_counts),
        )
    )


if __name__ == "__main__":
    main()
