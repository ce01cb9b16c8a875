#!/usr/bin/env python3
"""Reproduce a Fig. 3-style panel: the Fig. 1 mesh, three flows, five schemes.

Runs the paper's long-lived TCP comparison on the multi-flow topology of
Fig. 1 with the ROUTE0 predetermined routes (Table II), activating flow 1,
then flows 1+2, then all three flows, and prints the same bars Fig. 3(a)
plots: S (direct shortest path), D (802.11 DCF), R1 (RIPPLE without
aggregation), A (AFR) and R16 (RIPPLE).

The scheme labels are a thin alias layer over the component registries —
"R16" is exactly `mac=ripple routing=static`, so any bar of this panel is
also reachable as:

    python -m repro.experiments run --set topology=fig1 mac=ripple flows=1,2,3

Run with:  python examples/mesh_long_lived_tcp.py [duration_seconds]
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
    # Fig. 3's table entry, narrowed to its ROUTE0 panel: {scheme: {flows: Mb/s}}.
    (panel,) = FIGURES["fig3"].blocks(SweepRunner(), 1, duration, panels=("ROUTE0",)).values()
    print(
        render_panel(
            f"Fig. 3(a) — total TCP throughput (Mb/s), ROUTE0, BER 1e-6, {duration} s simulated\n"
            "columns: number of simultaneously active flows",
            panel,
            [1, 2, 3],
        )
    )
    print()
    r16 = panel["R16"][3]
    dcf = panel["D"][3]
    print(f"RIPPLE vs DCF with all three flows active: {r16 / dcf:.1f}x")


if __name__ == "__main__":
    main()
