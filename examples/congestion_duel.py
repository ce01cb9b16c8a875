#!/usr/bin/env python3
"""Reno vs Cubic over RIPPLE: the same mesh, two congestion controllers.

The paper fixes TCP Reno and varies the MAC; with the transport registry
the complementary cut is one scenario away: hold the MAC at RIPPLE (R16)
on a 3-hop line and swap the congestion controller.  Any cell of this
duel is also reachable from the CLI:

    python -m repro.experiments run --set mac=ripple transport=cubic

Run with:  python examples/congestion_duel.py [duration_seconds]
(Or set REPRO_EXAMPLE_DURATION, e.g. in CI.)
"""

import os
import sys

from repro.experiments import SweepRunner
from repro.experiments.figures import FIGURES
from repro.experiments.report import render_panel


def main() -> None:
    default = float(os.environ.get("REPRO_EXAMPLE_DURATION", "1.0"))
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else default
    # The congestion entry's line panel: {transport: {scheme: value}} twice.
    throughput, retransmissions = FIGURES["congestion"].blocks(
        SweepRunner(), 1, duration,
        panels=("line",), transports=("reno", "cubic"), schemes=("D", "R16"),
    ).values()
    print(
        render_panel(
            f"Congestion duel — flow-1 Mb/s, 3-hop line, {duration} s simulated\n"
            "columns: MAC scheme (D = 802.11 DCF, R16 = RIPPLE)",
            throughput,
            ["D", "R16"],
        )
    )
    print()
    reno = throughput["reno"]["R16"]
    cubic = throughput["cubic"]["R16"]
    print(f"cubic vs reno over RIPPLE: {cubic / reno:.2f}x "
          f"({int(retransmissions['cubic']['R16'])} vs "
          f"{int(retransmissions['reno']['R16'])} retransmitted segments)")


if __name__ == "__main__":
    main()
