"""The service layer's *only* window onto the host clock.

The simulation proper is forbidden from reading wall-clock time (the
``no-wall-clock`` source rule in ``tests/analysis/test_source_rules.py``
enforces it): simulated behaviour must derive every timestamp from
``Simulator.now`` so replays stay bit-identical.  The service layer is
different — job leases, heartbeat expiry, retry backoff and client poll
timeouts are *operational* time, invisible to simulation results and
cache digests.

All of the service package's host-clock reads are funnelled through
this one module, the only one the ``no-wall-clock`` rule allows, and
only for the two reads below.  Nothing returned from here may flow into
a :class:`ScenarioResult` or a cache digest; the separation is what
keeps the service wall-clocked and the simulation deterministic at the
same time.

Two clocks are exposed, used for different jobs:

* :func:`wall_s` — epoch seconds.  Used for lease expiry stamps and
  retry ``not_before`` gates, which must be comparable **across
  machines** sharing one job store (assumes loosely synchronised
  clocks; lease TTLs should dwarf the expected skew).
* :func:`monotonic_s` — monotonic seconds.  Used for single-process
  deadlines (client ``wait`` timeouts, worker idle exits) where clock
  adjustments must not fire or starve a timeout.
"""

from __future__ import annotations

import time


def wall_s() -> float:
    """Epoch seconds (cross-machine comparable; lease/backoff stamps)."""
    return time.time()


def monotonic_s() -> float:
    """Monotonic seconds (single-process deadlines and rate metering)."""
    return time.monotonic()


def sleep_s(seconds: float) -> None:
    """Block for ``seconds`` (plain ``time.sleep``; kept here so callers
    never need to import ``time`` and drift toward reading it)."""
    if seconds > 0:
        time.sleep(seconds)
