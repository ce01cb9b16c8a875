"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper (``python -m
repro.experiments list`` prints the index).  Simulated durations are scaled down from
the paper's 10 s so the whole harness completes in minutes; the asserted
properties are the orderings/shapes the paper reports, which are stable at
these durations.  Every benchmark runs exactly one round — the interesting
output is the reproduced numbers (attached as ``extra_info``), not the
wall-clock variance of the simulator.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark and return its result."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
