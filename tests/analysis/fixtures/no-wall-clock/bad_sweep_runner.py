# fixture-module: repro/experiments/parallel.py
"""Bad: the sweep runner reads no clock, so it carries no allowance either."""

import time


def timed_sweep(run, configs):
    start = time.perf_counter()
    results = [run(config) for config in configs]
    return results, time.perf_counter() - start
