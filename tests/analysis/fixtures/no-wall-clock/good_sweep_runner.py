# fixture-module: repro/experiments/parallel.py
"""Good: the sweep runner is exempt, so it may time the work it fans out."""

import time


def timed_sweep(run, configs):
    start = time.perf_counter()
    results = [run(config) for config in configs]
    return results, time.perf_counter() - start
