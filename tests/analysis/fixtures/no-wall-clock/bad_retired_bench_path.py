# fixture-module: repro/experiments/bench.py
"""Bad: the retired timing harness's path carries no exemption any more."""

import time


def measure(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
