# fixture-module: repro/service/clock.py
"""Good: the service's clock shim is the one place its operational time is read."""

import time


def monotonic_s():
    return time.monotonic()
