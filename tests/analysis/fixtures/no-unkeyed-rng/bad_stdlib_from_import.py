# fixture-module: repro/traffic/fixture.py
"""Bad: importing a stdlib ``random`` function by name."""

from random import expovariate


def next_gap_s(rate):
    return expovariate(rate)
