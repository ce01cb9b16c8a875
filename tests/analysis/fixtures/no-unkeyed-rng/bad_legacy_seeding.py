# fixture-module: repro/transport/fixture.py
"""Bad: numpy's legacy seeding and ``RandomState``, by the full module path."""

import numpy


def reseed(seed):
    numpy.random.seed(seed)
    return numpy.random.RandomState(seed)
