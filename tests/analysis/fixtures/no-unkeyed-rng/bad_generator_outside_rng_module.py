# fixture-module: repro/phy/fixture.py
"""Bad: what ``sim/rng.py`` is allowed to build is flagged in any other module."""

import numpy as np


def fading_stream(key):
    return np.random.Generator(np.random.Philox(key))
