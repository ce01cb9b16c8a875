# fixture-module: repro/routing/fixture.py
"""Bad: stdlib ``random`` under another name is still process-global state."""

import random as tiebreak


def pick(candidates):
    return tiebreak.choice(candidates)
