# fixture-module: repro/experiments/fixture.py
"""Bad: the rule covers the whole package, not only the event-loop layers."""


def summarize(tags):
    return [t for t in set(tags)]
