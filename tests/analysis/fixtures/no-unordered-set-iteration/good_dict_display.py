# fixture-module: repro/traffic/fixture.py
"""Good: dicts keep insertion order; ``{}`` and dict comprehensions are not sets."""


def flows_by_id(flows):
    table = {}
    for flow in flows:
        table[flow.id] = flow
    rates = {key: flow.rate for key, flow in table.items()}
    return [rates[key] for key in table]
