# fixture-module: repro/core/fixture.py
"""Good: a name rebound to a sorted list is no longer a set."""


def relays_to_wake(forwarders):
    pending = set(forwarders)
    pending = sorted(pending)
    for relay in pending:
        relay.wake()
