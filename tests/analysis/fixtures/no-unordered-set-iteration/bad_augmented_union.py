# fixture-module: repro/core/fixture.py
"""Bad: ``|=`` keeps a name a set, so iterating it later is still hash order."""


def relays_to_wake(forwarders, overheard):
    pending = set(forwarders)
    pending |= overheard
    for relay in pending:
        relay.wake()
