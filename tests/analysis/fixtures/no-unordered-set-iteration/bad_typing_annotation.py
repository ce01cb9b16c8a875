# fixture-module: repro/mobility/fixture.py
"""Bad: a ``typing.FrozenSet[...]`` annotation marks the name as a set."""

import typing


def waypoints(marks):
    visited: typing.FrozenSet[int] = marks
    return tuple(visited)
