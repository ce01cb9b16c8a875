# fixture-module: repro/transport/tcp.py
"""Good: protocols, named tuples and ABCs manage their own storage."""

import abc
from typing import NamedTuple, Protocol


class Sink(Protocol):
    def deliver(self, segment) -> None: ...


class SegmentKey(NamedTuple):
    flow: int
    seq: int


class Sender(abc.ABC):
    @abc.abstractmethod
    def send(self): ...
