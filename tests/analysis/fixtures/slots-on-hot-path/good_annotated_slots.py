# fixture-module: repro/transport/udp.py
"""Good: an annotated ``__slots__`` is a ``__slots__``."""

from typing import Tuple


class Datagram:
    __slots__: Tuple[str, ...] = ("flow", "seq")
