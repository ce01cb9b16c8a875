# fixture-module: repro/mac/frames.py
"""Bad: ``slots=False`` (or no ``slots`` keyword) keeps ``__dict__``."""

import dataclasses


@dataclasses.dataclass(frozen=True, slots=False)
class Ack:
    src: int
    dst: int
