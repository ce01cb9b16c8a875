"""A wireless station: radio + MAC + network agent + transport + applications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


@dataclass
class Node:
    """Container wiring together one station's protocol stack.

    The concrete layer objects are created by
    :class:`~repro.topology.network.WirelessNetwork`; this class only holds
    them together so applications and experiments have one handle per
    station.
    """

    node_id: int
    position: Tuple[float, float]
    radio: Any = None
    mac: Any = None
    network: Any = None
    transport: Any = None
    applications: List[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.position = (float(self.position[0]), float(self.position[1]))

    def move_to(self, position: Tuple[float, float]) -> None:
        """Relocate the station, keeping its radio's geometry in sync."""
        self.position = (float(position[0]), float(position[1]))
        if self.radio is not None:
            self.radio.move_to(self.position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id} @ {self.position})"
