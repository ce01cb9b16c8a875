"""The network-layer packet: the unit handed from transport to MAC.

Following the paper's terminology (Section III-A2) we use *packet* for the
unit passed from the upper layer to the MAC and *frame* for what the MAC
hands to the PHY; with aggregation one frame carries several packets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One upper-layer packet.

    ``slots=True``: packets are allocated per transport segment and
    travel through every layer, so they stay ``__dict__``-free like the
    other hot-path records (``Event``, ``Transmission``, ``MacFrame``).

    Attributes
    ----------
    src, dst:
        Node ids of the end points (not of the current hop).
    size_bytes:
        Payload size as seen by the MAC (the paper uses 1000-byte TCP data
        packets and 40-byte TCP ACKs).
    flow_id:
        Identifier of the application flow the packet belongs to; used by the
        metrics collectors.
    seq:
        Flow-level sequence number (transport meaning, e.g. TCP segment index).
    kind:
        Free-form label such as ``"tcp-data"``, ``"tcp-ack"``, ``"udp"``.
    created_ns:
        Simulation time at which the application/transport created the packet;
        used for delay metrics.
    payload:
        Opaque transport-layer object (e.g. a ``TcpSegment``) carried end to
        end and handed back to the destination's transport layer.
    """

    src: int
    dst: int
    size_bytes: int
    flow_id: int = 0
    seq: int = 0
    kind: str = "data"
    created_ns: int = 0
    payload: Any = None
    uid: int = field(default_factory=lambda: next(_packet_ids))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind} flow={self.flow_id} seq={self.seq} "
            f"{self.src}->{self.dst} {self.size_bytes}B)"
        )
