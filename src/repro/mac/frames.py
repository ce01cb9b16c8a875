"""MAC frames and sub-packets.

A :class:`MacFrame` is what a MAC hands to the PHY; under aggregation it
carries several :class:`SubPacket` entries, each wrapping one upper-layer
:class:`~repro.packet.Packet` and protected by its own CRC (so the bit
error model can corrupt them independently, enabling the partial
retransmission behaviour of AFR and RIPPLE).

Opportunistic frames additionally carry a priority-ordered forwarder list
(destination first, per Section III-B2) and keep a stable ``frame_id``
across relays so that forwarders can recognise "the corresponding
transmissions from higher priority stations" and suppress their own.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.mac.timing import MacTiming, ack_bits
from repro.packet import Packet
from repro.phy.params import PhyParams

_frame_ids = itertools.count()


class FrameKind(enum.Enum):
    """The two MAC frame types the protocols under study exchange."""

    DATA = "data"
    ACK = "ack"


@dataclass(slots=True)
class SubPacket:
    """One upper-layer packet carried inside a (possibly aggregated) frame."""

    packet: Packet
    mac_seq: int
    bits: int
    retries: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubPacket(seq={self.mac_seq}, {self.packet.size_bytes}B, retries={self.retries})"


@dataclass(slots=True)
class MacFrame:
    """A frame on the air.

    Attributes
    ----------
    kind:
        DATA or ACK.
    origin, final_dst:
        MAC addresses (node ids) of the frame's end points.  For plain DCF
        these equal ``transmitter`` / ``receiver``; for opportunistic schemes
        they stay fixed while the frame is relayed hop by hop.
    transmitter:
        The station currently putting the frame on the air.
    receiver:
        Intended receiver of *this transmission* (``None`` for opportunistic
        frames, which are anycast to the forwarder list).
    forwarder_list:
        Priority-ordered relays, destination first (Section III-B2).
    subpackets:
        Aggregated upper-layer packets (DATA frames).
    acked_seqs:
        For ACK frames: the MAC sequence numbers being acknowledged.
    ack_for_frame:
        For ACK frames: the ``frame_id`` of the DATA frame being acknowledged.
    flush_below:
        Oldest MAC sequence number still outstanding at the origin; lets the
        receiver-side re-ordering queue (Rq) release packets below it even if
        an earlier sub-packet was dropped after exhausting retries.
    """

    kind: FrameKind
    origin: int
    final_dst: int
    transmitter: int
    receiver: Optional[int]
    header_bits: int
    subpackets: list[SubPacket] = field(default_factory=list)
    forwarder_list: Tuple[int, ...] = ()
    acked_seqs: Tuple[int, ...] = ()
    ack_for_frame: Optional[int] = None
    flush_below: int = 0
    retry: int = 0
    frame_id: int = field(default_factory=lambda: next(_frame_ids))

    # ------------------------------------------------------------------
    # Size / timing helpers
    # ------------------------------------------------------------------
    @property
    def payload_bits(self) -> int:
        return sum(subpacket.bits for subpacket in self.subpackets)

    @property
    def total_bits(self) -> int:
        return self.header_bits + self.payload_bits

    def airtime_ns(self, phy: PhyParams) -> int:
        """Airtime of this frame: data frames at the data rate, ACKs at the basic rate."""
        if self.kind is FrameKind.ACK:
            return phy.control_airtime_ns(self.total_bits)
        return phy.data_airtime_ns(self.total_bits)

    # ------------------------------------------------------------------
    # Forwarder-list helpers (Section III-B2 priority rule)
    # ------------------------------------------------------------------
    def priority_rank(self, node_id: int) -> Optional[int]:
        """Relay priority of ``node_id`` for this frame.

        Rank 0 is the destination (always the highest priority / closest to
        the MAC header); rank ``i >= 1`` is the i-th forwarder.  ``None`` if
        the node is not on the forwarder list and is not the destination.
        """
        if node_id == self.final_dst:
            return 0
        try:
            return 1 + self.forwarder_list.index(node_id)
        except ValueError:
            return None

    def relay_copy(self, transmitter: int) -> "MacFrame":
        """A copy of this frame as re-transmitted by a forwarder.

        The ``frame_id`` is preserved so every station can recognise relays of
        the same frame; only the transmitter changes.
        """
        return MacFrame(
            kind=self.kind,
            origin=self.origin,
            final_dst=self.final_dst,
            transmitter=transmitter,
            receiver=self.receiver,
            header_bits=self.header_bits,
            subpackets=list(self.subpackets),
            forwarder_list=self.forwarder_list,
            acked_seqs=self.acked_seqs,
            ack_for_frame=self.ack_for_frame,
            flush_below=self.flush_below,
            retry=self.retry,
            frame_id=self.frame_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MacFrame({self.kind.value} id={self.frame_id} {self.origin}->{self.final_dst} "
            f"tx={self.transmitter} n_sub={len(self.subpackets)})"
        )


def build_data_frame(
    timing: MacTiming,
    origin: int,
    final_dst: int,
    transmitter: int,
    receiver: Optional[int],
    subpackets: Sequence[SubPacket],
    forwarder_list: Tuple[int, ...] = (),
    flush_below: int = 0,
) -> MacFrame:
    """Convenience constructor for DATA frames with the right header size."""
    return MacFrame(
        kind=FrameKind.DATA,
        origin=origin,
        final_dst=final_dst,
        transmitter=transmitter,
        receiver=receiver,
        header_bits=timing.header_bits(len(forwarder_list)),
        subpackets=list(subpackets),
        forwarder_list=tuple(forwarder_list),
        flush_below=flush_below,
    )


def build_ack_frame(
    timing: MacTiming,
    origin: int,
    final_dst: int,
    transmitter: int,
    receiver: Optional[int],
    acked_seqs: Sequence[int],
    ack_for_frame: Optional[int],
    forwarder_list: Tuple[int, ...] = (),
) -> MacFrame:
    """Convenience constructor for MAC ACK frames.

    ``origin`` is the station generating the ACK (the data frame's
    destination) and ``final_dst`` the station that must ultimately receive
    it (the data frame's origin); for RIPPLE the ACK is relayed along the
    reversed forwarder list.
    """
    return MacFrame(
        kind=FrameKind.ACK,
        origin=origin,
        final_dst=final_dst,
        transmitter=transmitter,
        receiver=receiver,
        header_bits=ack_bits(len(forwarder_list)),
        subpackets=[],
        forwarder_list=tuple(forwarder_list),
        acked_seqs=tuple(acked_seqs),
        ack_for_frame=ack_for_frame,
    )
