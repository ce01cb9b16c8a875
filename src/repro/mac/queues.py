"""MAC-layer queues.

Two queue types appear in the paper:

* the **interface queue** between the network layer and the MAC (Table I:
  50 packets, drop-tail), used by every scheme, and
* RIPPLE's **receiving queue (Rq)** which re-orders partially corrupted
  aggregates before passing packets to the upper layer (Section III-B6);
  that one lives with the RIPPLE MAC in :mod:`repro.core.ripple` and uses
  :class:`ReorderBuffer` from this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.packet import Packet


@dataclass
class QueueStats:
    """Counters for one drop-tail interface queue."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0


class DropTailQueue:
    """Bounded FIFO of (packet, next-hop/route metadata) entries."""

    def __init__(self, capacity: int = 50) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.stats = QueueStats()
        self._entries: Deque[Tuple[Packet, object]] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, packet: Packet, metadata: object = None) -> bool:
        """Append a packet; returns False (and counts a drop) when full."""
        if self.is_full:
            self.stats.dropped += 1
            return False
        self._entries.append((packet, metadata))
        self.stats.enqueued += 1
        return True

    def pop(self) -> Tuple[Packet, object]:
        """Remove and return the head entry."""
        packet, metadata = self._entries.popleft()
        self.stats.dequeued += 1
        return packet, metadata

    def peek(self) -> Tuple[Packet, object]:
        """Return the head entry without removing it."""
        return self._entries[0]

    def pop_matching(
        self, predicate: Callable[[Packet, object], bool], limit: int
    ) -> List[Tuple[Packet, object]]:
        """Remove up to ``limit`` entries satisfying ``predicate``, preserving order.

        Used to assemble aggregated frames: all sub-packets of one frame must
        share the same next hop (or forwarder list), so the builder skims the
        queue for matching entries without disturbing the rest.  The MACs ask
        for entries like the head one, so matching entries are popped off the
        head in place, and the queue is rebuilt only once a non-matching entry
        has to be skipped.
        """
        entries = self._entries
        taken: List[Tuple[Packet, object]] = []
        while entries and len(taken) < limit and predicate(*entries[0]):
            taken.append(entries.popleft())
        if entries and len(taken) < limit:
            remaining: Deque[Tuple[Packet, object]] = deque()
            while entries and len(taken) < limit:
                entry = entries.popleft()
                (taken if predicate(*entry) else remaining).append(entry)
            remaining.extend(entries)
            self._entries = remaining
        self.stats.dequeued += len(taken)
        return taken

    def __iter__(self) -> Iterable[Tuple[Packet, object]]:
        return iter(self._entries)


class ReorderBuffer:
    """In-order release of MAC sequence numbers (RIPPLE's Rq).

    The origin MAC numbers sub-packets consecutively per destination; the
    destination releases them to the upper layer strictly in order, holding
    back later packets while an earlier one is still being retransmitted.
    A ``flush_below`` watermark carried in each data frame lets the buffer
    skip sequence numbers the origin has given up on (retry limit exceeded),
    so a dropped packet cannot stall the flow forever.
    """

    def __init__(self) -> None:
        self._next_expected: Dict[int, int] = {}
        self._held: Dict[int, Dict[int, Packet]] = {}

    def accept(
        self, origin: int, mac_seq: int, packet: Optional[Packet], flush_below: int = 0
    ) -> List[Packet]:
        """Insert one received sub-packet and return whatever is now releasable.

        Pass ``packet=None`` to only advance the watermark (used when a data
        frame is heard whose sub-packets were all corrupted but whose header,
        carrying ``flush_below``, survived).
        """
        held = self._held.setdefault(origin, {})
        next_expected = self._next_expected.get(origin, 0)
        released: List[Packet] = []
        is_duplicate = packet is None or mac_seq < next_expected or mac_seq in held
        if not is_duplicate:
            held[mac_seq] = packet
        if flush_below > next_expected:
            # The origin has moved on: release what we hold below the
            # watermark (in order) and never wait for the missing ones.
            for seq in sorted(held):
                if seq < flush_below:
                    released.append(held.pop(seq))
            next_expected = flush_below
        while next_expected in held:
            released.append(held.pop(next_expected))
            next_expected += 1
        self._next_expected[origin] = next_expected
        return released

    def flush(self, origin: int, flush_below: int) -> List[Packet]:
        """Release everything below the watermark without a new packet arriving."""
        return self.accept(origin, mac_seq=-1, packet=None, flush_below=flush_below)

    def pending(self, origin: int) -> int:
        """Number of packets currently held back for ``origin``."""
        return len(self._held.get(origin, {}))

    def next_expected(self, origin: int) -> int:
        """Next in-order MAC sequence number awaited from ``origin``."""
        return self._next_expected.get(origin, 0)
