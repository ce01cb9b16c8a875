"""Deterministic scripted fault injection at the transport/network seam.

The loss-recovery trace tests need to drive a congestion controller
through *named* episodes — "drop segment 7 once", "drop the whole
window", "delay segment 3 past its successors" — with nothing stochastic
in the loop.  A :class:`DropScript` attached to a
:class:`~repro.transport.host.TransportHost` intercepts every outgoing
packet and assigns it a fate:

* **pass** — hand the packet to the network layer unchanged;
* **drop** — swallow it silently (the network never sees it), exactly
  like a queue-overflow or retry-exhaustion loss;
* **delay** — hold it for a scripted number of nanoseconds, then send it,
  which re-orders it behind later packets without losing anything (the
  preExOR/MCExOR signature the paper measures).

Rules are keyed by packet ``kind`` and ``seq`` with an occurrence budget,
so "drop the first copy of segment 7 but let the retransmission through"
is ``script.drop(7)`` — the second transmission of seq 7 no longer
matches the exhausted rule.  Scripts are pure bookkeeping driven by the
simulation clock; attaching one never perturbs runs that do not use it
(the hot-path cost when absent is a single ``is None`` check).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.packet import Packet

#: Fate returned by :meth:`DropScript.fate` for a packet to forward unchanged.
PASS = 0
#: Fate returned by :meth:`DropScript.fate` for a packet to swallow.
DROP = -1


class DropScript:
    """Scripted per-packet fates (drop / delay / pass) for one host's sends."""

    __slots__ = ("_rules", "dropped", "delayed", "passed")

    def __init__(self) -> None:
        # (kind, seq) -> list of pending fates, consumed front-first; each
        # entry is (fate, remaining_occurrences).
        self._rules: Dict[Tuple[str, int], List[List[int]]] = {}
        self.dropped = 0
        self.delayed = 0
        self.passed = 0

    # ------------------------------------------------------------------
    # Script construction
    # ------------------------------------------------------------------
    def drop(self, seq: int, kind: str = "tcp-data", times: int = 1) -> "DropScript":
        """Drop the next ``times`` packets of ``kind`` carrying ``seq``."""
        if times > 0:
            self._rules.setdefault((kind, seq), []).append([DROP, times])
        return self

    def delay(self, seq: int, delay_ns: int, kind: str = "tcp-data", times: int = 1) -> "DropScript":
        """Hold the next ``times`` packets of ``kind``/``seq`` for ``delay_ns``."""
        if delay_ns <= 0:
            raise ValueError(f"delay_ns must be positive, got {delay_ns}")
        if times > 0:
            self._rules.setdefault((kind, seq), []).append([int(delay_ns), times])
        return self

    # ------------------------------------------------------------------
    # Consumption (called by TransportHost.send)
    # ------------------------------------------------------------------
    def fate(self, packet: Packet) -> int:
        """Return ``DROP`` (-1), a positive delay in ns, or ``PASS`` (0)."""
        pending = self._rules.get((packet.kind, packet.seq))
        if not pending:
            self.passed += 1
            return PASS
        entry = pending[0]
        entry[1] -= 1
        if entry[1] <= 0:
            pending.pop(0)
        if entry[0] == DROP:
            self.dropped += 1
            return DROP
        self.delayed += 1
        return entry[0]

    @property
    def exhausted(self) -> bool:
        """True once every scripted fate has been consumed."""
        return not any(self._rules.values())
