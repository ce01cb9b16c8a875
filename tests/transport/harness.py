"""Forced-drop trace harness: a deterministic two-host pipe for TCP episodes.

The trajectory tests need to march a congestion controller through
*exactly* the episode they name — triple-dupACK, partial ACK, full-window
loss, reorder-without-loss — and assert the resulting cwnd/ssthresh
trace against hand-computed values.  A real MAC/PHY stack underneath
would make that impossible (stochastic fades, contention timing), so
:class:`TcpPipe` wires a real :class:`~repro.transport.tcp.TcpSender`,
:class:`~repro.transport.tcp.TcpSink` and two real
:class:`~repro.transport.host.TransportHost` instances over a fake
network that is nothing but a fixed one-way latency.  The RTT is exactly
``2 * latency_ns``, nothing is ever lost or re-ordered unless the pipe's
:class:`DropScript` says so, and every run is bit-deterministic.

A cwnd recorder rides as a second flow handler on the sender's host;
handlers run in registration order, so each trace sample observes the
window *after* the sender processed that ACK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.units import ms
from repro.transport.congestion import CongestionController
from repro.transport.host import TransportHost
from repro.transport.tcp import TcpAck, TcpSender, TcpSink

#: Default one-way pipe latency; RTT = 2 x this = 10 ms, far below min RTO.
DEFAULT_LATENCY_NS = ms(5)

#: Fate :meth:`DropScript.fate` returns for a packet to swallow; 0 passes it,
#: and a positive fate is a delay in ns.
DROP = -1


class DropScript:
    """Scripted per-packet fates (drop, delay or pass) for one direction of the pipe.

    Rules are keyed by packet ``kind`` and ``seq`` with an occurrence
    budget, so "drop the first copy of segment 7 but let the
    retransmission through" is ``script.drop(7)``: the second
    transmission of seq 7 no longer matches the spent rule.  A drop is a
    loss the sender never sees, like a queue overflow; a delay re-orders
    the packet behind later ones without losing it, the preExOR/MCExOR
    signature the paper measures.
    """

    def __init__(self) -> None:
        # (kind, seq) -> pending [fate, remaining occurrences], consumed front-first.
        self._rules: Dict[Tuple[str, int], List[List[int]]] = {}
        self.dropped = 0
        self.delayed = 0

    def drop(self, seq: int, kind: str = "tcp-data", times: int = 1) -> "DropScript":
        """Drop the next ``times`` packets of ``kind`` carrying ``seq``."""
        if times > 0:
            self._rules.setdefault((kind, seq), []).append([DROP, times])
        return self

    def delay(
        self, seq: int, delay_ns: int, kind: str = "tcp-data", times: int = 1
    ) -> "DropScript":
        """Hold the next ``times`` packets of ``kind``/``seq`` for ``delay_ns``."""
        if delay_ns <= 0:
            raise ValueError(f"delay_ns must be positive, got {delay_ns}")
        if times > 0:
            self._rules.setdefault((kind, seq), []).append([int(delay_ns), times])
        return self

    def fate(self, packet) -> int:
        """``DROP``, a positive delay in ns, or 0 to pass the packet."""
        pending = self._rules.get((packet.kind, packet.seq))
        if not pending:
            return 0
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


class _PipeEndpoint:
    """One direction of the pipe: delivers every packet after a fixed latency.

    With a ``script``, each packet sent first takes its fate from it: a
    drop swallows the packet, and a delay sends it after the delay.
    """

    def __init__(self, sim: Simulator, latency_ns: int, script: Optional[DropScript] = None):
        self.sim = sim
        self.latency_ns = latency_ns
        self.script = script
        self._deliver = None
        self.peer: Optional["_PipeEndpoint"] = None

    def set_local_delivery(self, callback) -> None:
        self._deliver = callback

    def send(self, packet) -> bool:
        fate = 0 if self.script is None else self.script.fate(packet)
        if fate == DROP:
            return True  # swallowed: the sender believes it left
        if fate > 0:
            self.sim.schedule(fate, self._transmit, packet)
            return True
        return self._transmit(packet)

    def _transmit(self, packet) -> bool:
        peer = self.peer
        self.sim.schedule(self.latency_ns, lambda: peer._deliver(packet))
        return True


@dataclass
class TraceSample:
    """One observed ACK at the sender, with the post-update window state."""

    now_ns: int
    ack: int
    cwnd: float
    ssthresh: float
    in_recovery: bool


class TcpPipe:
    """A sender/sink pair over a scripted, loss-free, fixed-latency pipe."""

    def __init__(
        self,
        controller: Optional[CongestionController] = None,
        latency_ns: int = DEFAULT_LATENCY_NS,
        awnd_segments: int = 64,
        **sender_kwargs,
    ) -> None:
        self.sim = Simulator()
        self.script = DropScript()
        forward = _PipeEndpoint(self.sim, latency_ns, self.script)
        backward = _PipeEndpoint(self.sim, latency_ns)
        forward.peer, backward.peer = backward, forward
        self.src_host = TransportHost(0, forward)
        self.dst_host = TransportHost(1, backward)
        self.sender = TcpSender(
            self.sim,
            self.src_host,
            flow_id=1,
            dst=1,
            awnd_segments=awnd_segments,
            controller=controller,
            **sender_kwargs,
        )
        self.sink = TcpSink(self.sim, self.dst_host, flow_id=1, peer=0)
        self.trace: List[TraceSample] = []
        # Registered after the sender: handlers run in registration order,
        # so every sample sees the post-ACK controller state.
        self.src_host.register_flow(1, self._record)

    def _record(self, packet) -> None:
        if not isinstance(packet.payload, TcpAck):
            return
        self.trace.append(
            TraceSample(
                now_ns=self.sim.now,
                ack=packet.payload.ack,
                cwnd=self.sender.cwnd,
                ssthresh=self.sender.ssthresh,
                in_recovery=self.sender.controller.in_recovery,
            )
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_seconds(self, duration_s: float) -> None:
        self.sim.run(until=self.sim.now + int(duration_s * 1_000_000_000))

    def cwnd_trace(self) -> List[Tuple[int, float]]:
        """``(ack, cwnd)`` pairs for every ACK the sender processed."""
        return [(sample.ack, sample.cwnd) for sample in self.trace]
