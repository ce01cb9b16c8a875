"""Per-layer view of one traced call: profiler self time and layer counters.

A *layer* is a package under ``src/repro/`` (``sim``, ``phy``, ``mac``,
``core``, ...); the top-level modules ``spec.py`` and ``serialization.py``
form the ``spec`` layer and every other top-level module is a layer named
after itself.

Self time comes from ``cProfile``.  Functions outside ``repro`` (the C
heap, numpy, networkx, json, ...) have no layer of their own: their self
time is charged to the repro layers that called them, split by the time
each caller edge accounts for, following callers up through further
non-repro frames.  Events are the calls ``Simulator.run`` makes, so an
engine-fired callback counts as an event of the layer it lives in.

Counters are read after the run from the stack's own stats objects
(``RadioStats``, ``ChannelStats``, ``MacStats``, ``RippleStats``,
``NetworkStats``) and from the per-flow transport counters in the
``ScenarioResult``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Optional, Tuple

#: Top-level modules folded into another layer's name.
_MODULE_LAYERS = {"serialization": "spec"}

#: Layers whose engine-fired callbacks are reported as events per simulated second.
EVENT_LAYERS = ("mac", "phy", "core", "mobility", "traffic")

#: Layers whose self-time share is reported for scenario runs.
SCENARIO_LAYERS = (
    "sim", "mac", "phy", "core", "transport", "routing", "mobility", "traffic", "topology",
)

#: Layers whose self-time share is reported for the harness pass.
HARNESS_LAYERS = ("experiments", "spec", "service")

_Func = Tuple[str, int, str]


class LayerFold:
    """Self time and engine events per layer from one ``cProfile`` run."""

    def __init__(self, profile: cProfile.Profile, package_dir: str) -> None:
        self._prefix = os.path.join(os.path.abspath(package_dir), "")
        self._stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
        self._charges: Dict[_Func, Dict[str, float]] = {}
        self.self_s: Dict[Optional[str], float] = {}
        for func, entry in self._stats.items():
            tt = entry[2]
            charge = self._charge(func, frozenset())
            for layer, weight in charge.items():
                self.self_s[layer] = self.self_s.get(layer, 0.0) + tt * weight
            unattributed = tt * (1.0 - sum(charge.values()))
            if unattributed > 0.0:
                self.self_s[None] = self.self_s.get(None, 0.0) + unattributed
        self.total_s = sum(self.self_s.values())
        self.events = self._engine_events()

    def layer_of(self, filename: str) -> Optional[str]:
        """The layer a source file belongs to, or None outside ``repro``."""
        if not filename.startswith(self._prefix):
            return None
        head = filename[len(self._prefix):].split(os.sep, 1)[0]
        name = head[:-3] if head.endswith(".py") else head
        return _MODULE_LAYERS.get(name, name)

    def _charge(self, func: _Func, seen: frozenset) -> Dict[str, float]:
        """How ``func``'s self time splits over layers (weights sum to <= 1)."""
        cached = self._charges.get(func)
        if cached is not None:
            return cached
        layer = self.layer_of(func[0])
        if layer is not None:
            self._charges[func] = {layer: 1.0}
            return self._charges[func]
        all_callers = self._stats[func][4] if func in self._stats else {}
        # A recursive edge says nothing about which layer asked for the
        # work, so the split goes over the callers not already on the path.
        callers = {c: e for c, e in all_callers.items() if c != func and c not in seen}
        if not callers:
            return {}  # a profiler root
        # Split by the self time each caller edge accounts for; edges too
        # short to time fall back to their call counts.
        column = 2 if sum(edge[2] for edge in callers.values()) > 0 else 1
        total = sum(edge[column] for edge in callers.values())
        charge: Dict[str, float] = {}
        for caller, edge in callers.items():
            share = edge[column] / total if total else 0.0
            for caller_layer, weight in self._charge(caller, seen | {func}).items():
                charge[caller_layer] = charge.get(caller_layer, 0.0) + share * weight
        if not any(c in seen for c in all_callers):
            self._charges[func] = charge  # independent of the path that reached it
        return charge

    def _engine_events(self) -> Dict[str, int]:
        """Calls made by ``Simulator.run``, per callee layer."""
        run = next(
            (
                func for func in self._stats
                if func[2] == "run" and func[0].endswith(os.path.join("sim", "engine.py"))
                and self.layer_of(func[0]) == "sim"
            ),
            None,
        )
        events: Dict[str, int] = {}
        if run is None:
            return events
        for func, (_cc, _nc, _tt, _ct, callers) in self._stats.items():
            edge = callers.get(run)
            layer = self.layer_of(func[0])
            if edge is not None and layer is not None:
                events[layer] = events.get(layer, 0) + edge[1]
        return events

    def share(self, layer: Optional[str]) -> float:
        """Fraction of all profiled self time charged to ``layer`` (None: to no layer)."""
        return self.self_s.get(layer, 0.0) / self.total_s if self.total_s > 0 else 0.0

    def named_share(self) -> float:
        """Fraction of self time charged to some named layer."""
        return 1.0 - self.share(None) if self.total_s > 0 else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def scenario_counters(network, result, duration_s: float) -> Dict[str, float]:
    """Simulated statistics of one run; exact for a fixed seed."""
    radios = [node.radio.stats for node in network.nodes.values()]
    macs = [node.mac.stats for node in network.nodes.values()]
    ripple = [
        node.mac.ripple_stats for node in network.nodes.values()
        if hasattr(node.mac, "ripple_stats")
    ]
    agents = [node.network.stats for node in network.nodes.values()]
    channel = network.channel.stats
    tcp = [flow for flow in result.flows if flow.kind == "tcp"]
    data_frames = sum(m.data_frames_sent for m in macs)
    enqueued = sum(m.packets_enqueued for m in macs)
    queue_drops = sum(m.packets_dropped_queue for m in macs)
    collided = sum(r.frames_collided for r in radios)
    receptions = collided + sum(r.frames_decoded + r.frames_header_error for r in radios)
    relays = sum(r.data_relays + r.ack_relays + r.relays_suppressed for r in ripple)
    return {
        "sim.events_per_sim_s": result.events_processed / duration_s,
        "mac.retx_frac": _ratio(sum(m.retransmissions for m in macs), data_frames),
        "mac.mean_aggregation": _ratio(sum(m.subpackets_sent for m in macs), data_frames),
        "mac.queue_drop_frac": _ratio(queue_drops, enqueued + queue_drops),
        "phy.tx_per_sim_s": channel.transmissions / duration_s,
        "phy.receivers_per_tx": _ratio(channel.deliveries_attempted, channel.transmissions),
        "phy.collision_frac": _ratio(collided, receptions),
        "phy.airtime_frac": _ratio(
            sum(r.airtime_tx_ns for r in radios), len(radios) * duration_s * 1e9
        ),
        "core.mtxop_per_sim_s": sum(r.mtxop_started for r in ripple) / duration_s,
        "core.relay_suppressed_frac": _ratio(sum(r.relays_suppressed for r in ripple), relays),
        "transport.retx_frac": _ratio(
            sum(f.retransmissions for f in tcp), sum(f.packets_sent for f in tcp)
        ),
        "transport.reordered_frac": _ratio(
            sum(f.reordered for f in tcp), sum(f.packets_received for f in tcp)
        ),
        "routing.forwarded_per_sim_s": sum(a.forwarded for a in agents) / duration_s,
        "routing.no_route": float(sum(a.no_route for a in agents)),
        "traffic.goodput_mbps": sum(f.throughput_mbps for f in result.flows),
    }
