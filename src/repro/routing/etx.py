"""ETX — expected transmission count link metric (De Couto et al. [14]).

ExOR and MORE select and prioritise forwarders by ETX towards the
destination; the paper keeps forwarder selection orthogonal to RIPPLE but
uses ETX-style selection when no predetermined route is given.  Here ETX
for a link is ``1 / (p_f * p_r)`` where ``p_f`` and ``p_r`` are the
forward and reverse delivery probabilities; with our symmetric shadowing
channel ``p_f == p_r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.phy.channel import WirelessChannel
from repro.routing.graph import Graph


@dataclass(frozen=True)
class EtxParams:
    """Knobs for graph construction from the physical layer."""

    #: Links with delivery probability below this are not usable at all.
    min_delivery_probability: float = 0.05
    #: Frame size (bits) at which delivery probability is evaluated.
    probe_bits: int = 8000


def link_etx(delivery_probability: float, reverse_probability: Optional[float] = None) -> float:
    """ETX of a link: ``1 / (p_f * p_r)`` (De Couto et al.).

    ``delivery_probability`` is the forward delivery probability ``p_f``.
    When ``reverse_probability`` (``p_r``) is omitted the link is treated
    as symmetric (``p_r == p_f``) — the stationary-shadowing case this
    module was originally written for.  Mobility makes asymmetry real
    (the two directions can be probed at different times/positions), so
    callers with direction-resolved estimates pass both.
    """
    p_forward = delivery_probability
    p_reverse = delivery_probability if reverse_probability is None else reverse_probability
    if p_forward <= 0.0 or p_reverse <= 0.0:
        return float("inf")
    return 1.0 / (p_forward * p_reverse)


def build_connectivity_graph(
    channel: WirelessChannel, params: EtxParams | None = None
) -> Graph:
    """Build the connectivity :data:`~repro.routing.graph.Graph` of ``channel``.

    Each edge carries ``delivery_probability``, ``etx``, ``hops`` (1) and
    ``distance``; a pair below ``min_delivery_probability`` gets none.
    Nodes enter in radio order and edges in radio-pair order, which fixes
    how the searches of :mod:`repro.routing.graph` break ties.

    The closed-form per-link delivery probability (shadowing outage times
    BER frame success) comes from the channel; the per-frame simulation
    never consults this graph — it is only route discovery, mirroring how
    ETX probes would be used in a deployment.
    """
    params = params or EtxParams()
    radios = channel.radios
    graph: Graph = {radio.node_id: {} for radio in radios}
    for i, a in enumerate(radios):
        for b in radios[i + 1 :]:
            probability = channel.link_delivery_probability(a, b, params.probe_bits)
            if probability < params.min_delivery_probability:
                continue
            graph[a.node_id][b.node_id] = graph[b.node_id][a.node_id] = {
                "delivery_probability": probability,
                "etx": link_etx(probability),
                "hops": 1.0,
                "distance": channel.distance(a, b),
            }
    return graph
