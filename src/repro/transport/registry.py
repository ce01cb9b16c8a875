"""The transport scheme registry: named congestion controllers, per flow.

The seventh component registry.  Each entry is a factory ``scheme(**params)
-> CongestionController`` returning a *fresh* controller instance — state
is per flow, so every :class:`~repro.transport.tcp.TcpSender` calls the
factory once and owns the result.  A scenario names one scheme for all
its TCP-backed flows (:class:`~repro.spec.TransportSpec`, ``--set
transport=cubic``), with ``reno`` the default that keeps every
pre-registry result bit-identical.
"""

from __future__ import annotations

from repro.registry import Registry
from repro.transport.congestion import (
    CongestionController,
    CubicController,
    NewRenoController,
    RenoController,
    TahoeController,
)

#: The registry of congestion-controller factories.
TRANSPORT_SCHEMES = Registry("transport scheme")


def register_transport(name: str):
    """Decorator registering a ``scheme(**params) -> CongestionController`` factory."""
    return TRANSPORT_SCHEMES.register(name)


def build_controller(name: str, **params) -> CongestionController:
    """Instantiate the controller registered under ``name`` with ``params``."""
    factory = TRANSPORT_SCHEMES.lookup(name)
    return factory(**params)


@register_transport("reno")
def _reno() -> CongestionController:
    """TCP Reno with the seed's partial-ACK retention (the bit-identical default)."""
    return RenoController()


@register_transport("tahoe")
def _tahoe() -> CongestionController:
    """TCP Tahoe: fast retransmit but no fast recovery — every loss slow-starts."""
    return TahoeController()


@register_transport("newreno")
def _newreno() -> CongestionController:
    """NewReno per RFC 6582: pure partial-ACK deflation, burst-avoiding exit."""
    return NewRenoController()


@register_transport("cubic")
def _cubic(*, c: float = 0.4, beta: float = 0.7, fast_convergence: bool = True) -> CongestionController:
    """CUBIC (RFC 8312): sim-time window growth, fast convergence, TCP-friendly region."""
    return CubicController(c=float(c), beta=float(beta), fast_convergence=bool(fast_convergence))
