"""The MAC scheme registry: every forwarding scheme a scenario can install.

This is the registry behind the paper's figure legend: ``"dcf"`` (the D
bars), ``"afr"`` (A), ``"ripple1"`` (R1, mTXOP without aggregation),
``"ripple"`` (R16), plus ``"preexor"`` and ``"mcexor"`` for the
Section II comparison.  Each entry is a :class:`SchemeInfo` carrying the
factory that builds the scheme's MAC on one node, the display label and
whether the scheme consumes opportunistic forwarder lists.

A new scheme is one decorated factory::

    @register_mac_scheme("myscheme", label="mine", opportunistic=True)
    def _make_myscheme(network, node, **kwargs):
        return MyMac(network.sim, node.node_id, node.radio, ...)

after which ``MacSpec(name="myscheme")`` — and therefore
``--set mac=myscheme`` on the CLI — resolves with no other change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.registry import Registry

#: The registry of installable MAC/forwarding schemes.
MAC_SCHEMES = Registry("MAC scheme")


@dataclass(frozen=True)
class SchemeInfo:
    """Registry entry describing one forwarding scheme."""

    name: str
    label: str
    factory: Callable
    opportunistic: bool
    #: Keyword arguments the factory understands.
    params: tuple = ()

    def validate_kwargs(self, kwargs) -> None:
        """Reject MAC kwargs the scheme does not understand.

        Factories read their kwargs with ``kwargs.get``, so without this
        check a typo'd spec parameter (``max_agregation=8``) would silently
        fall back to the default and corrupt a sweep.
        """
        unknown = sorted(set(kwargs) - set(self.params))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for MAC scheme {self.name!r}; "
                f"accepted: {sorted(self.params)}"
            )


def register_mac_scheme(name: str, label: str, opportunistic: bool, params: tuple = ()):
    """Class decorator registering a node-level MAC factory as a scheme.

    The factory is called as ``factory(network, node, **mac_kwargs)`` for
    every node when the stack is installed; ``params`` names the keyword
    arguments it understands (used to reject typos at install time).
    """

    def decorate(factory: Callable) -> Callable:
        MAC_SCHEMES.add(name, SchemeInfo(name, label, factory, opportunistic, tuple(params)))
        return factory

    return decorate


@register_mac_scheme("dcf", label="D (802.11 DCF)", opportunistic=False, params=("max_aggregation",))
def _make_dcf(network, node, **kwargs):
    """Plain IEEE 802.11 DCF over predetermined next hops (the paper's D bars)."""
    from repro.mac.dcf import DcfMac

    return DcfMac(
        network.sim,
        node.node_id,
        node.radio,
        network.phy,
        network.timing,
        network.rng,
        max_aggregation=kwargs.get("max_aggregation", 1),
    )


@register_mac_scheme(
    "afr", label="A (AFR aggregation)", opportunistic=False, params=("max_aggregation",)
)
def _make_afr(network, node, **kwargs):
    """DCF with aggregated frames and partial block-ACK retransmission (AFR, the A bars)."""
    from repro.mac.afr import AfrMac

    return AfrMac(
        network.sim,
        node.node_id,
        node.radio,
        network.phy,
        network.timing,
        network.rng,
        max_aggregation=kwargs.get("max_aggregation", 16),
    )


@register_mac_scheme("ripple", label="R16 (RIPPLE)", opportunistic=True, params=("max_aggregation",))
def _make_ripple(network, node, **kwargs):
    """RIPPLE: opportunistic mTXOP relaying with two-way aggregation (the R16 bars)."""
    from repro.core.ripple import RippleMac

    return RippleMac(
        network.sim,
        node.node_id,
        node.radio,
        network.phy,
        network.timing,
        network.rng,
        max_aggregation=kwargs.get("max_aggregation", 16),
    )


@register_mac_scheme("ripple1", label="R1 (RIPPLE, no aggregation)", opportunistic=True)
def _make_ripple1(network, node, **kwargs):
    """RIPPLE with aggregation disabled — one packet per mTXOP frame (the R1 bars)."""
    return _make_ripple(network, node, max_aggregation=1)


@register_mac_scheme("preexor", label="preExOR", opportunistic=True)
def _make_preexor(network, node, **kwargs):
    """preExOR opportunistic forwarding (the Section II comparison baseline)."""
    from repro.routing.preexor import PreExorMac

    return PreExorMac(
        network.sim,
        node.node_id,
        node.radio,
        network.phy,
        network.timing,
        network.rng,
    )


@register_mac_scheme("mcexor", label="MCExOR", opportunistic=True)
def _make_mcexor(network, node, **kwargs):
    """MCExOR opportunistic forwarding (the Section II comparison baseline)."""
    from repro.routing.mcexor import McExorMac

    return McExorMac(
        network.sim,
        node.node_id,
        node.radio,
        network.phy,
        network.timing,
        network.rng,
    )


@register_mac_scheme(
    "rate_adapt",
    label="ARF rate adaptation (wraps another scheme)",
    opportunistic=False,
    params=("inner", "rates", "up_after", "down_after", "max_aggregation"),
)
def _make_rate_adapt(network, node, **kwargs):
    """ARF rate adaptation wrapped around another registered scheme (``inner``, default dcf)."""
    from repro.mac.rate_adapt import DEFAULT_DOWN_AFTER, DEFAULT_UP_AFTER, ArfRateController

    kwargs = dict(kwargs)
    inner_name = kwargs.pop("inner", "dcf")
    rates = kwargs.pop("rates", None)
    up_after = int(kwargs.pop("up_after", DEFAULT_UP_AFTER))
    down_after = int(kwargs.pop("down_after", DEFAULT_DOWN_AFTER))
    inner = MAC_SCHEMES.lookup(inner_name)
    if inner.factory is _make_rate_adapt:
        raise ValueError("rate_adapt cannot wrap itself")
    # What is left (max_aggregation) goes to the inner scheme, which must read it.
    inner.validate_kwargs(kwargs)
    mac = inner.factory(network, node, **kwargs)
    mac.rate_controller = ArfRateController(mac, rates=rates, up_after=up_after, down_after=down_after)
    # The NetworkAgent must feed the *inner* scheme what it expects
    # (forwarder lists for ripple, next hops for dcf/afr); install_stack
    # reads this attribute in preference to the wrapper's registry flag.
    mac.opportunistic_routing = inner.opportunistic
    return mac
