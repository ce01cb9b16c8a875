"""Declarative scenarios: name-addressed components, JSON all the way.

This module is the public face of the composable scenario API.  Each
pluggable layer has a small serializable spec that names a registered
component plus its parameters:

* :class:`MacSpec` — a MAC/forwarding scheme from
  :data:`repro.mac.registry.MAC_SCHEMES` (``dcf``, ``afr``, ``ripple``,
  ``ripple1``, ``preexor``, ``mcexor``, the ``rate_adapt`` ARF wrapper);
* :class:`RoutingSpec` — a routing strategy from
  :data:`repro.routing.registry.ROUTING_STRATEGIES` (``static``,
  ``shortest_path``, ``adaptive_etx``/``etx``);
* :class:`TrafficSpec` — a traffic kind from
  :data:`repro.traffic.registry.TRAFFIC_KINDS` (``tcp``, ``web``,
  ``voip``, ``udp-saturating``, ``poisson``) or the default ``"flows"``,
  meaning "drive each flow according to its own :class:`FlowSpec.kind`";
* :class:`TransportSpec` — a congestion controller from
  :data:`repro.transport.registry.TRANSPORT_SCHEMES`;
* :class:`TopologyRef` — a named topology builder from
  :data:`repro.topology.registry.TOPOLOGIES` with builder parameters
  (``line``/``n_hops=6``, ``roofnet``/``include_hidden=true``,
  ``trace:<path>`` for external CSV/JSON files, ...);
* :class:`~repro.mobility.spec.MobilitySpec` — already spec-shaped —
  rides alongside unchanged.

The propagation model is part of the PHY rather than a separate spec:
``PhyParams.propagation`` names an entry of
:data:`repro.phy.registry.PROPAGATION_MODELS` (``shadowing``,
``rayleigh``, ``rician``) with ``propagation_params`` as its knobs.

The generated reference for every registered component lives in
``docs/COMPONENTS.md`` (``python -m repro.docs``).

:class:`ScenarioConfig` composes them into the one scenario type: the
object :func:`~repro.experiments.runner.run_scenario` runs, the JSON
document ``python -m repro.experiments run --spec file.json`` and the
HTTP service accept, and the dict the sweep cache hashes.  Any
(topology × MAC × routing × traffic × transport × mobility) combination
of registered components is reachable that way with no new experiment
module.

The paper's figure labels ("S"/"D"/"A"/"R1"/"R16") are a shorthand:
``ScenarioConfig(..., scheme_label="R16")`` sets ``mac`` and ``routing``
to the specs the label stands for and is never stored, so a label-built
config and a spec-built one are the same object with one digest.
"""

from __future__ import annotations

import inspect
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.mobility.spec import MobilitySpec
from repro.phy.params import HIGH_RATE_PHY, LOW_RATE_PHY, PhyParams
from repro.serialization import SpecError, Wire, from_dict
from repro.topology.spec import TopologySpec

#: Named PHY profiles addressable from specs (Table I's two rate points).
PHY_PROFILES: Dict[str, PhyParams] = {
    "high_rate": HIGH_RATE_PHY,
    "low_rate": LOW_RATE_PHY,
}

#: Paper figure label -> (library scheme name, route-set override or None).
PAPER_SCHEMES: Dict[str, Tuple[str, Optional[str]]] = {
    "S": ("dcf", "DIRECT"),
    "D": ("dcf", None),
    "A": ("afr", None),
    "R1": ("ripple1", None),
    "R16": ("ripple", None),
    "preExOR": ("preexor", None),
    "MCExOR": ("mcexor", None),
}

#: Default order in which the figures plot the scheme bars.
DEFAULT_SCHEME_LABELS: Tuple[str, ...] = ("S", "D", "R1", "A", "R16")


@dataclass(frozen=True)
class _ComponentSpec(Wire):
    """A registered component addressed by name, plus its parameters.

    Subclasses pin the registry the name must resolve in; validation
    happens at construction so a typo'd name fails where it was written,
    not deep inside ``build_network``.  An alias (``etx``) is replaced by
    its canonical name (``adaptive_etx``) at construction too, so specs
    that mean the same component compare and serialize alike.
    """

    name: str
    params: Dict[str, object] = field(default_factory=dict)

    #: Overridden per subclass.
    KIND = "component"

    def __post_init__(self) -> None:
        registry = self.registry()
        if self.name not in registry and not self._name_exempt(self.name):
            raise SpecError(
                f"unknown {registry.kind} {self.name!r} for {type(self).__name__}; "
                f"known: {registry.known_names()}"
            )
        for key in self.params:
            if not isinstance(key, str):
                raise SpecError(
                    f"{type(self).__name__} parameter names must be strings, got {key!r}"
                )
        object.__setattr__(self, "name", registry.canonical_name(self.name))

    @classmethod
    def registry(cls):
        """The registry this spec class resolves names in; each subclass names its own."""
        raise NotImplementedError

    @classmethod
    def _name_exempt(cls, name: str) -> bool:
        """Names valid for this spec without a registry entry (none by default)."""
        return False


@dataclass(frozen=True)
class MacSpec(_ComponentSpec):
    """One MAC/forwarding scheme by registered name (+ per-node MAC kwargs)."""

    KIND = "mac"

    @classmethod
    def registry(cls):
        from repro.mac.registry import MAC_SCHEMES

        return MAC_SCHEMES


@dataclass(frozen=True)
class RoutingSpec(_ComponentSpec):
    """One routing strategy by registered name (+ builder params)."""

    KIND = "routing"

    @classmethod
    def registry(cls):
        from repro.routing.registry import ROUTING_STRATEGIES

        return ROUTING_STRATEGIES


@dataclass(frozen=True)
class TrafficSpec(_ComponentSpec):
    """One traffic kind by registered name, or ``"flows"`` (per-flow kinds)."""

    KIND = "traffic"

    @classmethod
    def registry(cls):
        from repro.traffic.registry import TRAFFIC_KINDS

        return TRAFFIC_KINDS

    @classmethod
    def _name_exempt(cls, name: str) -> bool:
        from repro.traffic.registry import PER_FLOW_KINDS

        return name == PER_FLOW_KINDS

    @property
    def per_flow(self) -> bool:
        """Whether each flow keeps its own :class:`FlowSpec.kind`."""
        from repro.traffic.registry import PER_FLOW_KINDS

        return self.name == PER_FLOW_KINDS


@dataclass(frozen=True)
class TransportSpec(_ComponentSpec):
    """One congestion-control scheme by registered name (+ controller params).

    Resolves in :data:`repro.transport.registry.TRANSPORT_SCHEMES`
    (``reno``, ``tahoe``, ``newreno``, ``cubic``).  The default is
    ``reno``, the seed's machine.
    """

    KIND = "transport"

    @classmethod
    def registry(cls):
        from repro.transport.registry import TRANSPORT_SCHEMES

        return TRANSPORT_SCHEMES


@dataclass(frozen=True)
class TopologyRef(_ComponentSpec):
    """A named topology builder plus its parameters.

    Unlike an inline :class:`TopologySpec` (positions, flows and routes
    spelled out), a ref is tiny in a scenario document; a
    :class:`ScenarioConfig` built from one runs the builder —
    deterministically — at construction.
    """

    KIND = "topology"

    @classmethod
    def registry(cls):
        from repro.topology.registry import TOPOLOGIES

        return TOPOLOGIES

    def build(self) -> TopologySpec:
        """Construct (and validate) the referenced topology."""
        from repro.topology.registry import build_topology

        return build_topology(self.name, **self.params)


def resolve_phy(profile: str) -> PhyParams:
    """The PHY parameters a profile name (``high_rate``, ``low_rate``) stands for."""
    try:
        return PHY_PROFILES[profile]
    except KeyError:
        raise SpecError(f"unknown PHY profile {profile!r}; known: {sorted(PHY_PROFILES)}") from None


def expand_scheme_label(scheme_label: str) -> Tuple[MacSpec, RoutingSpec]:
    """A paper figure label as the (MAC, routing) specs it stands for.

    ``S`` pins the DIRECT route table in its routing params, so the label
    keeps its meaning through a later ``replace(config, route_set=...)``.
    """
    if scheme_label not in PAPER_SCHEMES:
        raise SpecError(f"unknown scheme label {scheme_label!r}; known: {sorted(PAPER_SCHEMES)}")
    scheme, route_set = PAPER_SCHEMES[scheme_label]
    params: Dict[str, object] = {} if route_set is None else {"route_set": route_set}
    return MacSpec(scheme), RoutingSpec("static", params)


@dataclass
class ScenarioConfig(Wire):
    """Everything needed to run one simulation, and its JSON document.

    ``topology`` takes a :class:`TopologySpec` or a :class:`TopologyRef`,
    and ``phy`` takes :class:`PhyParams` or a :data:`PHY_PROFILES` name;
    both are resolved at construction, so the stored config is always
    concrete.  ``scheme_label`` is an init-only shorthand that sets
    ``mac`` and ``routing`` (see :data:`PAPER_SCHEMES`); it is never
    stored or serialized.
    """

    topology: Union[TopologySpec, TopologyRef]
    scheme_label: InitVar[Optional[str]] = None
    route_set: str = "ROUTE0"
    active_flows: Optional[List[int]] = None  # None = all flows in the spec
    bit_error_rate: float = 1e-6
    duration_s: float = 1.0
    warmup_s: float = 0.0
    seed: int = 1
    phy: Union[PhyParams, str, None] = None
    tcp_window: int = 64
    max_forwarders: int = 5
    #: Time-varying topology; None (or a static spec) reproduces the paper's
    #: fixed-placement behaviour exactly.
    mobility: Optional[MobilitySpec] = None
    mac: MacSpec = field(default_factory=lambda: MacSpec("dcf"))
    routing: RoutingSpec = field(default_factory=lambda: RoutingSpec("static"))
    traffic: TrafficSpec = field(default_factory=lambda: TrafficSpec("flows"))
    #: Congestion control for TCP-backed flows.
    transport: TransportSpec = field(default_factory=lambda: TransportSpec("reno"))

    def __post_init__(self, scheme_label: Optional[str]) -> None:
        if isinstance(self.topology, TopologyRef):
            self.topology = self.topology.build()
        if isinstance(self.phy, str):
            self.phy = resolve_phy(self.phy)
        if self.active_flows is not None:
            self.active_flows = list(self.active_flows)
        if scheme_label is not None:
            self.mac, self.routing = expand_scheme_label(scheme_label)

    @classmethod
    def from_dict(cls, data: object) -> "ScenarioConfig":
        """Decode a scenario document; ``scheme_label`` excludes ``mac``/``routing``."""
        if isinstance(data, dict) and data.get("scheme_label") is not None:
            clash = sorted({"mac", "routing"} & data.keys())
            if clash:
                raise SpecError(
                    f"ScenarioConfig.scheme_label sets mac and routing; "
                    f"give one or the other, not both (document also gives {clash})"
                )
        return from_dict(cls, data)

    def to_config(self) -> "ScenarioConfig":
        """This config (scenario documents once decoded to a separate type)."""
        return self


#: Every key a scenario document may carry: the stored fields plus the
#: init-only ``scheme_label``.  Sweep and grid axes are checked against it.
SCENARIO_FIELDS: Tuple[str, ...] = tuple(inspect.signature(ScenarioConfig).parameters)

#: The former name of :class:`ScenarioConfig`'s document form.
ScenarioSpec = ScenarioConfig
