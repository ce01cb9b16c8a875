"""Enumeration of the valid scenario-spec space from the live registries.

Seven registries (topology x MAC x routing x traffic x transport x
propagation x mobility) span roughly 7e4 composable scenarios; tests
only ever exercised the handful each PR happened to add.  This module
makes the whole cross-product addressable:

* each registry becomes a **layer** of :class:`Choice` objects walked
  straight off the live registry (a newly registered component is
  enumerated on the day it lands, with no corpus change);
* a small declarative :data:`CONSTRAINTS` table states which
  combinations are *not* meaningful (``trace:`` topologies need their
  file; mobility is excluded on the paper's fixed-layout figure
  topologies).  Combinations the layers never build need no rule: a
  ``rate_adapt`` MAC is enumerated only over contention ``inner``
  schemes, and ``trace`` mobility not at all;
* :class:`SpecSpace` indexes the product mixed-radix, filters it through
  the constraints, and emits each admissible combination as a
  :class:`~repro.spec.ScenarioConfig` document — topology by ref, default
  layers left out — that ``ScenarioConfig.from_dict``, the CLI's
  ``--spec`` and the service accept as is.

Sampling is seeded through the keyed Philox streams of
:mod:`repro.sim.rng` (no wall-clock randomness anywhere), so
``--sample 64 --seed 0`` names the same 64 scenarios on every machine,
forever — which is what lets CI, the nightly sweep and a developer's
shell all talk about "corpus spec 17".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.mobility.spec import MobilitySpec
from repro.phy.params import PhyParams
from repro.serialization import to_dict
from repro.sim.rng import RandomStreams
from repro.spec import MacSpec, RoutingSpec, TopologyRef, TrafficSpec, TransportSpec

#: Layer order of the enumeration (mixed-radix digit order, docs order).
LAYERS: Tuple[str, ...] = (
    "topology", "mac", "routing", "traffic", "transport", "phy", "mobility",
)

#: Default simulated duration of a corpus invariant run: long enough for
#: every traffic kind to move packets, short enough that a 64-spec sample
#: finishes in CI minutes.
DEFAULT_DURATION_S = 0.02

#: Topologies whose placement *is* the experiment (the paper's figure
#: layouts — hidden-terminal geometry, collision-domain spacing); moving
#: their nodes silently changes what the figure measures.
FIXED_LAYOUT_TOPOLOGIES: Tuple[str, ...] = (
    "fig1", "fig1-voip", "fig1-web", "fig5a", "fig5b",
)

#: Tick cadence for corpus mobility choices: fast enough that mobility
#: actually moves nodes and re-estimates routes within a 0.02 s run.
_MOBILITY_INTERVALS = {"update_interval_s": 0.005, "reestimate_interval_s": 0.01}


@dataclass(frozen=True)
class Choice:
    """One enumerable value of one layer: a label plus the spec it means.

    ``value`` is the object handed to :class:`~repro.spec.ScenarioConfig`
    for that layer (None = the layer's default, left out of documents);
    ``label`` is the stable human/docs name — path-free even when the
    value embeds a fixture path, so generated docs and CLI output are
    machine-independent.
    """

    layer: str
    label: str
    value: object


@dataclass(frozen=True)
class Constraint:
    """One declarative admissibility rule over a full layer combination.

    ``allows(combo)`` returns True when the combination is meaningful;
    the table below is rendered verbatim into ``docs/CORPUS.md``, so a
    combination the corpus skips is always skipped *for a written
    reason*, never by an opaque special case.
    """

    id: str
    description: str
    allows: Callable[[Dict[str, Choice]], bool]


# ----------------------------------------------------------------------
# Layer choices, walked off the live registries
# ----------------------------------------------------------------------

def topology_choices(trace_paths: Sequence[str] = ()) -> List[Choice]:
    """Every registered topology builder, plus one ref per trace file.

    Prefix entries cannot be enumerated from the registry alone (a
    ``trace:`` name needs a file argument the registry cannot invent),
    so callers pass concrete ``trace_paths``; the packaged fixture of
    :func:`packaged_trace_fixture` is the default space's choice.
    """
    from repro.topology.registry import TOPOLOGIES

    choices = [Choice("topology", name, TopologyRef(name)) for name in TOPOLOGIES.names()]
    for path in trace_paths:
        for prefix in TOPOLOGIES.prefixes():
            choices.append(
                Choice(
                    "topology",
                    f"{prefix}:{os.path.basename(path)}",
                    TopologyRef(f"{prefix}:{path}"),
                )
            )
    return choices


def _is_wrapper(info) -> bool:
    """Whether a MAC registry entry wraps another scheme (``inner`` param)."""
    return "inner" in info.params


def contention_inner_names() -> List[str]:
    """MAC schemes eligible as a wrapper's ``inner``: contention, non-wrapper."""
    from repro.mac.registry import MAC_SCHEMES

    return [
        name
        for name, info in MAC_SCHEMES.items()
        if not _is_wrapper(info) and not info.opportunistic
    ]


def mac_choices() -> List[Choice]:
    """Every registered MAC scheme; wrappers once per eligible inner."""
    from repro.mac.registry import MAC_SCHEMES

    choices = [Choice("mac", "(default dcf)", None)]
    for name, info in MAC_SCHEMES.items():
        if _is_wrapper(info):
            for inner in contention_inner_names():
                choices.append(
                    Choice("mac", f"{name}(inner={inner})", MacSpec(name, {"inner": inner}))
                )
        else:
            choices.append(Choice("mac", name, MacSpec(name)))
    return choices


def routing_choices() -> List[Choice]:
    """Every registered routing strategy (plus the default static)."""
    from repro.routing.registry import ROUTING_STRATEGIES

    choices = [Choice("routing", "(default static)", None)]
    choices.extend(
        Choice("routing", name, RoutingSpec(name)) for name in ROUTING_STRATEGIES.names()
    )
    return choices


def traffic_choices() -> List[Choice]:
    """Per-flow kinds (the default) plus every registered forced kind."""
    from repro.traffic.registry import TRAFFIC_KINDS

    choices = [Choice("traffic", "(per-flow kinds)", None)]
    choices.extend(
        Choice("traffic", name, TrafficSpec(name)) for name in TRAFFIC_KINDS.names()
    )
    return choices


def transport_choices() -> List[Choice]:
    """Every non-default congestion controller (absent = the default reno)."""
    from repro.transport.registry import TRANSPORT_SCHEMES

    choices = [Choice("transport", "(default reno)", None)]
    choices.extend(
        Choice("transport", name, TransportSpec(name))
        for name in TRANSPORT_SCHEMES.names()
        if name != "reno"
    )
    return choices


def phy_choices() -> List[Choice]:
    """Every non-default propagation model as a PHY-parameter choice."""
    from repro.phy.registry import PROPAGATION_MODELS

    default = PhyParams().propagation
    choices = [Choice("phy", f"(default {default})", None)]
    for name in PROPAGATION_MODELS.names():
        if name == default:
            continue
        choices.append(
            Choice("phy", f"propagation={name}", PhyParams.from_dict({"propagation": name}))
        )
    return choices


#: Corpus parameterisation per mobility model.  ``static`` is a no-op by
#: definition and ``trace`` needs per-node samples the corpus cannot
#: invent; models not listed here are skipped from enumeration until
#: given parameters.
_MOBILITY_CHOICES: Dict[str, Callable[[], MobilitySpec]] = {
    "random_waypoint": lambda: MobilitySpec.random_waypoint(4.0, **_MOBILITY_INTERVALS),
    "gauss_markov": lambda: MobilitySpec.gauss_markov(3.0, **_MOBILITY_INTERVALS),
}


def mobility_choices() -> List[Choice]:
    """Fixed placement plus every registered model the corpus can drive."""
    from repro.mobility.models import MOBILITY_MODELS

    choices = [Choice("mobility", "(fixed placement)", None)]
    for name in MOBILITY_MODELS.names():
        build = _MOBILITY_CHOICES.get(name)
        if build is not None:
            choices.append(Choice("mobility", name, build()))
    return choices


def packaged_trace_fixture() -> str:
    """Absolute path of the trace-topology fixture shipped in this package."""
    return str(Path(__file__).resolve().parent / "fixtures" / "corpus_line.csv")


# ----------------------------------------------------------------------
# The declarative constraint table
# ----------------------------------------------------------------------

def _topology_name(combo: Dict[str, Choice]) -> str:
    value = combo["topology"].value
    return value.name if isinstance(value, TopologyRef) else str(value)


def _mobility_allows_layout(combo: Dict[str, Choice]) -> bool:
    mobility = combo["mobility"].value
    if mobility is None or mobility.is_static:
        return True
    return _topology_name(combo) not in FIXED_LAYOUT_TOPOLOGIES


def _trace_topology_file_exists(combo: Dict[str, Choice]) -> bool:
    from repro.topology.registry import TOPOLOGIES

    prefixed = TOPOLOGIES.split_prefixed(combo["topology"].value.name)
    if prefixed is None:
        return True
    return Path(prefixed[1]).is_file()


CONSTRAINTS: Tuple[Constraint, ...] = (
    Constraint(
        "trace-topology-file",
        "a `trace:` topology is only admissible when its file exists — the "
        "corpus ships `corpus_line.csv` so one prefix-addressed topology is "
        "always enumerable",
        _trace_topology_file_exists,
    ),
    Constraint(
        "mobility-fixed-layout",
        "non-static mobility is excluded on the paper's fixed-layout figure "
        "topologies (fig1 family, fig5a/fig5b): their placement is the "
        "experiment (hidden terminals, collision domains), so moving nodes "
        "changes what the scenario means",
        _mobility_allows_layout,
    ),
)


# ----------------------------------------------------------------------
# The indexed, constraint-filtered space
# ----------------------------------------------------------------------

class SpecSpace:
    """The constraint-filtered cross-product of per-layer choices.

    Combinations are addressed by a mixed-radix index over
    :data:`LAYERS` (last layer fastest, like nested for loops), which
    makes sampling a matter of drawing integers: the same ``(sample
    seed, n)`` names the same scenarios on every machine.
    """

    def __init__(
        self,
        layers: Optional[Dict[str, List[Choice]]] = None,
        constraints: Tuple[Constraint, ...] = CONSTRAINTS,
        duration_s: float = DEFAULT_DURATION_S,
        base_seed: int = 1,
    ) -> None:
        if layers is None:
            layers = default_layers()
        missing = [layer for layer in LAYERS if not layers.get(layer)]
        if missing:
            raise ValueError(f"spec space needs at least one choice per layer; empty: {missing}")
        self.layers = {layer: list(layers[layer]) for layer in LAYERS}
        self.constraints = tuple(constraints)
        self.duration_s = float(duration_s)
        self.base_seed = int(base_seed)

    def size(self) -> int:
        """Number of raw (pre-constraint) combinations."""
        total = 1
        for layer in LAYERS:
            total *= len(self.layers[layer])
        return total

    def combo_at(self, index: int) -> Dict[str, Choice]:
        """Mixed-radix decode of ``index`` into one choice per layer."""
        if not 0 <= index < self.size():
            raise IndexError(f"combo index {index} outside [0, {self.size()})")
        combo: Dict[str, Choice] = {}
        for layer in reversed(LAYERS):
            choices = self.layers[layer]
            index, digit = divmod(index, len(choices))
            combo[layer] = choices[digit]
        return {layer: combo[layer] for layer in LAYERS}

    def violated(self, combo: Dict[str, Choice]) -> Optional[Constraint]:
        """The first constraint the combination breaks, or None if admissible."""
        for constraint in self.constraints:
            if not constraint.allows(combo):
                return constraint
        return None

    def document_for(self, combo: Dict[str, Choice]) -> Dict[str, object]:
        """The combination as a runnable (short-duration) scenario document."""
        document = {
            layer: to_dict(choice.value)
            for layer, choice in combo.items()
            if choice.value is not None
        }
        document["duration_s"] = self.duration_s
        document["seed"] = self.base_seed
        return document

    def describe(self, combo: Dict[str, Choice]) -> str:
        """Stable one-line label, e.g. ``topology=line mac=ripple ...``."""
        return " ".join(f"{layer}={combo[layer].label}" for layer in LAYERS)

    def sample(self, n: int, sample_seed: int = 0) -> List[Dict[str, Choice]]:
        """``n`` distinct admissible combinations, fully seed-determined.

        Rejection-samples indices from a keyed Philox stream; if the
        random phase cannot fill the quota (tiny spaces, harsh
        constraints), a deterministic index-order sweep tops the sample
        up, so asking for more combinations than exist returns them all.
        """
        if n <= 0:
            return []
        total = self.size()
        generator = RandomStreams(int(sample_seed)).stream_for("corpus-sample")
        chosen: List[Dict[str, Choice]] = []
        seen: set = set()
        attempts = 0
        cap = max(1000, 100 * n)
        while len(chosen) < n and attempts < cap and len(seen) < total:
            attempts += 1
            index = int(generator.integers(total))
            if index in seen:
                continue
            seen.add(index)
            combo = self.combo_at(index)
            if self.violated(combo) is None:
                chosen.append(combo)
        if len(chosen) < n:
            for index in range(total):
                if index in seen:
                    continue
                combo = self.combo_at(index)
                if self.violated(combo) is None:
                    chosen.append(combo)
                    if len(chosen) == n:
                        break
        return chosen


def default_layers(trace_paths: Optional[Sequence[str]] = None) -> Dict[str, List[Choice]]:
    """The layer table of the default space (all registries + the fixture)."""
    if trace_paths is None:
        trace_paths = (packaged_trace_fixture(),)
    return {
        "topology": topology_choices(trace_paths),
        "mac": mac_choices(),
        "routing": routing_choices(),
        "traffic": traffic_choices(),
        "transport": transport_choices(),
        "phy": phy_choices(),
        "mobility": mobility_choices(),
    }


def default_space(
    duration_s: float = DEFAULT_DURATION_S,
    base_seed: int = 1,
    trace_paths: Optional[Sequence[str]] = None,
) -> SpecSpace:
    """The full registry-driven space with the packaged trace fixture."""
    return SpecSpace(default_layers(trace_paths), duration_s=duration_s, base_seed=base_seed)
