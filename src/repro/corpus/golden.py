"""Golden sweep-cache digests: the schema-compatibility tripwire.

``config_digest`` is the identity of every cached result, every service
job and every corpus scenario.  An *accidental* change to it — a field
rename, a canonicalization tweak, a float formatting change — silently
orphans every existing cache entry.  This module pins the digests of a
canonical panel of scenarios (every topology, every MAC, each non-default
routing/traffic/transport/propagation/mobility choice) in
``tests/corpus/golden_digests.json``; a tier-1 test recomputes them and
fails on any drift **unless** :data:`~repro.experiments.parallel.CACHE_SCHEMA_VERSION`
was bumped — the one sanctioned way to invalidate the cache universe.

The panel is generated from the live registries
(:func:`golden_documents`), so registering a new component obliges a
regeneration (``python -m repro.corpus --write-golden
tests/corpus/golden_digests.json``) and the new component's digest is
pinned from day one.  Trace-addressed topologies are digested through
their *resolved* form (positions inline, name ``trace:<basename>``), so
the pins are machine- and path-independent.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.corpus.space import packaged_trace_fixture
from repro.experiments.parallel import config_digest
from repro.phy.params import PhyParams
from repro.serialization import to_dict
from repro.spec import (
    MacSpec,
    RoutingSpec,
    ScenarioConfig,
    TopologyRef,
    TrafficSpec,
    TransportSpec,
)

#: Where the pins live (repo-relative; the tier-1 test and the CLI agree).
DEFAULT_GOLDEN_PATH = "tests/corpus/golden_digests.json"

#: Run framing of every golden scenario.  Fixed forever: the panel pins
#: serialization + digesting, so the framing only has to be *stable*,
#: never representative.
GOLDEN_DURATION_S = 0.5
GOLDEN_SEED = 1


def _document(topology: str = "line", **layers) -> Dict[str, object]:
    document = {"topology": to_dict(TopologyRef(topology))}
    document.update((layer, to_dict(value)) for layer, value in layers.items())
    document.update(duration_s=GOLDEN_DURATION_S, seed=GOLDEN_SEED)
    return document


def golden_documents() -> Dict[str, Dict[str, object]]:
    """The pinned panel: label -> scenario document.

    One scenario per registered topology at defaults, the packaged trace
    fixture, and one ``line`` scenario per non-default MAC / routing /
    traffic / transport / propagation model / driveable mobility model —
    every registry surfaces in at least one pin.
    """
    from repro.corpus.space import (
        _MOBILITY_CHOICES,
        _is_wrapper,
        contention_inner_names,
    )
    from repro.mac.registry import MAC_SCHEMES
    from repro.mobility.models import MOBILITY_MODELS
    from repro.phy.registry import PROPAGATION_MODELS
    from repro.routing.registry import ROUTING_STRATEGIES
    from repro.topology.registry import TOPOLOGIES
    from repro.traffic.registry import TRAFFIC_KINDS
    from repro.transport.registry import TRANSPORT_SCHEMES

    panel: Dict[str, Dict[str, object]] = {}
    for name in TOPOLOGIES.names():
        panel[f"topology={name}"] = _document(name)
    panel["topology=trace:corpus_line"] = _document(f"trace:{packaged_trace_fixture()}")
    for name, info in MAC_SCHEMES.items():
        if _is_wrapper(info):
            inner = contention_inner_names()[0]
            panel[f"mac={name}(inner={inner})"] = _document(mac=MacSpec(name, {"inner": inner}))
        else:
            panel[f"mac={name}"] = _document(mac=MacSpec(name))
    for name in ROUTING_STRATEGIES.names():
        if name != "static":
            panel[f"routing={name}"] = _document(routing=RoutingSpec(name))
    for name in TRAFFIC_KINDS.names():
        panel[f"traffic={name}"] = _document(traffic=TrafficSpec(name))
    for name in TRANSPORT_SCHEMES.names():
        if name != "reno":
            panel[f"transport={name}"] = _document(transport=TransportSpec(name))
    default_propagation = PhyParams().propagation
    for name in PROPAGATION_MODELS.names():
        if name != default_propagation:
            panel[f"phy.propagation={name}"] = _document(
                phy=PhyParams.from_dict({"propagation": name})
            )
    for name in MOBILITY_MODELS.names():
        build = _MOBILITY_CHOICES.get(name)
        if build is not None:
            panel[f"mobility={name}"] = _document(mobility=build())
    return panel


def current_digests() -> Dict[str, str]:
    """Digest of every panel scenario's *resolved* config, freshly computed."""
    return {
        label: config_digest(ScenarioConfig.from_dict(document))
        for label, document in golden_documents().items()
    }


def golden_payload() -> Dict[str, object]:
    """The JSON document ``--write-golden`` persists."""
    from repro.experiments.parallel import CACHE_SCHEMA_VERSION

    return {"schema": CACHE_SCHEMA_VERSION, "digests": current_digests()}


def write_golden(path: str) -> int:
    """(Re)write the pin file; returns the number of pinned scenarios."""
    payload = golden_payload()
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(payload["digests"])


def verify_golden(stored: Dict[str, object]) -> List[str]:
    """Mismatch messages between a stored pin file and the live code.

    A schema-version difference short-circuits to a single message (the
    sanctioned invalidation path: bump + regenerate); otherwise every
    drifted, vanished or unpinned label is reported individually.
    """
    from repro.experiments.parallel import CACHE_SCHEMA_VERSION

    stored_schema = stored.get("schema")
    if stored_schema != CACHE_SCHEMA_VERSION:
        return [
            f"golden digests were pinned at cache schema {stored_schema!r} but the "
            f"code is at {CACHE_SCHEMA_VERSION!r}; regenerate the pins with "
            f"`python -m repro.corpus --write-golden {DEFAULT_GOLDEN_PATH}`"
        ]
    current = current_digests()
    pinned = stored.get("digests") or {}
    messages: List[str] = []
    for label in sorted(pinned):
        if label not in current:
            messages.append(f"pinned scenario {label!r} no longer exists in the registries")
        elif current[label] != pinned[label]:
            messages.append(
                f"digest drift for {label!r}: pinned {pinned[label]} but code now "
                f"produces {current[label]} — bump CACHE_SCHEMA_VERSION if the "
                f"change is intentional, then regenerate the pins"
            )
    for label in sorted(set(current) - set(pinned)):
        messages.append(
            f"scenario {label!r} is not pinned; regenerate "
            f"{DEFAULT_GOLDEN_PATH} to cover it"
        )
    return messages
