"""Property-fuzz the strict wire formats: every malformed document names itself.

Every class the field-driven codec of :mod:`repro.serialization` carries
— scenario configs and documents, component specs, topologies, PHY and
mobility params, results, and the service's job records, leases and
requests — must round-trip ``from_dict(to_dict(x)) == x`` with exactly
its dataclass fields as keys.  Randomized mutations — unknown-key
injection, required-key removal, mistyped scalars, wrong-typed component
entries — must raise :class:`~repro.serialization.SpecError` messages
naming the offending field and the accepting class.  Randomness comes
only from the keyed Philox streams of :mod:`repro.sim.rng` (seeded,
machine-independent), so a failing mutation reproduces by rerunning the
test — no wall-clock seeds, no flakes.
"""

import dataclasses
import json
import typing

import pytest

from repro.corpus.shrink import baseline_document
from repro.experiments.runner import ScenarioResult
from repro.metrics.flows import FlowResult
from repro.metrics.mos import VoipQuality
from repro.mobility.spec import MobilitySpec
from repro.phy.params import PhyParams
from repro.serialization import SpecError
from repro.service.queue import Lease
from repro.service.schemas import SubmitRequest
from repro.service.store import JobRecord
from repro.sim.rng import RandomStreams
from repro.spec import (
    COMPONENT_SPEC_CLASSES,
    MacSpec,
    RoutingSpec,
    ScenarioConfig,
    TopologyRef,
    TrafficSpec,
    TransportSpec,
)
from repro.topology.spec import FlowSpec
from repro.topology.standard import fig1_topology

#: Fuzz iterations per (class, mutation) pair — tiny documents, so cheap.
ROUNDS = 25


def _stream(*keys):
    return RandomStreams(0).stream_for("/".join(("fuzz-wire",) + keys))


def _random_key(generator, taken):
    while True:
        suffix = "".join(chr(ord("a") + int(d)) for d in generator.integers(0, 26, size=8))
        key = f"fz_{suffix}"
        if key not in taken:
            return key


def _config():
    return ScenarioConfig(
        topology=TopologyRef("line", {"n_hops": 3}),
        mac=MacSpec("ripple", {"max_aggregation": 4}),
        routing=RoutingSpec("etx"),
        traffic=TrafficSpec("voip"),
        transport=TransportSpec("cubic", {"beta": 0.6}),
        mobility=MobilitySpec.random_waypoint(3.0, mobile_nodes=[2, 1]),
        phy="low_rate",
        active_flows=(1,),
        max_aggregation=8,
        duration_s=0.25,
        seed=9,
    )


def _instances():
    """One populated instance of every wire class the codec carries."""
    flow = FlowResult(1, "tcp", 0, 3, 1.5, packets_received=7, extra={"objects": 2.0})
    quality = VoipQuality(delay_ms=177.0, loss_rate=0.01, r_factor=90.0, mos=4.3)
    return [
        TopologyRef("line", {"n_hops": 3}),
        MacSpec("rate_adapt", {"inner": "dcf"}),
        RoutingSpec("static", {"route_set": "DIRECT"}),
        TrafficSpec("flows"),
        TransportSpec("cubic", {"beta": 0.6}),
        _config(),
        PhyParams(propagation="rician", propagation_params={"k_factor": 8.0}),
        MobilitySpec.random_waypoint(3.0, mobile_nodes=[2, 1]),
        fig1_topology(),
        FlowSpec(1, 0, 3, transport="cubic"),
        ScenarioResult(_config(), [flow], {1: quality}, 1234),
        flow,
        quality,
        JobRecord("job-1", config={"seed": 1}, digest="ab", attempts=1, finished_s=1.5),
        Lease("job-1", "worker-1", 12.5),
        SubmitRequest(spec=baseline_document(), max_attempts=5),
    ]


def _wire_classes():
    """(class, known-good document) for every strict wire format."""
    cases = []
    for field, cls in COMPONENT_SPEC_CLASSES.items():
        name = cls.registry().names()[0]
        cases.append((cls, {"name": name, "params": {}}))
    spec_doc = baseline_document()
    cases.append((ScenarioConfig, spec_doc))
    cases.append((ScenarioConfig, ScenarioConfig.from_dict(spec_doc).to_dict()))
    cases.append((JobRecord, {"job_id": "fuzz-1", "state": "queued"}))
    cases.append((SubmitRequest, {"spec": dict(spec_doc)}))
    cases.extend((type(instance), instance.to_dict()) for instance in _instances()[5:])
    return cases


def _case_id(case):
    return getattr(case, "__name__", None)


@pytest.mark.parametrize("instance", _instances(), ids=lambda x: type(x).__name__)
class TestRoundTrip:
    def test_from_dict_inverts_to_dict(self, instance):
        cls = type(instance)
        document = instance.to_dict()
        assert list(document) == [f.name for f in dataclasses.fields(cls)]
        assert cls.from_dict(json.loads(json.dumps(document))) == instance


@pytest.mark.parametrize("cls,document", _wire_classes(), ids=_case_id)
class TestUnknownKeyInjection:
    def test_random_unknown_keys_are_named(self, cls, document):
        generator = _stream("unknown", cls.__name__)
        cls.from_dict(dict(document))  # the unmutated document must parse
        for _ in range(ROUNDS):
            key = _random_key(generator, set(document))
            mutated = dict(document)
            mutated[key] = None
            with pytest.raises(SpecError) as excinfo:
                cls.from_dict(mutated)
            message = str(excinfo.value)
            assert key in message and cls.__name__ in message


#: Wrong-typed values per accepted JSON type: none of them may be coerced.
_MISTYPED = {
    int: ("12", True, 3.9, None),
    float: ("0.5", True, None),
    str: (7, None),
    list: ("12", {}),
    dict: ("12", []),
}


def _mistyped_values(hint):
    """Values a field of type ``hint`` must reject (``()`` when anything goes)."""
    if isinstance(hint, dataclasses.InitVar):
        hint = hint.type
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union and type(None) in args:
        rest = [arg for arg in args if arg is not type(None)]
        values = _mistyped_values(rest[0]) if len(rest) == 1 else (7, [])
        return tuple(value for value in values if value is not None)
    if hint in _MISTYPED:
        return _MISTYPED[hint]
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        return _MISTYPED[list]
    if origin is dict or dataclasses.is_dataclass(hint):
        return _MISTYPED[dict]
    if origin is typing.Union:
        return (7, [])
    return ()


@pytest.mark.parametrize("cls,document", _wire_classes(), ids=_case_id)
class TestMistypedScalars:
    def test_mistyped_values_are_named(self, cls, document):
        for field, hint in typing.get_type_hints(cls).items():
            for value in _mistyped_values(hint):
                mutated = dict(document)
                mutated[field] = value
                with pytest.raises(SpecError) as excinfo:
                    cls.from_dict(mutated)
                message = str(excinfo.value)
                assert field in message and cls.__name__ in message, message


class TestScenarioDocumentScalars:
    def test_ints_are_accepted_where_floats_are_expected(self):
        config = ScenarioConfig.from_dict(dict(baseline_document(), duration_s=1))
        assert config.duration_s == 1


def _required_cases():
    """(class, known-good document, its required keys) per class that has any."""
    cases = []
    for cls, document in _wire_classes():
        required = tuple(
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        )
        if required:
            cases.append((cls, document, required))
    return cases


@pytest.mark.parametrize("cls,document,required", _required_cases())
class TestRequiredKeyRemoval:
    def test_truncated_documents_name_the_missing_field(self, cls, document, required):
        generator = _stream("truncate", cls.__name__)
        for _ in range(ROUNDS):
            key = required[int(generator.integers(len(required)))]
            mutated = {k: v for k, v in document.items() if k != key}
            with pytest.raises(SpecError) as excinfo:
                cls.from_dict(mutated)
            message = str(excinfo.value)
            assert "missing required field" in message
            assert key in message and cls.__name__ in message


class TestWrongTypes:
    #: Scenario fields that must hold component dicts (or None).
    COMPONENT_FIELDS = ("topology", "mac", "routing", "traffic", "transport", "mobility")
    SCALARS = (0, 1.5, "dcf", True, ["dcf"])

    def test_scalar_component_entries_raise_spec_errors(self):
        generator = _stream("wrong-type", "ScenarioSpec")
        for _ in range(ROUNDS):
            field = self.COMPONENT_FIELDS[int(generator.integers(len(self.COMPONENT_FIELDS)))]
            scalar = self.SCALARS[int(generator.integers(len(self.SCALARS)))]
            mutated = baseline_document()
            mutated[field] = scalar
            with pytest.raises((SpecError, ValueError)):
                ScenarioConfig.from_dict(mutated)

    def test_scalar_submit_spec_is_rejected_by_name(self):
        with pytest.raises(SpecError, match="SubmitRequest.spec must be a dict"):
            SubmitRequest.from_dict({"spec": "line"})

    def test_non_dict_document_names_the_class(self):
        with pytest.raises(SpecError, match="ScenarioConfig expects a dict"):
            ScenarioConfig.from_dict("not a dict")
