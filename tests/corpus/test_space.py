"""Enumeration contract: the space covers the registries, obeys its table."""

import json

import pytest

from repro.corpus.space import (
    CONSTRAINTS,
    LAYERS,
    SpecSpace,
    contention_inner_names,
    default_space,
    packaged_trace_fixture,
)
from repro.spec import ScenarioConfig


@pytest.fixture(scope="module")
def space():
    return default_space()


class TestCoverage:
    def test_every_registry_name_is_a_choice(self, space):
        """A registered component that cannot be enumerated is a silent hole."""
        from repro.mac.registry import MAC_SCHEMES
        from repro.phy.registry import PROPAGATION_MODELS
        from repro.routing.registry import ROUTING_STRATEGIES
        from repro.topology.registry import TOPOLOGIES
        from repro.traffic.registry import TRAFFIC_KINDS
        from repro.transport.registry import TRANSPORT_SCHEMES

        def labels(layer):
            return " ".join(choice.label for choice in space.layers[layer])

        for name in TOPOLOGIES.names():
            assert name in labels("topology")
        for name in MAC_SCHEMES.names():
            assert name in labels("mac")
        for name in ROUTING_STRATEGIES.names():
            assert name in labels("routing")
        for name in TRAFFIC_KINDS.names():
            assert name in labels("traffic")
        for name in TRANSPORT_SCHEMES.names():
            if name != "reno":  # the absent-spec default
                assert name in labels("transport")
        for name in PROPAGATION_MODELS.names():
            assert name in labels("phy")

    def test_trace_fixture_is_enumerable(self, space):
        labels = [choice.label for choice in space.layers["topology"]]
        assert "trace:corpus_line.csv" in labels

    def test_wrapper_mac_enumerated_per_inner(self, space):
        labels = [choice.label for choice in space.layers["mac"]]
        for inner in contention_inner_names():
            assert f"rate_adapt(inner={inner})" in labels

    def test_size_is_layer_product(self, space):
        expected = 1
        for layer in LAYERS:
            expected *= len(space.layers[layer])
        assert space.size() == expected


class TestConstraints:
    def test_sampled_combos_satisfy_every_constraint(self, space):
        for combo in space.sample(64, sample_seed=7):
            for constraint in CONSTRAINTS:
                assert constraint.allows(combo), constraint.id

    def test_mobility_excluded_on_fixed_layouts(self, space):
        moving = next(
            c for c in space.layers["mobility"] if c.label == "random_waypoint"
        )
        fig1 = next(c for c in space.layers["topology"] if c.label == "fig1")
        line = next(c for c in space.layers["topology"] if c.label == "line")
        base = space.combo_at(0)
        combo = dict(base, topology=fig1, mobility=moving)
        assert space.violated(combo) is not None
        assert space.violated(combo).id == "mobility-fixed-layout"
        assert space.violated(dict(base, topology=line, mobility=moving)) is None

    def test_every_constraint_rejects_some_combination(self, space):
        """A rule that can never fire polices nothing; delete it instead."""
        spaces = (space, default_space(trace_paths=("/nonexistent/never.csv",)))
        for constraint in CONSTRAINTS:
            assert any(
                not constraint.allows(candidate.combo_at(index))
                for candidate in spaces
                for index in range(candidate.size())
            ), constraint.id

    def test_missing_trace_file_is_inadmissible(self):
        space = default_space(trace_paths=("/nonexistent/never.csv",))
        bad = next(
            c for c in space.layers["topology"] if c.label == "trace:never.csv"
        )
        combo = dict(space.combo_at(0), topology=bad)
        assert space.violated(combo).id == "trace-topology-file"


class TestSampling:
    def test_sampling_is_deterministic_per_seed(self, space):
        first = [space.describe(c) for c in space.sample(16, sample_seed=3)]
        second = [space.describe(c) for c in space.sample(16, sample_seed=3)]
        other = [space.describe(c) for c in space.sample(16, sample_seed=4)]
        assert first == second
        assert first != other

    def test_sample_has_no_duplicates(self, space):
        described = [space.describe(c) for c in space.sample(48, sample_seed=0)]
        assert len(described) == len(set(described))

    def test_oversampling_tiny_space_returns_everything(self):
        layers = {
            layer: [choices[0]] for layer, choices in default_space().layers.items()
        }
        tiny = SpecSpace(layers)
        assert len(tiny.sample(10, sample_seed=0)) == tiny.size() == 1


class TestDocuments:
    def test_documents_parse_and_are_fixpoints(self, space):
        for combo in space.sample(24, sample_seed=1):
            document = space.document_for(combo)
            json.dumps(document)  # JSON-safe all the way down
            config = ScenarioConfig.from_dict(document)
            assert ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_documents_carry_the_corpus_framing(self, space):
        document = space.document_for(space.sample(1, sample_seed=0)[0])
        assert document["duration_s"] == space.duration_s
        assert document["seed"] == space.base_seed

    def test_packaged_fixture_exists(self):
        import os

        assert os.path.isfile(packaged_trace_fixture())
