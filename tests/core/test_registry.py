"""The generic component registry: write-once semantics and lookups."""

import pytest

from repro.registry import Registry, RegistryError


class TestRegistry:
    def test_register_decorator_returns_object_unchanged(self):
        registry = Registry("widget")

        @registry.register("one")
        def build_one():
            return 1

        assert build_one() == 1
        assert registry.lookup("one") is build_one

    def test_duplicate_registration_raises(self):
        registry = Registry("widget")
        registry.add("one", object())
        with pytest.raises(RegistryError, match="duplicate widget registration 'one'"):
            registry.add("one", object())

    def test_duplicate_via_alias_raises(self):
        registry = Registry("widget")
        registry.add("one", object())
        registry.alias("uno", "one")
        with pytest.raises(RegistryError):
            registry.add("uno", object())
        with pytest.raises(RegistryError):
            registry.alias("uno", "one")

    def test_unknown_lookup_names_known_entries(self):
        registry = Registry("widget")
        registry.add("one", object())
        with pytest.raises(RegistryError, match="unknown widget 'two'.*one"):
            registry.lookup("two")

    def test_alias_resolves_to_target(self):
        registry = Registry("widget")
        entry = object()
        registry.add("one", entry)
        registry.alias("uno", "one")
        assert registry.lookup("uno") is entry
        assert registry.canonical_name("uno") == "one"
        assert "uno" in registry
        assert "uno" in registry.known_names()

    def test_alias_of_unknown_target_raises(self):
        registry = Registry("widget")
        with pytest.raises(RegistryError, match="cannot alias"):
            registry.alias("uno", "one")

    def test_mapping_protocol(self):
        registry = Registry("widget")
        registry.add("b", 2)
        registry.add("a", 1)
        assert sorted(registry) == ["a", "b"]
        assert registry.get("a") == 1
        assert registry.get("missing") is None
        assert registry.lookup("b") == 2
        assert registry.names() == ("b", "a")  # registration order

    def test_empty_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(RegistryError):
            registry.add("", object())


class TestRealRegistriesAreClosed:
    """Duplicate registration on the live registries must raise, not overwrite."""

    def test_mac_scheme_duplicate(self):
        from repro.mac.registry import register_mac_scheme

        with pytest.raises(RegistryError):
            register_mac_scheme("dcf", label="again", opportunistic=False)(lambda *a, **k: None)

    def test_routing_duplicate(self):
        from repro.routing.registry import register_routing

        with pytest.raises(RegistryError):
            register_routing("static")(lambda *a, **k: None)

    def test_traffic_duplicate(self):
        from repro.traffic.registry import register_traffic

        with pytest.raises(RegistryError):
            register_traffic("voip")(lambda *a, **k: None)

    def test_topology_duplicate(self):
        from repro.topology.registry import register_topology

        with pytest.raises(RegistryError):
            register_topology("fig1")(lambda **k: None)

    def test_mobility_model_duplicate(self):
        from repro.mobility.models import register_mobility_model

        with pytest.raises(RegistryError):
            register_mobility_model("static")(lambda params, bounds: None)

    def test_every_layer_is_populated(self):
        from repro.mac.registry import MAC_SCHEMES
        from repro.mobility.models import MOBILITY_MODELS
        from repro.routing.registry import ROUTING_STRATEGIES
        from repro.topology.registry import TOPOLOGIES
        from repro.traffic.registry import TRAFFIC_KINDS

        assert {"dcf", "afr", "ripple", "ripple1", "preexor", "mcexor"} <= set(MAC_SCHEMES)
        assert {"static", "shortest_path", "adaptive_etx"} <= set(ROUTING_STRATEGIES)
        assert "etx" in ROUTING_STRATEGIES  # the alias
        assert {"tcp", "web", "voip", "udp-saturating"} <= set(TRAFFIC_KINDS)
        assert {"fig1", "fig5a", "fig5b", "line", "wigle", "roofnet"} <= set(TOPOLOGIES)
        assert {"static", "random_waypoint", "gauss_markov", "trace"} <= set(MOBILITY_MODELS)
