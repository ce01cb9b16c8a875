"""Predetermined (static) routing tables."""

import pytest

from repro.routing.base import RouteNotFound
from repro.routing.static import StaticRouting


@pytest.fixture
def routing():
    return StaticRouting({(0, 3): [0, 1, 2, 3], (5, 7): [5, 6, 1, 7]})


class TestPaths:
    def test_full_path(self, routing):
        assert routing.path(0, 3) == [0, 1, 2, 3]

    def test_reverse_path_is_derived(self, routing):
        assert routing.path(3, 0) == [3, 2, 1, 0]

    def test_mid_path_node_can_forward(self, routing):
        assert routing.path(1, 3) == [1, 2, 3]
        assert routing.path(2, 3) == [2, 3]

    def test_unknown_route_raises(self, routing):
        with pytest.raises(RouteNotFound):
            routing.path(0, 99)

    def test_next_hop(self, routing):
        assert routing.next_hop(0, 3) == 1
        assert routing.next_hop(1, 3) == 2
        assert routing.next_hop(6, 7) == 1


class TestValidation:
    def test_path_must_match_endpoints(self):
        with pytest.raises(ValueError):
            StaticRouting({(0, 3): [1, 2, 3]})

    def test_path_must_have_two_nodes(self):
        with pytest.raises(ValueError):
            StaticRouting({(0, 0): [0]})

    def test_path_must_not_revisit(self):
        with pytest.raises(ValueError):
            StaticRouting({(0, 3): [0, 1, 0, 3]})

    def test_reverse_not_added_when_disabled(self):
        routing = StaticRouting({(0, 3): [0, 1, 3]}, add_reverse=False)
        with pytest.raises(RouteNotFound):
            routing.path(3, 0)


class TestForwarderLists:
    def test_priority_order_is_closest_to_destination_first(self, routing):
        # Path 0-1-2-3: forwarders are 2 (nearest destination) then 1.
        assert routing.forwarder_list(0, 3) == (2, 1)

    def test_destination_not_included(self, routing):
        assert 3 not in routing.forwarder_list(0, 3)

    def test_source_not_included(self, routing):
        assert 0 not in routing.forwarder_list(0, 3)

    def test_single_hop_has_no_forwarders(self, routing):
        assert routing.forwarder_list(2, 3) == ()

    def test_max_forwarders_cap(self):
        routing = StaticRouting({(0, 9): list(range(10))}, max_forwarders=3)
        forwarders = routing.forwarder_list(0, 9)
        assert len(forwarders) == 3
        assert forwarders == (8, 7, 6)  # the three nearest the destination

    def test_route_decision_opportunistic(self, routing):
        decision = routing.route_decision(0, 3, opportunistic=True)
        assert decision.final_dst == 3
        assert decision.next_hop is None
        assert decision.forwarder_list == (2, 1)

    def test_route_decision_next_hop(self, routing):
        decision = routing.route_decision(0, 3, opportunistic=False)
        assert decision.next_hop == 1
        assert decision.forwarder_list == ()
