"""MobilityManager: tick scheduling, static short-circuit, re-estimation wiring."""

import pytest

from repro.mobility.manager import MobilityManager
from repro.mobility.models import RandomWaypoint, StaticMobility, TraceMobility
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import seconds


def make_manager(model, sim=None, mobile_nodes=None, interval_s=0.1):
    sim = sim or Simulator()
    moves = []
    manager = MobilityManager(
        sim,
        model,
        RandomStreams(seed=4).stream("mobility"),
        update_interval_ns=seconds(interval_s),
        move_node=lambda node_id, pos: moves.append((node_id, pos)),
        mobile_nodes=mobile_nodes,
    )
    return sim, manager, moves


class TestStaticShortCircuit:
    def test_static_model_schedules_nothing(self):
        sim, manager, moves = make_manager(StaticMobility())
        manager.start({0: (0.0, 0.0), 1: (10.0, 0.0)})
        assert sim.pending_events == 0
        sim.run(until=seconds(1.0))
        assert sim.processed_events == 0
        assert moves == []

    def test_zero_speed_waypoint_schedules_nothing(self):
        sim, manager, moves = make_manager(RandomWaypoint(0.0, 0.0))
        manager.start({0: (0.0, 0.0)})
        assert sim.pending_events == 0


class TestTicking:
    def test_tick_cadence(self):
        sim, manager, moves = make_manager(RandomWaypoint(1.0, 5.0), interval_s=0.1)
        manager.start({0: (0.0, 0.0)})
        sim.run(until=seconds(1.0))
        assert manager.updates == 10
        assert moves, "a 5 m/s node should have moved"

    def test_mobile_nodes_filter(self):
        sim, manager, moves = make_manager(
            TraceMobility(
                {
                    0: [(0.0, 0.0, 0.0), (1.0, 50.0, 0.0)],
                    1: [(0.0, 10.0, 0.0), (1.0, 60.0, 0.0)],
                }
            ),
            mobile_nodes=[1],
            interval_s=0.25,
        )
        manager.start({0: (0.0, 0.0), 1: (10.0, 0.0)})
        sim.run(until=seconds(1.0))
        assert {node_id for node_id, _ in moves} == {1}

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            make_manager(RandomWaypoint(1.0, 5.0), interval_s=0.0)


class TestReestimation:
    def test_reestimation_fires_on_its_own_cadence(self):
        sim, manager, _moves = make_manager(RandomWaypoint(1.0, 5.0), interval_s=0.1)
        calls = []
        manager.add_reestimation(seconds(0.5), lambda: calls.append(sim.now))
        manager.start({0: (0.0, 0.0)})
        sim.run(until=seconds(1.0))
        assert calls == [seconds(0.5), seconds(1.0)]
        assert manager.reestimations == 2

    def test_no_reestimation_without_callbacks(self):
        sim, manager, _moves = make_manager(RandomWaypoint(1.0, 5.0), interval_s=0.1)
        manager.start({0: (0.0, 0.0)})
        sim.run(until=seconds(1.0))
        assert manager.reestimations == 0

    def test_reestimation_sees_positions_at_its_own_timestamp(self):
        # A re-estimation coinciding with a position tick fires first (lower
        # event seq) but must not observe one-interval-stale geometry: the
        # shared advance brings every node to the callback's timestamp.
        model = TraceMobility({0: [(0.0, 0.0, 0.0), (1.0, 100.0, 0.0)]})
        sim, manager, _moves = make_manager(model, interval_s=0.1)
        observed = []
        manager.add_reestimation(
            seconds(0.5), lambda: observed.append(model.position(0))
        )
        manager.start({0: (0.0, 0.0)})
        sim.run(until=seconds(1.0))
        assert observed[0] == pytest.approx((50.0, 0.0))  # not the t=0.4 (40, 0)
        assert observed[1] == pytest.approx((100.0, 0.0))

    def test_multiple_reestimations_keep_their_own_cadence(self):
        sim, manager, _moves = make_manager(RandomWaypoint(1.0, 5.0), interval_s=0.1)
        fast, slow = [], []
        manager.add_reestimation(seconds(0.2), lambda: fast.append(sim.now))
        manager.add_reestimation(seconds(0.5), lambda: slow.append(sim.now))
        manager.start({0: (0.0, 0.0)})
        sim.run(until=seconds(1.0))
        assert len(fast) == 5
        assert slow == [seconds(0.5), seconds(1.0)]

    def test_reestimation_not_scheduled_for_static_model(self):
        sim, manager, _moves = make_manager(StaticMobility())
        calls = []
        manager.add_reestimation(seconds(0.5), lambda: calls.append(sim.now))
        manager.start({0: (0.0, 0.0)})
        sim.run(until=seconds(2.0))
        assert calls == []
