"""Discrete-event engine: ordering, cancellation, run-until semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Event, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, fired.append, "c")
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(100, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(123, lambda: None)
        sim.run()
        assert sim.now == 123

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(50, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(10, lambda: None)

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(10, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 50


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()
        assert sim.processed_events == 0

    def test_other_events_survive_a_cancellation(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "keep")
        sim.schedule(10, fired.append, "drop").cancel()
        sim.run()
        assert fired == ["keep"]


class TestRunControl:
    def test_run_until_executes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "at")
        sim.schedule(101, fired.append, "after")
        sim.run(until=100)
        assert fired == ["at"]
        assert sim.now == 100

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_processed_events_counts_only_fired(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None).cancel()
        sim.run()
        assert sim.processed_events == 1

    def test_max_events_leaves_clock_at_last_executed_event(self):
        # A truncated run must not jump the clock past still-pending events:
        # that would make the next run() raise "time went backwards".
        sim = Simulator()
        fired = []
        for t in (10, 20, 30):
            sim.schedule(t, fired.append, t)
        sim.run(until=100, max_events=1)
        assert fired == [10]
        assert sim.now == 10
        sim.run(until=100)
        assert fired == [10, 20, 30]
        assert sim.now == 100

    def test_max_events_advances_clock_when_rest_is_beyond_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, 10)
        sim.schedule(500, fired.append, 500)
        sim.run(until=100, max_events=1)
        assert fired == [10]
        assert sim.now == 100  # the only pending event is after `until`

    def test_max_events_without_until_keeps_clock(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(max_events=1)
        assert sim.now == 10

    @given(delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50))
    def test_events_never_fire_out_of_order(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)


class TestHeapCompaction:
    """Lazy cancellation must not grow the heap unboundedly."""

    def test_compaction_drops_cancelled_entries(self):
        sim = Simulator()
        events = [sim.schedule(100 + i, lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # The heap was rebuilt (at least once) when dead weight crossed half,
        # so cancelled entries can never dominate the heap.
        assert sim.pending_events < 200
        assert sim.cancelled_pending_events * 2 <= sim.pending_events
        sim.run()
        assert sim.processed_events == 50

    def test_small_heaps_are_left_alone(self):
        sim = Simulator()
        keep = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None).cancel()
        sim.schedule(30, lambda: None).cancel()
        assert sim.pending_events == 3  # below the compaction threshold
        sim.run()
        assert sim.processed_events == 1
        assert keep.cancelled  # fired

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        fired = []
        survivors = []
        for i in range(200):
            event = sim.schedule(1000 - i, fired.append, 1000 - i)
            if i % 4 != 0:
                event.cancel()
            else:
                survivors.append(1000 - i)
        sim.run()
        assert fired == sorted(survivors)

    def test_cancel_after_fire_does_not_distort_accounting(self):
        sim = Simulator()
        handles = [sim.schedule(i, lambda: None) for i in range(5)]
        sim.run()
        for handle in handles:
            handle.cancel()  # stale handles: already fired
        assert sim.cancelled_pending_events == 0
        assert sim.pending_events == 0


class TestTupleSlotsRepresentation:
    """Heap entries are (time, seq, event) tuples around __slots__ Events."""

    def test_event_has_no_dict(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.arbitrary_new_attribute = 1

    def test_event_exposes_time_seq_and_active(self):
        sim = Simulator()
        first = sim.schedule(10, lambda: None)
        second = sim.schedule(10, lambda: None)
        assert (first.time, second.time) == (10, 10)
        assert first.seq < second.seq  # FIFO tie-break ordering key
        assert not first.cancelled and not second.cancelled
        first.cancel()
        assert first.cancelled and not second.cancelled

    def test_cancel_after_fire_is_a_noop(self):
        # run() marks a fired event cancelled to guard stale handles; a
        # later cancel() must neither call on_cancel bookkeeping twice nor
        # force a compaction of live entries.
        sim = Simulator()
        fired = []
        handle = sim.schedule(5, fired.append, "x")
        later = sim.schedule(10, fired.append, "y")
        sim.run(until=5)
        assert fired == ["x"]
        handle.cancel()
        assert sim.cancelled_pending_events == 0
        sim.run()
        assert fired == ["x", "y"]
        assert later.cancelled  # fired, not dropped

    def test_seq_ties_fifo_across_compaction(self):
        # Interleave many same-time events with cancellations so compaction
        # (triggered above COMPACT_MIN_HEAP) rebuilds the tuple heap, then
        # verify survivors still fire in scheduling order.
        sim = Simulator()
        fired = []
        survivors = []
        for i in range(300):
            event = sim.schedule(1000, fired.append, i)
            if i % 3 == 0:
                survivors.append(i)
            else:
                event.cancel()
        assert sim.pending_events < 300  # compaction ran at least once
        sim.run()
        assert fired == survivors

    def test_callback_cancelling_future_events_mid_run(self):
        # A callback that cancels enough events to trigger compaction while
        # run() holds its local heap alias must not lose pending events.
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(100 + i, fired.append, f"doomed{i}") for i in range(100)]
        keeper = sim.schedule(500, fired.append, "keeper")

        def massacre():
            for event in doomed:
                event.cancel()

        sim.schedule(50, massacre)
        sim.run()
        assert fired == ["keeper"]
        assert keeper.cancelled  # fired
        assert sim.pending_events == 0

    def test_direct_event_construction_defaults(self):
        event = Event(5, 0, lambda: None)
        assert event.args == () and event.on_cancel is None
        event.cancel()  # no on_cancel hook: must not raise
        assert event.cancelled


class NoFreelistSimulator(Simulator):
    """Reference engine: every Event is a fresh allocation (no recycling)."""

    FREELIST_MAX = 0


class TestEventFreelist:
    """Event recycling: a recycled handle must be indistinguishable from new."""

    def test_fired_event_is_recycled_with_fresh_state(self):
        sim = Simulator()
        fired = []
        old = sim.schedule(10, fired.append, "old")
        sim.run()
        new = sim.schedule(10, fired.append, "new")
        assert new is old  # the pool actually recycled the object
        assert not new.cancelled and new.args == ("new",)
        sim.run()
        assert fired == ["old", "new"]

    def test_cancelled_then_recycled_event_never_fires_old_callback(self):
        sim = Simulator()
        fired = []
        old = sim.schedule(10, fired.append, "stale")
        old.cancel()
        sim.run()  # consumes the dead heap entry -> Event returns to the pool
        reused = sim.schedule(5, fired.append, "fresh")
        assert reused is old
        sim.run()
        assert fired == ["fresh"]

    def test_recycling_waits_for_the_heap_entry_not_the_cancel(self):
        # cancel() must NOT return the Event to the pool: its heap entry is
        # still queued, and recycling it early would let a new timer alias
        # the dead entry.  The object may only come back once run() (or
        # compaction) has consumed the entry.
        sim = Simulator()
        old = sim.schedule(10, lambda: None)
        old.cancel()
        fresh = sim.schedule(20, lambda: None)  # pool still empty here
        assert fresh is not old
        sim.run()
        recycled = sim.schedule(30, lambda: None)
        assert recycled is old or recycled is fresh

    def test_on_cancel_runs_exactly_once(self):
        calls = []
        event = Event(5, 0, lambda: None, on_cancel=lambda: calls.append(1))
        event.cancel()
        event.cancel()  # double-cancel is a no-op
        assert calls == [1]

    def test_simulator_cancel_accounting_once_per_event(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.cancelled_pending_events == 1

    def test_cancel_after_fire_does_not_disturb_accounting(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        handle.cancel()  # stale handle
        assert sim.cancelled_pending_events == 0

    def test_compaction_feeds_the_freelist(self):
        sim = Simulator()
        handles = [sim.schedule(100 + i, lambda: None) for i in range(200)]
        for handle in handles:
            handle.cancel()  # crossing the 50% threshold triggers _compact
        assert sim.pending_events < 200
        fresh = sim.schedule(5, lambda: None)
        assert fresh in handles  # compaction recycled the dropped Events

    def test_freelist_is_bounded(self):
        sim = Simulator()
        for i in range(Simulator.FREELIST_MAX + 500):
            sim.schedule(i, lambda: None)
        sim.run()
        assert len(sim._free) <= Simulator.FREELIST_MAX

    def test_no_freelist_subclass_always_allocates(self):
        sim = NoFreelistSimulator()
        old = sim.schedule(10, lambda: None)
        sim.run()
        assert sim.schedule(10, lambda: None) is not old


def schedule_frame(sim, log, start, end, offsets):
    """One frame's windows as signal runs; callbacks log ``(edge, payload, now)``."""
    items = [
        (
            offset,
            lambda payload: log.append(("open", payload, sim.now)),
            lambda payload: log.append(("close", payload, sim.now)),
        )
        for offset in offsets
    ]
    sim.schedule_runs(start, end, items, [f"rx{i}" for i in range(len(offsets))])


class TestSignalFastPath:
    """The four-tuple signal entries: fixed shape, no Event, never cancelled."""

    def test_schedule_signal_fires_with_payload(self):
        sim = Simulator()
        got = []
        sim.schedule_signal(50, got.append, "payload")
        sim.run()
        assert got == ["payload"]
        assert (sim.now, sim.processed_events) == (50, 1)

    def test_signal_entries_interleave_deterministically_with_events(self):
        # Same timestamp: scheduling order decides, regardless of entry shape.
        sim = Simulator()
        log = []
        sim.schedule(10, log.append, "event-first")
        sim.schedule_signal(10, log.append, "signal-second")
        sim.schedule(10, log.append, "event-third")
        sim.run()
        assert log == ["event-first", "signal-second", "event-third"]


class TestSignalRuns:
    """A frame's windows as two runs: same instants, same order, same counts."""

    def test_runs_fire_each_window_at_its_offset(self):
        sim = Simulator()
        log = []
        schedule_frame(sim, log, 10, 30, [0, 2, 2, 5])
        assert sim.pending_events == 2  # one entry per run
        sim.run()
        assert log == [
            ("open", "rx0", 10), ("open", "rx1", 12), ("open", "rx2", 12), ("open", "rx3", 15),
            ("close", "rx0", 30), ("close", "rx1", 32), ("close", "rx2", 32), ("close", "rx3", 35),
        ]
        assert sim.processed_events == 8

    def test_same_instant_event_fires_in_scheduling_order(self):
        sim = Simulator()
        log = []
        sim.schedule_at(12, lambda: log.append(("event-before", None, sim.now)))
        schedule_frame(sim, log, 10, 30, [0, 2, 2])
        sim.schedule_at(12, lambda: log.append(("event-after", None, sim.now)))
        sim.run(until=20)
        assert log == [
            ("open", "rx0", 10),
            ("event-before", None, 12),
            ("open", "rx1", 12),
            ("open", "rx2", 12),
            ("event-after", None, 12),
        ]

    def test_event_inside_a_run_splits_it(self):
        sim = Simulator()
        log = []
        schedule_frame(sim, log, 10, 100, [0, 10, 20])
        sim.schedule_at(25, lambda: log.append(("event", None, sim.now)))
        # An item's callback can also split its own run.
        sim.schedule_at(9, lambda: sim.schedule_at(15, log.append, ("nested", None, 15)))
        sim.run(until=50)
        assert log == [
            ("open", "rx0", 10),
            ("nested", None, 15),
            ("open", "rx1", 20),
            ("event", None, 25),
            ("open", "rx2", 30),
        ]
        assert sim.processed_events == 6

    def test_run_until_stops_inside_a_run_and_resumes(self):
        sim = Simulator()
        log = []
        schedule_frame(sim, log, 10, 100, [0, 10, 20])
        sim.run(until=20)
        assert [entry[1:] for entry in log] == [("rx0", 10), ("rx1", 20)]
        assert (sim.now, sim.processed_events) == (20, 2)
        sim.run(until=25)
        assert (len(log), sim.now) == (2, 25)
        sim.run()
        assert [entry[1:] for entry in log[2:]] == [
            ("rx2", 30), ("rx0", 100), ("rx1", 110), ("rx2", 120)
        ]
        assert sim.processed_events == 6

    def test_step_fires_one_item(self):
        sim = Simulator()
        log = []
        schedule_frame(sim, log, 10, 30, [0, 0, 5])
        sim.run(max_events=1)
        assert (len(log), sim.now, sim.processed_events) == (1, 10, 1)
        sim.run(max_events=1)
        assert (len(log), sim.now, sim.processed_events) == (2, 10, 2)
        while sim.pending_events:
            sim.run(max_events=1)
        assert (len(log), sim.processed_events) == (6, 6)

    def test_max_events_counts_items(self):
        sim = Simulator()
        log = []
        schedule_frame(sim, log, 10, 30, [0, 0, 5])
        sim.run(until=100, max_events=4)
        assert (len(log), sim.now, sim.processed_events) == (4, 30, 4)
        sim.run(until=100)
        assert (len(log), sim.now, sim.processed_events) == (6, 100, 6)

    def test_run_entries_survive_compaction(self):
        sim = Simulator()
        log = []
        schedule_frame(sim, log, 500, 600, [0, 1])
        doomed = [sim.schedule(100 + i, lambda: None) for i in range(100)]
        for handle in doomed:
            handle.cancel()  # triggers compaction around the run entries
        assert sim.pending_events < 100
        sim.run()
        assert [entry[1:] for entry in log] == [
            ("rx0", 500), ("rx1", 501), ("rx0", 600), ("rx1", 601)
        ]

    def test_a_raising_callback_spends_only_its_own_item(self):
        sim = Simulator()
        log = []

        def boom(payload):
            raise RuntimeError(payload)

        items = [(0, log.append, None), (1, boom, None), (2, log.append, None)]
        sim.schedule_runs(10, 20, items, ["a", "b", "c"])
        with pytest.raises(RuntimeError, match="b"):
            sim.run()
        assert (log, sim.now, sim.processed_events) == (["a"], 11, 1)
        sim.run(until=12)
        assert (log, sim.processed_events) == (["a", "c"], 2)

    @settings(max_examples=150, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.integers(0, 40),  # when the frame starts
                st.integers(0, 30),  # its duration
                st.lists(st.integers(0, 12), min_size=1, max_size=5),  # delays
            ),
            min_size=1,
            max_size=6,
        ),
        timers=st.lists(st.integers(0, 90), max_size=8),
        follow_up=st.integers(0, 15),
        mode=st.sampled_from(["run", "until", "step", "max_events"]),
    )
    def test_matches_one_entry_per_item(self, frames, timers, follow_up, mode):
        """Random frames, timers and callback-scheduled events, run every way."""

        def trace(per_item):
            sim = Simulator()
            log = []

            def item(label):
                def callback(payload):
                    log.append((sim.now, label, payload))
                    if payload % 3 == 0:
                        sim.schedule(follow_up, log.append, (sim.now, "follow-up", payload))
                return callback

            def transmit(duration, delays):
                items = [(delay, item("open"), item("close")) for delay in sorted(delays)]
                payloads = list(range(len(items)))
                if per_item:
                    for (delay, opened, closed), payload in zip(items, payloads):
                        sim.schedule_signal(sim.now + delay, opened, payload)
                        sim.schedule_signal(sim.now + duration + delay, closed, payload)
                else:
                    sim.schedule_runs(sim.now, sim.now + duration, items, payloads)

            for index, (start, duration, delays) in enumerate(frames):
                sim.schedule_at(start, transmit, duration, delays)
                if index < len(timers):
                    sim.schedule_at(timers[index], log.append, (timers[index], "timer", index))
            if mode == "run":
                sim.run()
            elif mode == "until":
                for until in range(0, 200, 7):
                    sim.run(until=until)
            elif mode == "step":
                while sim.pending_events:
                    sim.run(max_events=1)
            else:
                while sim.pending_events:
                    sim.run(max_events=3)
            return log, sim.now, sim.processed_events

        assert trace(per_item=False) == trace(per_item=True)


class TestFreelistDeterminism:
    """Recycling must not perturb the simulation: slab == no-freelist, bit for bit."""

    def test_full_scenario_identical_with_and_without_freelist(self, monkeypatch):
        import repro.topology.network as network
        from repro.experiments.runner import ScenarioConfig, run_scenario
        from repro.topology.standard import line_topology

        config = ScenarioConfig(topology=line_topology(4), duration_s=0.05, seed=3)
        slab = run_scenario(config).to_dict()
        monkeypatch.setattr(network, "Simulator", NoFreelistSimulator)
        reference = run_scenario(config).to_dict()
        assert slab == reference
