"""DCF and AFR behaviour over the real channel (small deterministic scenarios)."""

import dataclasses

import pytest

from repro.mac.frames import FrameKind
from repro.phy.error_models import FrameErrorResult
from repro.sim.units import seconds
from tests.conftest import build_chain_network, collect_deliveries, inject_packets
from tests.phy.test_channel import make_frame


class TestDcfSingleHop:
    def test_packets_delivered_in_order(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        received = collect_deliveries(net, 1)
        inject_packets(net, 0, 1, 20)
        net.run_seconds(0.2)
        assert [p.seq for p in received] == list(range(20))

    def test_perfect_channel_no_retransmissions(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 1, 10)
        net.run_seconds(0.2)
        assert net.node(0).mac.stats.ack_timeouts == 0
        assert net.node(0).mac.stats.data_frames_sent == 10

    def test_ack_exchanged_per_frame(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 1, 5)
        net.run_seconds(0.1)
        assert net.node(1).mac.stats.ack_frames_sent == 5
        assert net.node(0).mac.stats.ack_frames_received == 5

    def test_queue_overflow_drops(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 1, 120)  # queue capacity is 50
        net.run_seconds(0.5)
        assert net.node(0).mac.stats.packets_dropped_queue > 0

    def test_lossy_channel_triggers_retries_but_delivers(self):
        net, _ = build_chain_network(
            "dcf", n_nodes=2, hop_m=220.0, ber=1e-6, seed=5
        )  # ~50 % frame loss on the single hop
        received = collect_deliveries(net, 1)
        inject_packets(net, 0, 1, 20)
        net.run_seconds(1.0)
        assert net.node(0).mac.stats.ack_timeouts > 0
        assert len(received) >= 15  # MAC retries recover most packets


class TestDcfMultiHop:
    def test_three_hop_forwarding(self):
        net, _ = build_chain_network("dcf", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 15)
        net.run_seconds(0.3)
        assert len(received) == 15
        # Intermediate nodes forwarded at the network layer.
        assert net.node(1).network.stats.forwarded == 15
        assert net.node(2).network.stats.forwarded == 15

    def test_no_duplicate_deliveries(self):
        net, _ = build_chain_network("dcf", n_nodes=4, seed=9)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 30)
        net.run_seconds(0.5)
        seqs = [p.seq for p in received]
        assert len(seqs) == len(set(seqs))

    def test_mac_dedup_suppresses_retransmitted_duplicates(self):
        # On a lossy link ACKs get lost, so the same frame is retransmitted and
        # would be delivered twice without the (origin, seq) duplicate filter.
        net, _ = build_chain_network("dcf", n_nodes=2, hop_m=200.0, seed=12)
        received = collect_deliveries(net, 1)
        inject_packets(net, 0, 1, 40)
        net.run_seconds(1.0)
        seqs = [p.seq for p in received]
        assert len(seqs) == len(set(seqs))

    def test_duplicate_filter_stays_bounded(self):
        # Batches keep the lossy link busy far beyond the filter's window,
        # and lost ACKs keep producing duplicates for it to catch.
        net, _ = build_chain_network("dcf", n_nodes=2, hop_m=200.0, seed=12)
        received = collect_deliveries(net, 1)
        for batch in range(8):
            net.sim.schedule_at(seconds(0.1 * batch), inject_packets, net, 0, 1, 40)
        net.run_seconds(1.0)
        mac = net.node(1).mac
        window = (mac.timing.retry_limit + 1) * mac.max_aggregation
        assert mac.stats.packets_delivered > 10 * window
        assert mac.stats.duplicate_deliveries > 0
        assert len(received) == len({id(packet) for packet in received})
        assert list(mac._delivered) == [0]
        assert len(mac._delivered[0]) <= 2 * window + 1


class TestAfrAggregation:
    def test_frames_carry_multiple_packets(self):
        net, _ = build_chain_network("afr", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        received = collect_deliveries(net, 1)
        inject_packets(net, 0, 1, 32)
        net.run_seconds(0.2)
        stats = net.node(0).mac.stats
        assert len(received) == 32
        assert stats.aggregated_frames > 0
        assert stats.data_frames_sent < 32  # strictly fewer frames than packets
        assert stats.mean_aggregation > 2

    def test_aggregation_respects_maximum(self):
        net, _ = build_chain_network(
            "afr", n_nodes=2, ber=0.0, shadowing_deviation=0.0, max_aggregation=4
        )
        inject_packets(net, 0, 1, 40)
        net.run_seconds(0.3)
        assert net.node(0).mac.stats.mean_aggregation <= 4.0 + 1e-9

    def test_afr_uses_fewer_frames_than_dcf(self):
        results = {}
        for scheme in ("dcf", "afr"):
            net, _ = build_chain_network(scheme, n_nodes=2, ber=0.0, shadowing_deviation=0.0)
            inject_packets(net, 0, 1, 48)
            net.run_seconds(0.3)
            results[scheme] = net.node(0).mac.stats.data_frames_sent
        assert results["afr"] < results["dcf"]

    def test_partial_corruption_retransmits_only_missing(self):
        # A high BER corrupts some sub-packets; AFR must still deliver every
        # packet eventually by retransmitting only what was lost.
        net, _ = build_chain_network("afr", n_nodes=2, ber=2e-5, shadowing_deviation=0.0, seed=4)
        received = collect_deliveries(net, 1)
        inject_packets(net, 0, 1, 48)
        net.run_seconds(1.0)
        assert len(received) == 48
        assert net.node(0).mac.stats.subpackets_sent > 48  # some were resent

    def test_all_packets_unique_after_partial_retransmission(self):
        net, _ = build_chain_network("afr", n_nodes=2, ber=2e-5, shadowing_deviation=0.0, seed=4)
        received = collect_deliveries(net, 1)
        inject_packets(net, 0, 1, 48)
        net.run_seconds(1.0)
        seqs = [p.seq for p in received]
        assert len(seqs) == len(set(seqs))


class TestFramesForOtherStations:
    """Every MAC acts on no frame its ``acts_on`` rejects.

    This is what lets the radio skip ``on_frame_received`` for such frames.
    The station under test has a frame of its own out; a RIPPLE station also
    has a relay pending.
    """

    @pytest.mark.parametrize(
        "scheme, mac_kwargs",
        [
            ("dcf", {}),
            ("afr", {}),
            ("rate_adapt", {"inner": "dcf"}),
            ("rate_adapt", {"inner": "afr"}),
            ("ripple", {}),
            ("ripple1", {}),
            ("rate_adapt", {"inner": "ripple"}),
            ("preexor", {}),
            ("mcexor", {}),
        ],
    )
    def test_frame_for_another_station_changes_nothing(self, scheme, mac_kwargs):
        net, _ = build_chain_network(scheme, n_nodes=3, **mac_kwargs)
        inject_packets(net, 0, 2, 5)
        inject_packets(net, 1, 2, 5, flow_id=2)
        mac = net.node(1).mac
        while mac._current_frame is None:  # until the station has a frame of its own out
            net.sim.run(max_events=1)
        pending_relays = getattr(mac, "_pending_relays", None)
        if pending_relays is not None:
            relayed = dataclasses.replace(_anycast(origin=0, final_dst=2), forwarder_list=(1,))
            mac.on_frame_received(relayed, FrameErrorResult(True, [True]))
            assert list(pending_relays) == [relayed.frame_id]
        # Frames of the flow 0 -> 2, as a unicast and as an opportunistic
        # scheme would send them, naming station 1 nowhere.
        unicast = make_frame(origin=0, transmitter=0, receiver=2, n_sub=3)
        anycast = _anycast(origin=0, final_dst=2)
        acks = [
            _ack(unicast, receiver=0),
            _ack(anycast, receiver=None),
            # An ACK for the station's own frame, but addressed to another station.
            dataclasses.replace(_ack(mac._current_frame, receiver=0), final_dst=0),
        ]
        if scheme in ("preexor", "mcexor"):
            # They count every ACK heard, and an ACK for another station
            # can tell a tracked receiver it was outranked.
            assert all(mac.acts_on(ack) for ack in acks)
            acks = []

        def state():
            return (
                dataclasses.replace(mac.stats),
                dataclasses.replace(mac.ripple_stats) if pending_relays is not None else None,
                {key: (relay.frame, relay.event) for key, relay in (pending_relays or {}).items()},
                net.sim.pending_events,
                net.sim.cancelled_pending_events,
            )

        for frame in [unicast, anycast, *acks]:
            assert not mac.acts_on(frame)
            before = state()
            mac.on_frame_received(frame, FrameErrorResult(True, [True] * len(frame.subpackets)))
            assert state() == before


def _anycast(origin, final_dst):
    """An opportunistic DATA frame: no receiver, no forwarders."""
    return dataclasses.replace(
        make_frame(origin=origin, transmitter=origin, receiver=final_dst, n_sub=2), receiver=None
    )


def _ack(data, receiver):
    """The final destination's ACK for ``data``, carrying its forwarder list."""
    return dataclasses.replace(
        make_frame(origin=data.final_dst, transmitter=data.final_dst, receiver=data.origin, n_sub=0),
        kind=FrameKind.ACK,
        receiver=receiver,
        forwarder_list=data.forwarder_list,
        acked_seqs=(0,),
        ack_for_frame=data.frame_id,
    )
