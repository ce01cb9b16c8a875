"""RIPPLE behaviour: mTXOP relaying, ordering, aggregation, end-to-end retransmission."""

import pytest

from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.frames import FrameKind, build_data_frame
from repro.mac.timing import DEFAULT_TIMING
from repro.phy.channel import WirelessChannel
from repro.phy.params import LOW_RATE_PHY
from repro.topology.roofnet import roofnet_scenario
from repro.topology.standard import fig5b_topology
from tests.conftest import build_chain_network, collect_deliveries, inject_packets


class TestRelaying:
    def test_forwarders_relay_data_and_acks(self):
        # With a deterministic channel the source reaches the rank-1 forwarder
        # (node 2) but not the destination, so node 2 carries the relay work;
        # the rank-2 forwarder is suppressed by overhearing node 2 / the ACK.
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 20)
        net.run_seconds(0.3)
        assert len(received) == 20
        total_data_relays = sum(net.node(f).mac.ripple_stats.data_relays for f in (1, 2))
        total_ack_relays = sum(net.node(f).mac.ripple_stats.ack_relays for f in (1, 2))
        # Aggregation packs the 20 packets into a handful of frames; every one
        # of those frames needed at least one relay to reach the destination.
        assert total_data_relays >= net.node(0).mac.stats.data_frames_sent
        assert total_data_relays > 0
        assert total_ack_relays > 0

    def test_lower_priority_forwarder_helps_on_lossy_channel(self):
        # With shadowing, the rank-1 forwarder sometimes misses the frame and
        # the rank-2 forwarder (node 1) steps in after its longer deferral.
        net, _ = build_chain_network("ripple", n_nodes=4, hop_m=150.0, ber=1e-6, seed=11)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 40)
        net.run_seconds(1.0)
        assert len(received) >= 30
        assert net.node(1).mac.ripple_stats.data_relays > 0

    def test_forwarders_never_deliver_to_their_upper_layer(self):
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 3, 10)
        net.run_seconds(0.3)
        assert net.node(1).network.stats.forwarded == 0
        assert net.node(2).network.stats.forwarded == 0

    def test_relay_happens_within_the_mtxop_without_new_contention(self):
        # The forwarders never start their own channel-access procedure for
        # relayed traffic: mtxop_started counts only locally originated frames.
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 3, 10)
        net.run_seconds(0.3)
        assert net.node(1).mac.ripple_stats.mtxop_started == 0
        assert net.node(0).mac.ripple_stats.mtxop_started > 0

    def test_higher_priority_relay_suppresses_lower(self):
        # With a perfect channel every station hears every other, so the
        # rank-1 forwarder's relay (or the destination's ACK) suppresses the
        # rank-2 forwarder at least some of the time; total relays stay
        # bounded by one per forwarder per frame.
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 3, 20)
        net.run_seconds(0.3)
        frames_sent = net.node(0).mac.stats.data_frames_sent
        for forwarder in (1, 2):
            assert net.node(forwarder).mac.ripple_stats.data_relays <= frames_sent


class TestRelayReplacement:
    def test_replaced_relay_goes_out_once_at_its_own_deferral(self, monkeypatch):
        # A second relay of the same frame id replaces the pending one.  The
        # first entry's timer must die with it: left armed, it fired at the
        # first deferral and sent the relay before the second's was over.
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        mac = net.node(1).mac
        sent = []
        monkeypatch.setattr(
            type(mac.radio),
            "transmit",
            lambda radio, frame, airtime_ns: sent.append((radio.node_id, net.sim.now, frame)),
        )
        first = build_data_frame(DEFAULT_TIMING, 0, 3, 1, None, [], forwarder_list=(3, 2, 1))
        second = first.relay_copy(transmitter=1)
        mac._schedule_relay(first, 50_000)
        first_event = mac._pending_relays[first.frame_id].event
        net.run(10_000)
        mac._schedule_relay(second, 100_000)
        assert first_event.cancelled
        net.run(1_000_000)
        assert sent == [(1, 100_000, second)]
        assert mac.ripple_stats.data_relays == 1


class TestOrderingInvariant:
    """RIPPLE's core claim: relaying never re-orders packets."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_in_order_delivery_on_lossy_channel(self, seed):
        net, _ = build_chain_network("ripple", n_nodes=4, hop_m=150.0, ber=1e-5, seed=seed)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 40)
        net.run_seconds(1.0)
        seqs = [p.seq for p in received]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_in_order_delivery_without_aggregation(self, seed):
        net, _ = build_chain_network("ripple1", n_nodes=4, hop_m=150.0, ber=1e-5, seed=seed)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 40)
        net.run_seconds(1.0)
        seqs = [p.seq for p in received]
        assert seqs == sorted(seqs)

    def test_most_packets_arrive_despite_losses(self):
        net, _ = build_chain_network("ripple", n_nodes=4, hop_m=150.0, ber=1e-5, seed=7)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 40)
        net.run_seconds(1.0)
        assert len(received) >= 35


class TestAggregation:
    def test_two_way_aggregation_reduces_frame_count(self):
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 3, 48)
        net.run_seconds(0.3)
        stats = net.node(0).mac.stats
        assert stats.aggregated_frames > 0
        assert stats.data_frames_sent < 48
        assert stats.mean_aggregation > 4

    def test_ripple1_sends_one_packet_per_frame(self):
        net, _ = build_chain_network("ripple1", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 3, 20)
        net.run_seconds(0.3)
        assert net.node(0).mac.stats.mean_aggregation == pytest.approx(1.0)

    def test_aggregation_capped_at_custom_maximum(self):
        net, _ = build_chain_network(
            "ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0, max_aggregation=8
        )
        inject_packets(net, 0, 3, 48)
        net.run_seconds(0.3)
        assert net.node(0).mac.stats.mean_aggregation <= 8.0 + 1e-9


class TestEndToEndRetransmission:
    def test_source_retransmits_when_destination_unreachable(self):
        # Only two nodes, far apart: no forwarders can help, the mTXOP times
        # out and the source retransmits end to end until the retry limit.
        net, _ = build_chain_network("ripple", n_nodes=2, hop_m=450.0, seed=3)
        received = collect_deliveries(net, 1)
        inject_packets(net, 0, 1, 5)
        net.run_seconds(0.5)
        stats = net.node(0).mac
        assert stats.ripple_stats.end_to_end_retransmissions > 0

    def test_retry_limit_eventually_drops(self):
        net, _ = build_chain_network("ripple", n_nodes=2, hop_m=800.0, seed=3)
        inject_packets(net, 0, 1, 3)
        net.run_seconds(1.0)
        assert net.node(0).mac.stats.packets_dropped_retry > 0

    def test_partial_ack_keeps_only_missing_subpackets(self):
        # High BER corrupts some sub-packets per aggregate; everything must
        # still arrive exactly once (Rq + per-sub-packet ACKs).
        net, _ = build_chain_network(
            "ripple", n_nodes=3, ber=3e-5, shadowing_deviation=0.0, seed=8
        )
        received = collect_deliveries(net, 2)
        inject_packets(net, 0, 2, 48)
        net.run_seconds(1.0)
        seqs = [p.seq for p in received]
        assert len(seqs) == len(set(seqs))
        assert seqs == sorted(seqs)
        assert len(seqs) == 48


class TestBoundedState:
    """Forwarder/destination bookkeeping must not grow with run length."""

    def test_relayed_and_suppressed_sets_are_bounded(self):
        from repro.core.ripple import _RecentFrameIds

        ids = _RecentFrameIds(capacity=4)
        for frame_id in range(10):
            ids.add(frame_id)
        assert len(ids) == 4
        # Oldest ids were evicted, newest kept.
        assert 0 not in ids and 5 not in ids
        assert all(frame_id in ids for frame_id in (6, 7, 8, 9))
        ids.add(9)  # re-adding is a no-op
        assert len(ids) == 4
        ids.discard(9)
        assert 9 not in ids and len(ids) == 3

    def test_forwarder_state_stays_bounded_over_a_run(self):
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        inject_packets(net, 0, 3, 60)
        net.run_seconds(0.5)
        for node_id in (1, 2):
            mac = net.node(node_id).mac
            assert len(mac._relayed_frames) <= mac._relayed_frames.capacity
            assert len(mac._suppressed_frames) <= mac._suppressed_frames.capacity

    def test_destination_ack_history_pruned_below_watermark(self):
        # A long transfer pushes the origin's flush watermark forward; the
        # destination must forget acked sequence numbers below it instead of
        # remembering every sequence number of the whole run.
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 48)
        net.run_seconds(0.5)
        assert len(received) == 48
        acked_sets = net.node(3).mac._acked_seqs_per_origin
        assert acked_sets, "destination should have tracked at least one origin"
        for acked in acked_sets.values():
            # Far fewer than the 60 sequence numbers delivered: only the
            # still-outstanding tail survives the watermark pruning.
            assert len(acked) <= 2 * net.node(0).mac.max_aggregation

    def test_rq_releases_bypass_the_sequence_filter(self):
        # The Rq already orders packets and drops duplicates, so nothing is
        # remembered per released packet.
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        received = collect_deliveries(net, 3)
        inject_packets(net, 0, 3, 48)
        net.run_seconds(0.5)
        destination = net.node(3).mac
        assert len(received) == destination.stats.packets_delivered == 48
        assert destination._delivered == {}


class TestMtxopTimeout:
    def test_timeout_covers_worst_case_relay_chain(self):
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        mac = net.node(0).mac
        frame = build_data_frame(
            DEFAULT_TIMING, origin=0, final_dst=3, transmitter=0, receiver=None,
            subpackets=[], forwarder_list=(2, 1),
        )
        timeout = mac.mtxop_timeout_ns(frame)
        n = 2
        min_needed = (
            n * (DEFAULT_TIMING.sifs_ns + n * DEFAULT_TIMING.slot_ns + frame.airtime_ns(mac.phy))
            + DEFAULT_TIMING.sifs_ns
            + DEFAULT_TIMING.ack_airtime_ns(mac.phy, n)
        )
        assert timeout > min_needed

    def test_timeout_grows_with_forwarder_count(self):
        net, _ = build_chain_network("ripple", n_nodes=4, ber=0.0, shadowing_deviation=0.0)
        mac = net.node(0).mac
        short = build_data_frame(DEFAULT_TIMING, 0, 3, 0, None, [], forwarder_list=(1,))
        long = build_data_frame(DEFAULT_TIMING, 0, 3, 0, None, [], forwarder_list=(1, 2, 4, 5, 6))
        assert mac.mtxop_timeout_ns(long) > mac.mtxop_timeout_ns(short)


class TestAckForwarderLists:
    """A RIPPLE ACK carries the forwarder list of the frame it acknowledges.

    The radio's interest filter is exact for RIPPLE ACKs only because of
    this: a station with a relay of a DATA frame pending is on that frame's
    list, so it is on the list of the ACK that cancels the relay.
    """

    @pytest.mark.parametrize(
        "scenario",
        [
            dict(topology=fig5b_topology()),
            dict(topology=roofnet_scenario(seed=7), phy=LOW_RATE_PHY),
        ],
        ids=["fig5b", "roofnet"],
    )
    def test_acks_carry_the_acknowledged_frames_forwarder_list(self, scenario):
        frames = []
        start = WirelessChannel.start_transmission

        def recording(channel, sender, frame, duration_ns):
            frames.append(frame)
            return start(channel, sender, frame, duration_ns)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(WirelessChannel, "start_transmission", recording)
            run_scenario(ScenarioConfig(scheme_label="R16", duration_s=0.15, seed=3, **scenario))
        lists = {}
        for frame in frames:
            if frame.kind is FrameKind.DATA:
                lists.setdefault(frame.frame_id, set()).add(frame.forwarder_list)
        acks = [frame for frame in frames if frame.kind is FrameKind.ACK]
        assert any(ack.forwarder_list for ack in acks)
        assert any(ack.transmitter != ack.origin for ack in acks)  # relayed ACKs too
        for ack in acks:
            assert lists[ack.ack_for_frame] == {ack.forwarder_list}
