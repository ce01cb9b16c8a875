"""Radio + channel behaviour: delivery, carrier sensing, collisions, hidden terminals."""

import pytest

import repro.experiments.runner as runner
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.frames import FrameKind, MacFrame, SubPacket
from repro.mac.timing import DEFAULT_TIMING
from repro.packet import Packet
from repro.phy.channel import Transmission, WirelessChannel
from repro.phy.error_models import BitErrorModel
from repro.phy.params import LOW_RATE_PHY, PhyParams
from repro.phy.propagation import ShadowingPropagation
from repro.phy.radio import Radio, RadioState
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import us
from repro.topology.roofnet import roofnet_scenario


class RecordingMac:
    """Minimal MAC stub capturing everything the radio reports."""

    def __init__(self):
        self.received = []
        self.busy_events = 0
        self.idle_events = 0
        self.tx_complete = []

    def on_channel_busy(self):
        self.busy_events += 1

    def on_channel_idle(self):
        self.idle_events += 1

    def acts_on(self, frame):
        return True  # every decoded frame is reported, whoever it is addressed to

    def on_frame_received(self, frame, errors):
        self.received.append((frame, errors))

    def on_transmission_complete(self, frame):
        self.tx_complete.append(frame)


class IgnoringMac(RecordingMac):
    """A MAC that acts on no frame, so every clean frame it hears owes its draws."""

    def acts_on(self, frame):
        return False


def decode_ignored(receiver, frame, sender):
    """Hand ``receiver`` ``frame`` from ``sender`` as a clean, decodable signal."""
    transmission = Transmission(0, frame, sender, receiver._sim.now, 1)
    receiver._signal_start(transmission)
    receiver._signal_end(transmission)


def make_frame(origin=0, transmitter=0, receiver=1, n_sub=1, size=1000):
    subpackets = [
        SubPacket(
            packet=Packet(src=origin, dst=receiver, size_bytes=size, seq=i),
            mac_seq=i,
            bits=DEFAULT_TIMING.subpacket_bits(size),
        )
        for i in range(n_sub)
    ]
    return MacFrame(
        kind=FrameKind.DATA,
        origin=origin,
        final_dst=receiver,
        transmitter=transmitter,
        receiver=receiver,
        header_bits=DEFAULT_TIMING.header_bits(),
        subpackets=subpackets,
    )


def build(positions, ber=0.0, deviation=0.0, seed=1):
    """A channel with deterministic propagation (no shadowing) by default."""
    sim = Simulator()
    channel = WirelessChannel(
        sim,
        PhyParams(),
        propagation=ShadowingPropagation(shadowing_deviation_db=deviation),
        error_model=BitErrorModel(ber),
        rng=RandomStreams(seed),
    )
    radios = []
    macs = []
    for node_id, position in enumerate(positions):
        radio = Radio(node_id, position, channel)
        mac = RecordingMac()
        radio.attach_mac(mac)
        radios.append(radio)
        macs.append(mac)
    return sim, channel, radios, macs


class TestDelivery:
    def test_nearby_receiver_decodes_frame(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        frame = make_frame()
        radios[0].transmit(frame, us(100))
        sim.run()
        assert len(macs[1].received) == 1
        received_frame, errors = macs[1].received[0]
        assert received_frame is frame
        assert errors.header_ok and errors.subpacket_ok == [True]

    def test_out_of_range_receiver_hears_nothing(self):
        sim, channel, radios, macs = build([(0, 0), (5000, 0)])
        radios[0].transmit(make_frame(), us(100))
        sim.run()
        assert macs[1].received == []
        assert macs[1].busy_events == 0

    def test_sender_gets_completion_callback(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        frame = make_frame()
        radios[0].transmit(frame, us(100))
        sim.run()
        assert macs[0].tx_complete == [frame]

    def test_broadcast_reaches_all_in_range(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0), (0, 100), (120, 120)])
        radios[0].transmit(make_frame(), us(50))
        sim.run()
        assert all(len(mac.received) == 1 for mac in macs[1:])

    def test_half_duplex_sender_does_not_receive_itself(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        radios[0].transmit(make_frame(), us(50))
        sim.run()
        assert macs[0].received == []


class TestCarrierSense:
    def test_busy_during_transmission(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        radios[0].transmit(make_frame(), us(100))
        sim.run(until=us(50))
        assert radios[0].is_channel_busy  # own transmission
        assert radios[1].is_channel_busy  # sensed signal
        sim.run()
        assert not radios[0].is_channel_busy
        assert not radios[1].is_channel_busy

    def test_busy_idle_callbacks_fire_once_per_transition(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        radios[0].transmit(make_frame(), us(100))
        sim.run()
        assert macs[1].busy_events == 1
        assert macs[1].idle_events == 1

    def test_idle_since_updates_at_end_of_signal(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        radios[0].transmit(make_frame(), us(100))
        sim.run()
        assert radios[1].idle_since >= us(100)

    def test_radio_state_enum(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        assert radios[0].state is RadioState.IDLE
        radios[0].transmit(make_frame(), us(100))
        assert radios[0].state is RadioState.TRANSMITTING
        sim.run(until=us(10))
        assert radios[1].state is RadioState.RECEIVING


class TestCollisions:
    def test_overlapping_transmissions_collide_at_receiver(self):
        # Two senders both in range of the middle receiver transmit at once.
        sim, channel, radios, macs = build([(0, 0), (150, 0), (300, 0)])
        radios[0].transmit(make_frame(origin=0, transmitter=0, receiver=1), us(100))
        radios[2].transmit(make_frame(origin=2, transmitter=2, receiver=1), us(100))
        sim.run()
        assert macs[1].received == []
        assert radios[1].stats.frames_collided >= 1

    def test_hidden_terminal_collision(self):
        # Sender 3 is beyond carrier-sense range of sender 0 (560 m > ~400 m
        # nominal CS range) but close enough to receiver 1 (360 m) that its
        # signal interferes there: the classic hidden-terminal loss.
        sim, channel, radios, macs = build([(0, 0), (200, 0), (760, 0), (560, 0)])
        radios[0].transmit(make_frame(origin=0, transmitter=0, receiver=1), us(200))
        sim.run(until=us(50))
        assert not radios[3].is_channel_busy  # genuinely hidden
        radios[3].transmit(make_frame(origin=3, transmitter=3, receiver=2), us(200))
        sim.run()
        assert macs[1].received == []

    def test_non_overlapping_transmissions_both_delivered(self):
        sim, channel, radios, macs = build([(0, 0), (150, 0), (300, 0)])
        radios[0].transmit(make_frame(origin=0, transmitter=0, receiver=1), us(50))
        sim.run()
        radios[2].transmit(make_frame(origin=2, transmitter=2, receiver=1), us(50))
        sim.run()
        assert len(macs[1].received) == 2

    def test_transmitting_while_receiving_destroys_reception(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        radios[0].transmit(make_frame(origin=0, transmitter=0, receiver=1), us(100))
        sim.run(until=us(10))
        radios[1].transmit(make_frame(origin=1, transmitter=1, receiver=0), us(10))
        sim.run()
        assert macs[1].received == []


class TestNeighborhoodCulling:
    """The per-sender candidate index must be an exact, not heuristic, cull."""

    def test_candidates_exclude_only_provably_unreachable(self):
        # deviation=8: the margin is 6 sigma = 48 dB of headroom.
        sim, channel, radios, macs = build(
            [(0, 0), (100, 0), (900, 0), (20000, 0)], deviation=8.0
        )
        candidates = channel.candidate_receivers(radios[0])
        assert radios[1] in candidates
        assert radios[2] in candidates  # unreachable on mean power, not at +6 sigma
        assert radios[3] not in candidates  # beyond even the maximum fade
        assert radios[0] not in candidates  # never a receiver of itself

    def test_culled_radio_can_never_be_sensed(self):
        # The margin guarantee: power draws for a culled link are bounded
        # below the carrier-sense threshold, for any number of frames.
        sim, channel, radios, macs = build([(0, 0), (20000, 0)], deviation=8.0)
        assert radios[1] not in channel.candidate_receivers(radios[0])
        max_fade = channel.propagation.max_shadowing_db()
        mean = channel.propagation.mean_received_power_dbm(
            channel.params.tx_power_dbm, channel.distance(radios[0], radios[1])
        )
        assert mean + max_fade < channel.params.cs_threshold_dbm
        rng = channel.rng.stream_for("shadowing", 0, 1)
        for _ in range(200):
            power = channel.propagation.received_power_dbm(
                channel.params.tx_power_dbm, channel.distance(radios[0], radios[1]), rng
            )
            assert power < channel.params.cs_threshold_dbm

    def test_dispatch_outcome_independent_of_registration_order(self):
        # Keyed per-link RNG: the same (seed, link) sees the same fades no
        # matter how many radios exist or in which order they registered.
        positions = [(0, 0), (115, 0), (230, 0), (345, 0)]

        def deliveries(order):
            sim = Simulator()
            channel = WirelessChannel(
                sim, PhyParams(), error_model=BitErrorModel(0.0), rng=RandomStreams(3)
            )
            radios = {}
            macs = {}
            for node_id in order:
                radios[node_id] = Radio(node_id, positions[node_id], channel)
                macs[node_id] = RecordingMac()
                radios[node_id].attach_mac(macs[node_id])
            for _ in range(20):
                radios[0].transmit(make_frame(), us(50))
                sim.run()
            return {node_id: len(mac.received) for node_id, mac in macs.items()}

        assert deliveries([0, 1, 2, 3]) == deliveries([3, 2, 1, 0])

    def test_candidate_cache_invalidated_by_movement(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)], deviation=0.0)
        assert radios[1] in channel.candidate_receivers(radios[0])
        radios[1].move_to((20000.0, 0.0))
        assert radios[1] not in channel.candidate_receivers(radios[0])
        radios[1].move_to((100.0, 0.0))
        assert radios[1] in channel.candidate_receivers(radios[0])

    def test_candidate_cache_invalidated_by_registration(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        assert len(channel.candidate_receivers(radios[0])) == 1
        late = Radio(99, (50.0, 0.0), channel)
        late.attach_mac(RecordingMac())
        assert late in channel.candidate_receivers(radios[0])

    def test_zero_deviation_culls_on_mean_power_exactly(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0), (5000, 0)], deviation=0.0)
        candidates = channel.candidate_receivers(radios[0])
        assert radios[1] in candidates and radios[2] not in candidates

    def test_radios_property_returns_defensive_copy(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)])
        listed = channel.radios
        listed.clear()
        assert channel.radios == radios


class TestBitErrors:
    def test_high_ber_corrupts_some_subpackets(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)], ber=1e-4)
        for _ in range(30):
            radios[0].transmit(make_frame(n_sub=4), us(200))
            sim.run()
        flags = [ok for _, errors in macs[1].received for ok in errors.subpacket_ok]
        assert any(flags) and not all(flags)

    # The draws the tests below share: 300 frames of four 8,000-bit
    # sub-packets through the channel's own bit-error path at BER 1e-4,
    # where a sub-packet survives with e^-0.8 ~ 0.449.
    FRAMES = 300

    @pytest.fixture(scope="class")
    def draws(self):
        _, channel, radios, _ = build([(0, 0), (100, 0)], ber=1e-4)
        frame = make_frame(n_sub=4)
        for subpacket in frame.subpackets:
            subpacket.bits = 8000
        results = [channel.apply_bit_errors(frame, radios[1], radios[0]) for _ in range(self.FRAMES)]
        return channel.error_model, frame, results

    @staticmethod
    def within_four_sigma(model, successes, trials, bits):
        expected = model.success_probability(bits)
        sigma = (expected * (1 - expected) / trials) ** 0.5
        return abs(successes / trials - expected) <= 4 * sigma

    def test_one_flag_per_subpacket(self, draws):
        _, _, results = draws
        assert all(isinstance(result.header_ok, bool) for result in results)
        assert all(len(result.subpacket_ok) == 4 for result in results)

    def test_subpackets_fail_independently(self, draws):
        # Each sub-packet takes its own draw, so most frames deliver some
        # sub-packets and lose others: the property AFR's and RIPPLE's
        # partial retransmissions rest on.  Caught mutation: a frame's
        # sub-packets sharing one uniform (no frame is mixed).
        _, _, results = draws
        mixed = sum(any(r.subpacket_ok) and not all(r.subpacket_ok) for r in results)
        assert mixed > 50

    def test_subpacket_success_matches_the_model_rate(self, draws):
        # Caught mutation: sub-packets tested against the header's
        # probability (their rate reads ~0.97).
        model, _, results = draws
        subpackets = sum(sum(result.subpacket_ok) for result in results)
        assert self.within_four_sigma(model, subpackets, 4 * self.FRAMES, 8000)

    def test_header_success_matches_the_model_rate(self, draws):
        model, frame, results = draws
        headers = sum(result.header_ok for result in results)
        assert self.within_four_sigma(model, headers, self.FRAMES, frame.header_bits)

    def test_link_delivery_probability_combines_power_and_ber(self):
        sim, channel, radios, macs = build([(0, 0), (100, 0)], ber=1e-5)
        p = channel.link_delivery_probability(radios[0], radios[1], frame_bits=8000)
        assert 0.85 < p < 0.95  # ~0.92 from BER alone at this short distance

    def test_owed_draws_leave_the_link_stream_where_full_draws_would(self):
        # Frames nothing acts on owe their draws; the full evaluations that
        # follow must read what full evaluations alone would.  The link owes
        # before its first evaluation, and the frame with 130 sub-packets
        # takes more uniforms than one buffered block.
        _, mixed, mixed_radios, _ = build([(0, 0), (100, 0)], ber=1e-4, seed=4)
        _, full, full_radios, _ = build([(0, 0), (100, 0)], ber=1e-4, seed=4)
        mixed_radios[1].attach_mac(IgnoringMac())
        frames = [make_frame(n_sub=k % 5) for k in range(60)] + [make_frame(n_sub=130)] * 3
        frames.append(make_frame(n_sub=2))
        results = []
        ignored = 0
        for k, frame in enumerate(frames):
            expected = full.apply_bit_errors(frame, full_radios[1], full_radios[0])
            results.append(expected)
            if k % 3 != 2 and k != len(frames) - 1:
                decode_ignored(mixed_radios[1], frame, mixed_radios[0])
                ignored += 1
            else:
                assert mixed.apply_bit_errors(frame, mixed_radios[1], mixed_radios[0]) == expected
                assert not mixed_radios[1].owed  # the evaluation settled what the link owed
        assert mixed_radios[1].stats.frames_decoded == ignored
        # The draws exercised both outcomes of the header and sub-packet checks.
        assert 0 < sum(result.header_ok for result in results) < len(results)
        flags = [ok for result in results for ok in result.subpacket_ok]
        assert any(flags) and not all(flags)

    def test_table_overflow_drops_built_streams_and_keeps_owed_counts(self, monkeypatch):
        # The documented overflow contract: a full table of built uniform
        # streams is dropped, so a rebuilt stream loses the uniforms its
        # predecessor had buffered; what a link owes lives on the receiving
        # radio and survives, so the rebuilt stream still skips it.
        frames = [make_frame(n_sub=4) for _ in range(20)]

        def draws(cap, owe):
            monkeypatch.setattr(WirelessChannel, "LINK_FADES_MAX", cap)
            _, channel, radios, _ = build([(0, 0), (100, 0), (200, 0)], ber=1e-4, seed=4)
            radios[1].attach_mac(IgnoringMac())
            if owe:
                decode_ignored(radios[1], frames[0], radios[0])

            def on_0_to_1(batch):
                return [channel.apply_bit_errors(frame, radios[1], radios[0]) for frame in batch]

            def on_0_to_2():
                channel.apply_bit_errors(frames[0], radios[2], radios[0])

            on_0_to_2()  # builds link 0->2's stream: a cap of 1 is now reached
            before = on_0_to_1(frames[:10])  # overflows, then builds link 0->1's
            on_0_to_2()  # overflows: link 0->1's stream goes, its buffer part-served
            return before, on_0_to_1(frames[10:])

        before, after = draws(1, owe=True)
        uncapped_before, uncapped_after = draws(1 << 16, owe=True)
        assert before == uncapped_before
        assert before != draws(1 << 16, owe=False)[0]
        assert after != uncapped_after

    def test_only_links_a_mac_acted_on_build_a_bit_error_generator(self, monkeypatch):
        # On Roofnet most links carry only frames no MAC acts on.
        built, acted, networks = set(), set(), []
        stream_for = RandomStreams.stream_for
        apply_bit_errors = WirelessChannel.apply_bit_errors
        build_network = runner.build_network

        def recording_stream_for(streams, name, *keys):
            if name == "biterror":
                built.add(keys)
            return stream_for(streams, name, *keys)

        def recording_apply(channel, frame, receiver=None, sender=None):
            acted.add((sender.node_id, receiver.node_id))
            return apply_bit_errors(channel, frame, receiver, sender)

        def capturing_build(config):
            network, routing = build_network(config)
            networks.append(network)
            return network, routing

        monkeypatch.setattr(RandomStreams, "stream_for", recording_stream_for)
        monkeypatch.setattr(WirelessChannel, "apply_bit_errors", recording_apply)
        monkeypatch.setattr(runner, "build_network", capturing_build)
        run_scenario(ScenarioConfig(
            topology=roofnet_scenario(seed=7), phy=LOW_RATE_PHY, scheme_label="D",
            duration_s=0.1, seed=5001,
        ))
        # What each radio still owes at the end: a link never acted on
        # keeps every draw it owed, so every such link shows up here.
        owed = {
            (sender, node.radio.node_id)
            for node in networks[0].nodes.values()
            for sender in node.radio.owed
        }
        assert built == acted
        assert len(owed - acted) > len(acted)

    def test_distance_helper(self):
        sim, channel, radios, macs = build([(0, 0), (3, 4)])
        assert channel.distance(radios[0], radios[1]) == pytest.approx(5.0)
