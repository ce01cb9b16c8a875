"""Busy/idle edges reach a MAC only while it holds its radio's ``mac_active``.

A MAC that sets ``needs_every_edge`` False promises that its edge callbacks
do nothing unless it holds the flag: :class:`~repro.mac.base.ChannelAccess`
holds it from ``request()`` to the grant, RIPPLE while a relay is pending.
:class:`EveryEdgeRadio` below calls its MAC at every edge, as radios did
before the flag existed.  At each call the real radio would skip, it
checks that the call changed nothing; whole scenarios must then be
identical under both radios, ``events_processed`` and every per-node
counter included.
"""

import pytest

import repro.experiments.runner as runner
import repro.topology.network as network
from repro.core.ripple import RippleMac
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mac.base import RouteDecision
from repro.mac.dcf import DcfMac
from repro.mac.frames import SubPacket, build_data_frame
from repro.mac.registry import MAC_SCHEMES
from repro.mac.timing import DEFAULT_TIMING
from repro.packet import Packet
from repro.phy.channel import WirelessChannel
from repro.phy.error_models import BitErrorModel
from repro.phy.params import PhyParams
from repro.phy.propagation import ShadowingPropagation
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import us
from repro.spec import MacSpec

from tests.phy.test_channel import RecordingMac, make_frame
from tests.phy.test_signal_runs import SCENARIOS  # fig5b, Roofnet (low-rate PHY), mobile


class EveryEdgeRadio(Radio):
    """Calls its MAC at every busy/idle edge; records what ``mac_active`` would have done."""

    @property
    def mac_active(self):
        return self.mac is not None

    @mac_active.setter
    def mac_active(self, value):
        self.gated = value


def _mac_state(mac, sim):
    """Everything a skipped edge call could have changed."""
    access = mac.access
    relays = getattr(mac, "_pending_relays", {})
    return (
        access._grant,
        access._active,
        access._remaining_slots,
        access._count_from,
        [(frame_id, pending, pending.event) for frame_id, pending in relays.items()],
        sim.pending_events,
        sim.cancelled_pending_events,
    )


def _probe_skipped_calls(mac, radio, sim, skipped):
    """Wrap ``mac``'s edge callbacks: a call the real radio skips must change nothing."""
    for name in ("on_channel_busy", "on_channel_idle"):
        callback = getattr(mac, name)

        def probed(callback=callback, name=name):
            if radio.gated:
                callback()
                return
            before = _mac_state(mac, sim)
            callback()
            assert _mac_state(mac, sim) == before, (name, radio.node_id, sim.now)
            skipped[name] += 1

        setattr(mac, name, probed)


def _run(config, radio_cls):
    """The scenario's result, its per-node counters and the calls the probes skipped."""
    built = []
    skipped = {"on_channel_busy": 0, "on_channel_idle": 0}
    build = runner.build_network

    def capture(config):
        built.append(build(config))
        net = built[-1][0]
        if radio_cls is EveryEdgeRadio:
            for node in net.nodes.values():
                _probe_skipped_calls(node.mac, node.radio, net.sim, skipped)
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "Radio", radio_cls)
        patch.setattr(runner, "build_network", capture)
        result = run_scenario(config).to_dict()
    net = built[0][0]
    nodes = [node for _, node in sorted(net.nodes.items())]
    layers = (
        [node.radio.stats for node in nodes],
        [node.mac.stats for node in nodes],
        [getattr(node.mac, "ripple_stats", None) for node in nodes],
        net.channel.stats,
    )
    return result, layers, skipped


#: Every registered family, plus rate adaptation around RIPPLE.
MACS = {name: MacSpec(name) for name in MAC_SCHEMES.names()}
MACS["rate_adapt(ripple)"] = MacSpec("rate_adapt", {"inner": "ripple"})


@pytest.mark.parametrize("mac", sorted(MACS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_identical_to_a_radio_calling_every_edge(scenario, mac):
    config = ScenarioConfig(seed=5, mac=MACS[mac], **SCENARIOS[scenario])
    result, layers, _ = _run(config, Radio)
    reference, reference_layers, skipped = _run(config, EveryEdgeRadio)
    assert reference["events_processed"] > 1000
    assert result == reference
    assert layers == reference_layers
    # Every family opts in, so the real radio skipped both kinds of call.
    assert skipped["on_channel_busy"] > 0 and skipped["on_channel_idle"] > 0, skipped


# ----------------------------------------------------------------------
# The flag itself
# ----------------------------------------------------------------------
def _medium():
    sim = Simulator()
    channel = WirelessChannel(
        sim, PhyParams(),
        propagation=ShadowingPropagation(shadowing_deviation_db=0.0),
        error_model=BitErrorModel(0.0),
        rng=RandomStreams(1),
    )
    return sim, channel


class TestAttach:
    def test_a_radio_without_mac_calls_nothing(self):
        _sim, channel = _medium()
        radio = Radio(0, (0.0, 0.0), channel)
        assert radio.mac_active is False
        radio._signal_start(None)
        radio._signal_end(None)  # no MAC: must not raise

    def test_an_undeclared_mac_gets_every_edge(self):
        sim, channel = _medium()
        sender, radio = Radio(0, (0.0, 0.0), channel), Radio(1, (100.0, 0.0), channel)
        mac = RecordingMac()
        radio.attach_mac(mac)
        assert radio.mac_active is True
        frame = make_frame()
        sender.transmit(frame, us(50))
        radio.transmit(make_frame(origin=1, transmitter=1, receiver=0), us(10))
        sim.run()
        assert (mac.busy_events, mac.idle_events) == (1, 1)

    def test_an_opted_in_mac_starts_inactive(self):
        sim, channel = _medium()
        radio = Radio(1, (0.0, 0.0), channel)
        mac = DcfMac(sim, 1, radio, PhyParams(), DEFAULT_TIMING, RandomStreams(1))
        assert DcfMac.needs_every_edge is False
        assert radio.mac_active is False

    def test_holds_are_counted(self):
        _sim, channel = _medium()
        radio = Radio(0, (0.0, 0.0), channel)
        radio.attach_mac(type("Quiet", (RecordingMac,), {"needs_every_edge": False})())
        assert radio.mac_active is False
        radio.hold_mac_active()
        radio.hold_mac_active()
        radio.release_mac_active()
        assert radio.mac_active is True
        radio.release_mac_active()
        assert radio.mac_active is False


def _data_frame(forwarders, origin=0, final_dst=4):
    packet = Packet(src=origin, dst=final_dst, size_bytes=1000, seq=0)
    return build_data_frame(
        DEFAULT_TIMING, origin=origin, final_dst=final_dst, transmitter=origin, receiver=None,
        subpackets=[SubPacket(packet=packet, mac_seq=0, bits=DEFAULT_TIMING.subpacket_bits(1000))],
        forwarder_list=forwarders,
    )


class TestChannelAccessHold:
    def test_request_on_a_busy_medium_is_resumed_by_the_idle_edge(self):
        sim, channel = _medium()
        sender = Radio(0, (0.0, 0.0), channel)
        radio = Radio(1, (100.0, 0.0), channel)
        mac = DcfMac(sim, 1, radio, PhyParams(), DEFAULT_TIMING, RandomStreams(1))
        frame = make_frame(receiver=9)
        transmission = sender.transmit(frame, us(300))
        sim.run(until=us(100))
        assert radio.busy and not radio.mac_active
        mac.enqueue(Packet(src=1, dst=2, size_bytes=200, seq=0), RouteDecision(final_dst=2, next_hop=2))
        assert radio.mac_active  # set before reading the busy medium
        at_grant = []
        granted = mac.access._on_granted

        def record():
            at_grant.append((sim.now, radio.mac_active))
            granted()

        mac.access._on_granted = record
        sim.run(until=transmission.end_time + DEFAULT_TIMING.difs_ns + 16 * DEFAULT_TIMING.slot_ns)
        # The idle edge resumed the access, and the grant released the flag.
        assert mac.stats.data_frames_sent == 1
        assert at_grant and at_grant[0][0] >= transmission.end_time + DEFAULT_TIMING.difs_ns
        assert at_grant[0][1] is False


class TestRippleRelayHold:
    """RIPPLE contending with a relay pending: two reasons, counted."""

    def _contending_forwarder(self, required_idle_ns):
        sim, channel = _medium()
        sender = Radio(0, (0.0, 0.0), channel)
        radio = Radio(1, (100.0, 0.0), channel)
        mac = RippleMac(sim, 1, radio, PhyParams(), DEFAULT_TIMING, RandomStreams(1))
        transmission = sender.transmit(make_frame(receiver=9), us(300))
        sim.run(until=us(100))
        assert radio.busy and not radio.mac_active
        mac.enqueue(Packet(src=1, dst=5, size_bytes=200, seq=0), RouteDecision(final_dst=5))
        relay = _data_frame((1,)).relay_copy(transmitter=1)
        mac._schedule_relay(relay, required_idle_ns)
        assert radio._mac_holds == 2 and radio.mac_active
        return sim, radio, mac, relay, transmission

    def test_releasing_the_relay_keeps_the_contender_active(self):
        sim, radio, mac, relay, transmission = self._contending_forwarder(us(25))
        mac._cancel_relay(relay.frame_id, suppressed=True)
        assert radio.mac_active and radio._mac_holds == 1
        # The idle edge still reaches the access, which wins the medium.
        sim.run(until=transmission.end_time + DEFAULT_TIMING.difs_ns + 16 * DEFAULT_TIMING.slot_ns)
        assert mac.stats.data_frames_sent == 1
        assert not radio.mac_active and radio._mac_holds == 0

    def test_releasing_the_contention_keeps_the_relay_active(self):
        # A relay deferring longer than any first backoff: the grant comes first.
        slow = DEFAULT_TIMING.difs_ns + 40 * DEFAULT_TIMING.slot_ns
        sim, radio, mac, relay, _transmission = self._contending_forwarder(slow)
        at_grant = []
        granted = mac.access._on_granted

        def record():
            at_grant.append((radio.mac_active, radio._mac_holds, list(mac._pending_relays)))
            granted()

        mac.access._on_granted = record
        sim.run()
        assert at_grant[0] == (True, 1, [relay.frame_id])
        # The relay still went out once the medium stayed idle long enough.
        assert mac.stats.relayed_data_frames == 1
        assert not mac._pending_relays
        assert not radio.mac_active and radio._mac_holds == 0

    def test_a_relay_put_back_by_a_busy_medium_stays_held(self):
        sim, channel = _medium()
        radio = Radio(1, (100.0, 0.0), channel)
        mac = RippleMac(sim, 1, radio, PhyParams(), DEFAULT_TIMING, RandomStreams(1))
        relay = _data_frame((1,)).relay_copy(transmitter=1)
        mac._schedule_relay(relay, DEFAULT_TIMING.sifs_ns + DEFAULT_TIMING.slot_ns)
        pending = mac._pending_relays[relay.frame_id]
        radio._signal_start(None)  # the busy edge cancels the armed relay
        assert pending.event is None
        mac._fire_relay(pending)  # as an event that lost the same-instant race would
        assert mac._pending_relays == {relay.frame_id: pending}
        assert radio.mac_active and radio._mac_holds == 1
        radio._signal_end(None)  # the idle edge re-arms it
        sim.run()
        assert mac.stats.relayed_data_frames == 1
        assert not mac._pending_relays
        assert not radio.mac_active and radio._mac_holds == 0
