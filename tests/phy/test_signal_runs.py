"""The PHY hot path against the plainest model of the same physics.

The reference below dispatches frames one reception at a time and keeps the
no-capture model in its most literal form:

* :class:`ReferenceChannel` keeps each plan in registration order, draws
  each link's fades into a buffer of its own, 64 at a time, takes 16 of them
  per plan refill and compares float powers with the thresholds; a plan
  dropped when stations move loses the rest of its 16 rows.  It leaves out
  the stations :meth:`~repro.phy.channel.WirelessChannel.restrict_dispatch`
  left out, as the channel under test does.  It puts two
  entries on the heap per sensed reception, its start and its end, each
  carrying a :class:`Reception` record;
* :class:`ReferenceRadio` keeps a dict of those records with ``interfered``
  flags, and for every clean decodable frame draws the whole bit-error
  result and calls ``on_frame_received``, whether or not the MAC's
  ``acts_on`` accepts the frame.  So every link's bit-error stream advances
  by every frame decoded over it, where the radio under test draws only
  for frames a MAC acts on.  Only its accounting follows the radio under
  test: a frame the MAC does not act on counts in ``frames_decoded``
  whatever its header's draw said.

The channel's per-plan fade blocks and sensing codes, its signal runs, the
radio's counted carrier sense and its interest-filtered delivery must give
every callback the same instant and order and every counter the same value,
so whole scenarios stay byte-identical, ``events_processed`` included.
"""

import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner
import repro.topology.network as network
from repro.experiments.mobility import mobility_spec
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.phy.channel import Transmission, WirelessChannel
from repro.phy.error_models import BitErrorModel
from repro.phy.params import LOW_RATE_PHY, PhyParams
from repro.phy.propagation import ShadowingPropagation, propagation_delay_ns
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import us
from repro.spec import MacSpec
from repro.topology.roofnet import roofnet_scenario
from repro.topology.standard import fig5b_topology, voip_topology

from tests.phy.test_channel import RecordingMac, make_frame


@dataclass(slots=True)
class Reception:
    """One signal arriving at one receiver."""

    transmission: Transmission
    power_dbm: float
    decodable: bool
    interfered: bool = False


class ReferenceRadio(Radio):
    """No capture with one :class:`Reception` record per arriving signal."""

    def __init__(self, node_id, position, channel):
        self.receptions = {}
        super().__init__(node_id, position, channel)

    def transmit(self, frame, duration_ns):
        was_busy = self.busy
        transmission = self.channel.start_transmission(self, frame, duration_ns)
        self._current_tx = transmission
        self.busy = True
        for reception in self.receptions.values():
            reception.interfered = True
        self.stats.frames_sent += 1
        self.stats.airtime_tx_ns += duration_ns
        if not was_busy and self.mac is not None:
            self.mac.on_channel_busy()
        return transmission

    def _end_own_transmission(self, transmission):
        self._current_tx = None
        if not self.receptions:
            self.busy = False
            self._idle_since = self._sim.now
            if self.mac is not None:
                self.mac.on_channel_idle()
        if self.mac is not None:
            self.mac.on_transmission_complete(transmission.frame)

    def _signal_start(self, reception):
        was_busy = self.busy
        if self._current_tx is not None or self.receptions:
            reception.interfered = True
            for other in self.receptions.values():
                other.interfered = True
        self.receptions[reception.transmission.transmission_id] = reception
        self.busy = True
        if not was_busy and self.mac is not None:
            self.mac.on_channel_busy()

    def _signal_end(self, reception):
        del self.receptions[reception.transmission.transmission_id]
        if self._current_tx is None and not self.receptions:
            self.busy = False
            self._idle_since = self._sim.now
            if self.mac is not None:
                self.mac.on_channel_idle()
        if not reception.decodable:
            return
        if reception.interfered:
            self.stats.frames_collided += 1
            return
        transmission = reception.transmission
        frame = transmission.frame
        result = self.channel.apply_bit_errors(frame, receiver=self, sender=transmission.sender)
        # The radio under test never draws a frame nothing acts on, so
        # such a frame counts as decoded whatever its draw said.
        if not result.header_ok and self.mac is not None and self.mac.acts_on(frame):
            self.stats.frames_header_error += 1
            return
        self.stats.frames_decoded += 1
        if result.header_ok and self.mac is not None:
            self.mac.on_frame_received(frame, result)


class ReferenceLinkFades:
    """One link's fades, drawn into a buffer of its own 64 at a time."""

    BATCH = 64

    def __init__(self, generator):
        self.generator = generator
        self.buffer = []
        self.index = 0

    def take(self, propagation, count):
        if self.index >= len(self.buffer):
            self.buffer = propagation.fade_batch_db(self.generator, self.BATCH).tolist()
            self.index = 0
        self.index += count
        return self.buffer[self.index - count : self.index]


class ReferencePlan:
    """A sender's candidates in registration order, and its current 16 rows of powers."""

    BLOCK = 16

    def __init__(self, entries, links, means, end_own):
        self.entries = entries
        self.links = links
        self.means = means
        self.end_own = end_own
        self.rows = []
        self.row_index = 0

    def next_powers(self, propagation):
        if self.row_index >= len(self.rows):
            blocks = [link.take(propagation, self.BLOCK) for link in self.links]
            self.rows = [
                [block[row] + mean for block, mean in zip(blocks, self.means)]
                for row in range(self.BLOCK)
            ]
            self.row_index = 0
        self.row_index += 1
        return self.rows[self.row_index - 1]


class ReferenceChannel(WirelessChannel):
    """Plans in registration order, per-link fade buffers, two heap entries per sensed reception."""

    def __init__(self, *args, **kwargs):
        self.reference_plans = {}
        self.reference_links = {}
        super().__init__(*args, **kwargs)

    def _invalidate_geometry(self):
        super()._invalidate_geometry()
        self.reference_plans.clear()

    def _reference_plan(self, sender):
        plan = self.reference_plans.get(sender.node_id)
        if plan is not None:
            return plan
        params, propagation = self.params, self.propagation
        floor = params.cs_threshold_dbm - propagation.max_shadowing_db()
        entries, links, means = [], [], []
        for radio in self._radios:
            if radio is sender or radio.node_id in self.excluded:
                continue
            distance = self.distance(sender, radio)
            mean = propagation.mean_received_power_dbm(params.tx_power_dbm, distance)
            if mean < floor:
                continue
            delay = propagation_delay_ns(distance) if self.model_propagation_delay else 0
            key = (sender.node_id, radio.node_id)
            link = self.reference_links.get(key)
            if link is None:
                link = self.reference_links[key] = ReferenceLinkFades(
                    self.rng.stream_for("shadowing", *key)
                )
            entries.append((delay, radio._signal_start, radio._signal_end))
            links.append(link)
            means.append(mean)
        plan = ReferencePlan(entries, links, means, sender._end_own_transmission)
        self.reference_plans[sender.node_id] = plan
        return plan

    def start_transmission(self, sender, frame, duration_ns):
        sim = self.sim
        now = sim.now
        transmission = Transmission(next(self._ids), frame, sender, now, duration_ns)
        self.stats.transmissions += 1
        plan = self._reference_plan(sender)
        if plan.entries:
            powers = plan.next_powers(self.propagation)
            for (delay, signal_start, signal_end), power in zip(plan.entries, powers):
                if power < self.params.cs_threshold_dbm:
                    continue
                reception = Reception(transmission, power, power >= self.params.rx_threshold_dbm)
                self.stats.deliveries_attempted += 1
                sim.schedule_signal(now + delay, signal_start, reception)
                sim.schedule_signal(now + duration_ns + delay, signal_end, reception)
        sim.schedule_signal(now + duration_ns, plan.end_own, transmission)
        return transmission


SCENARIOS = {
    # Hidden terminals: receptions collide at relays the senders cannot sense.
    "fig5b": dict(topology=fig5b_topology(), duration_s=0.15),
    # ~8 sensed receivers per frame at the 11 reachable stations, with
    # delays from 0.07 to 1.9 us.
    "roofnet": dict(topology=roofnet_scenario(seed=7), phy=LOW_RATE_PHY, duration_s=0.15),
    # Every mobility tick rebuilds the plans while runs are in flight.
    "mobile": dict(
        topology=voip_topology(), route_set="ROUTE0", active_flows=[1, 2, 3, 4],
        mobility=mobility_spec(20.0, pause_s=0.0), phy=LOW_RATE_PHY, duration_s=0.3,
    ),
}

SCHEMES = {
    "D": dict(scheme_label="D"),
    "A": dict(scheme_label="A"),
    "R16": dict(scheme_label="R16"),
    "preExOR": dict(scheme_label="preExOR"),
    "MCExOR": dict(scheme_label="MCExOR"),
    # Registered as not opportunistic, yet its RIPPLE MAC acts on forwarder lists.
    "rate_adapt(ripple)": dict(mac=MacSpec("rate_adapt", {"inner": "ripple"})),
}


def _counting_rejections(acts_on, rejected):
    """``acts_on``, appending the id of each frame it rejects to ``rejected``."""

    def counted(frame):
        accepted = acts_on(frame)
        if not accepted:
            rejected.append(frame.frame_id)
        return accepted

    return counted


def _run(config, channel_cls, radio_cls):
    """The scenario's result and its per-node radio, MAC and RIPPLE counters, plus the channel's.

    Also returns the ids of the decoded frames the MACs' ``acts_on`` rejected
    (the reference radio never asks, so none there).
    """
    built = []
    rejected = []
    build = runner.build_network

    def capture(config):
        built.append(build(config))
        for node in built[-1][0].nodes.values():
            node.mac.acts_on = _counting_rejections(node.mac.acts_on, rejected)
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "WirelessChannel", channel_cls)
        patch.setattr(network, "Radio", radio_cls)
        patch.setattr(runner, "build_network", capture)
        result = run_scenario(config).to_dict()
    net = built[0][0]
    nodes = [node for _, node in sorted(net.nodes.items())]
    return result, (
        [node.radio.stats for node in nodes],
        [node.mac.stats for node in nodes],
        [getattr(node.mac, "ripple_stats", None) for node in nodes],
        net.channel.stats,
    ), rejected


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_identical_to_per_receiver_dispatch(scenario, scheme):
    config = ScenarioConfig(seed=4, **SCHEMES[scheme], **SCENARIOS[scenario])
    result, layers, rejected = _run(config, WirelessChannel, Radio)
    reference, reference_layers, _ = _run(config, ReferenceChannel, ReferenceRadio)
    assert reference["events_processed"] > 1000
    assert result == reference
    assert layers == reference_layers
    # The radios decoded frames their MACs were never handed, which the
    # reference handed over: the comparison covers the interest filter.
    assert rejected


class _Tracing:
    """Logs every signal callback as ``(now, edge, node)``."""

    def __init__(self, node_id, position, channel, trace):
        self.trace = trace
        super().__init__(node_id, position, channel)

    def _signal_start(self, payload):
        self.trace.append((self._sim.now, "start", self.node_id))
        super()._signal_start(payload)

    def _signal_end(self, payload):
        self.trace.append((self._sim.now, "end", self.node_id))
        super()._signal_end(payload)


class TracingRadio(_Tracing, Radio):
    pass


class TracingReferenceRadio(_Tracing, ReferenceRadio):
    pass


class UnicastRecordingMac(RecordingMac):
    """A recording MAC that, like DCF, acts only on frames addressed to it."""

    def __init__(self, address):
        super().__init__()
        self.address = address

    def acts_on(self, frame):
        return frame.receiver == self.address


def _callback_trace(channel_cls, radio_cls, model_propagation_delay, unicast):
    """Overlapping and simultaneous frames among eight radios, every callback logged."""
    sim = Simulator()
    channel = channel_cls(
        sim,
        PhyParams(),
        propagation=ShadowingPropagation(shadowing_deviation_db=4.0),
        error_model=BitErrorModel(1e-5),
        rng=RandomStreams(9),
        model_propagation_delay=model_propagation_delay,
    )
    trace = []
    # Registration order is not distance order, so sorting by delay moves entries.
    positions = [(600.0, 0.0), (0.0, 0.0), (150.0, 40.0), (420.0, 0.0),
                 (75.0, 0.0), (300.0, 0.0), (10.0, 5.0), (500.0, 80.0)]
    radios = [radio_cls(i, position, channel, trace) for i, position in enumerate(positions)]
    macs = [UnicastRecordingMac(i) if unicast else RecordingMac() for i in range(len(radios))]
    for radio, mac in zip(radios, macs):
        radio.attach_mac(mac)
    for k in range(60):
        sender = radios[(3 * k) % len(radios)]
        receiver = (sender.node_id + 1 + k % 3) % len(radios)
        frame = make_frame(
            origin=sender.node_id, transmitter=sender.node_id, receiver=receiver, n_sub=1 + k % 3
        )
        # Pairs of frames start at the same nanosecond; others overlap.
        sim.schedule_at(us(150) * (k // 2), sender.transmit, frame, frame.airtime_ns(channel.params))
        sim.schedule_at(us(150) * (k // 2) + us(40), lambda: trace.append((sim.now, "timer")))
    sim.run()
    # The reference hands a MAC every clean frame; keep what the MAC acts on.
    received = [
        [
            (frame.origin, frame.receiver, len(frame.subpackets), errors)
            for frame, errors in mac.received
            if mac.acts_on(frame)
        ]
        for mac in macs
    ]
    return trace, received, [radio.stats for radio in radios], sim.processed_events


@pytest.mark.parametrize("model_propagation_delay", [False, True])
def test_callback_trace_matches_per_receiver_dispatch(model_propagation_delay):
    for unicast in (False, True):
        runs = _callback_trace(WirelessChannel, TracingRadio, model_propagation_delay, unicast)
        reference = _callback_trace(
            ReferenceChannel, TracingReferenceRadio, model_propagation_delay, unicast
        )
        assert len(runs[0]) > 500
        assert sum(map(len, runs[1])) > 5
        assert sum(stats.frames_collided for stats in runs[2]) > 5
        assert runs == reference


class EdgeRecordingMac(RecordingMac):
    """Records carrier-sense edges and completions with their instants."""

    def __init__(self, sim, unicast):
        super().__init__()
        self.sim = sim
        self.unicast = unicast
        self.edges = []

    def acts_on(self, frame):
        return not self.unicast or frame.receiver == 0

    def on_channel_busy(self):
        self.edges.append((self.sim.now, "busy"))

    def on_channel_idle(self):
        self.edges.append((self.sim.now, "idle"))

    def on_transmission_complete(self, frame):
        self.edges.append((self.sim.now, "sent"))


PARAMS = PhyParams()

#: ``(start_us, duration_us, power_dbm, sender, addressed_here, subpackets)``.
SIGNALS = st.lists(
    st.tuples(
        st.integers(0, 300),
        st.integers(1, 120),
        st.floats(PARAMS.cs_threshold_dbm, PARAMS.rx_threshold_dbm + 6.0),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 3),
    ),
    max_size=12,
)

#: The receiver's own frames, one after another: ``(gap_us, duration_us)``.
OWN_FRAMES = st.lists(st.tuples(st.integers(1, 150), st.integers(1, 60)), max_size=3)


def _drive(reference, signals, own_frames, unicast):
    """Inject ``signals`` and ``own_frames`` at radio 0; what its MAC saw and its counters."""
    sim = Simulator()
    channel = WirelessChannel(
        sim, PARAMS,
        propagation=ShadowingPropagation(shadowing_deviation_db=0.0),
        error_model=BitErrorModel(1e-4),
        rng=RandomStreams(5),
    )
    radio_cls = ReferenceRadio if reference else Radio
    # The senders sit far out of range: only their link streams are used.
    radios = [radio_cls(i, (20000.0 * i, 0.0), channel) for i in range(4)]
    mac = EdgeRecordingMac(sim, unicast)
    radios[0].attach_mac(mac)
    ids = itertools.count()
    for start, duration, power, sender, addressed, subpackets in signals:
        receiver = 0 if addressed else 9
        frame = make_frame(origin=sender, transmitter=sender, receiver=receiver, n_sub=subpackets)
        transmission = Transmission(next(ids), frame, radios[sender], us(start), us(duration))
        decodable = power >= PARAMS.rx_threshold_dbm
        if reference:
            payload = Reception(transmission, power, decodable)
        else:
            payload = transmission if decodable else None
        sim.schedule_at(us(start), radios[0]._signal_start, payload)
        sim.schedule_at(us(start + duration), radios[0]._signal_end, payload)
    when = 0
    for gap, duration in own_frames:
        when += us(gap)
        sim.schedule_at(when, radios[0].transmit, make_frame(receiver=1), us(duration))
        when += us(duration)
    sim.run()
    delivered = [
        (frame.origin, frame.receiver, len(frame.subpackets), errors)
        for frame, errors in mac.received
        if mac.acts_on(frame)
    ]
    return mac.edges, delivered, radios[0].stats


@settings(max_examples=200, deadline=None)
@given(signals=SIGNALS, own_frames=OWN_FRAMES, unicast=st.booleans())
def test_counted_radio_matches_reference_on_random_overlaps(signals, own_frames, unicast):
    counted = _drive(False, signals, own_frames, unicast)
    assert counted == _drive(True, signals, own_frames, unicast)


class TransmitOnIdleMac(RecordingMac):
    """Transmits once, from the first idle edge it sees."""

    def __init__(self, radio):
        super().__init__()
        self.radio = radio

    def on_channel_idle(self):
        super().on_channel_idle()
        if self.idle_events == 1:
            self.radio.transmit(make_frame(origin=1, transmitter=1, receiver=0), us(20))


@pytest.mark.parametrize(
    "channel_cls, radio_cls", [(WirelessChannel, Radio), (ReferenceChannel, ReferenceRadio)]
)
def test_frame_that_frees_the_channel_survives_a_transmission_from_the_idle_edge(
    channel_cls, radio_cls
):
    sim = Simulator()
    channel = channel_cls(
        sim, PhyParams(),
        propagation=ShadowingPropagation(shadowing_deviation_db=0.0),
        error_model=BitErrorModel(0.0),
        rng=RandomStreams(1),
    )
    sender, receiver = radio_cls(0, (0.0, 0.0), channel), radio_cls(1, (100.0, 0.0), channel)
    sender.attach_mac(RecordingMac())
    mac = TransmitOnIdleMac(receiver)
    receiver.attach_mac(mac)
    frame = make_frame()
    sender.transmit(frame, us(100))
    sim.run()
    assert receiver.stats.frames_sent == 1
    assert [received for received, _ in mac.received] == [frame]
    assert receiver.stats.frames_decoded == 1
    assert receiver.stats.frames_collided == 0


def test_candidate_receivers_are_in_delay_order():
    sim = Simulator()
    channel = WirelessChannel(sim, PhyParams(), rng=RandomStreams(1))
    radios = [Radio(i, (x, 0.0), channel) for i, x in enumerate([0.0, 300.0, 100.0, 200.0])]
    assert [radio.node_id for radio in channel.candidate_receivers(radios[0])] == [2, 3, 1]
