"""Signal runs against per-receiver dispatch.

:class:`PerReceiverChannel` below dispatches frames one reception at a
time: its plans keep registration order, and every sensed reception puts
two entries on the heap, its start and its end.  The channel's signal runs
must give every radio callback the same instant and the same order, so
whole scenarios stay byte-identical, ``events_processed`` included.
"""

import pytest

import repro.topology.network as network
from repro.experiments.mobility import mobility_spec
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.phy.channel import Transmission, WirelessChannel, _DispatchPlan
from repro.phy.error_models import BitErrorModel
from repro.phy.params import LOW_RATE_PHY, PhyParams
from repro.phy.propagation import ShadowingPropagation
from repro.phy.radio import Radio, Reception
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import us
from repro.topology.roofnet import roofnet_scenario
from repro.topology.standard import fig5b_topology, voip_topology

from tests.phy.test_channel import RecordingMac, make_frame


class PerReceiverChannel(WirelessChannel):
    """Reference: plans in registration order, two heap entries per sensed receiver."""

    def _build_plan(self, sender):
        plan = super()._build_plan(sender)
        order = sorted(range(len(plan.radios)), key=lambda j: self._radios.index(plan.radios[j]))
        return _DispatchPlan(
            [plan.radios[j] for j in order],
            [plan.entries[j] for j in order],
            [plan.fade_streams[j] for j in order],
            plan.means[order],
            plan.end_own,
        )

    def start_transmission(self, sender, frame, duration_ns):
        sim = self.sim
        now = sim.now
        transmission = Transmission(next(self._ids), frame, sender, now, duration_ns)
        self.stats.transmissions += 1
        plan = self._plan_for(sender)
        if plan.entries:
            if plan.row_index >= len(plan.rows):
                plan.refill()
                plan.row_index = 0
            powers = plan.rows[plan.row_index]
            plan.row_index += 1
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
    # ~23 sensed receivers per frame, with delays from 0 to 3.1 us.
    "roofnet": dict(topology=roofnet_scenario(seed=7), phy=LOW_RATE_PHY, duration_s=0.15),
    # Every mobility tick rebuilds the plans while runs are in flight.
    "mobile": dict(
        topology=voip_topology(), route_set="ROUTE0", active_flows=[1, 2, 3, 4],
        mobility=mobility_spec(20.0, pause_s=0.0), phy=LOW_RATE_PHY, duration_s=0.3,
    ),
}


@pytest.mark.parametrize("scheme", ["D", "R16", "preExOR", "MCExOR"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_identical_to_per_receiver_dispatch(scenario, scheme, monkeypatch):
    config = ScenarioConfig(scheme_label=scheme, seed=4, **SCENARIOS[scenario])
    runs = run_scenario(config).to_dict()
    monkeypatch.setattr(network, "WirelessChannel", PerReceiverChannel)
    reference = run_scenario(config).to_dict()
    assert reference["events_processed"] > 1000
    assert runs == reference


class TracingRadio(Radio):
    """Logs every signal callback as ``(now, edge, node, transmission id)``."""

    def __init__(self, node_id, position, channel, trace):
        self.trace = trace
        super().__init__(node_id, position, channel)

    def _signal_start(self, reception):
        self.trace.append((self._sim.now, "start", self.node_id, reception.transmission.transmission_id))
        super()._signal_start(reception)

    def _signal_end(self, reception):
        self.trace.append((self._sim.now, "end", self.node_id, reception.transmission.transmission_id))
        super()._signal_end(reception)


def _callback_trace(channel_cls, model_propagation_delay):
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
    radios = [TracingRadio(i, position, channel, trace) for i, position in enumerate(positions)]
    macs = [RecordingMac() for _ in radios]
    for radio, mac in zip(radios, macs):
        radio.attach_mac(mac)
    for k in range(60):
        sender = radios[(3 * k) % len(radios)]
        frame = make_frame(origin=sender.node_id, transmitter=sender.node_id, n_sub=1 + k % 3)
        # Pairs of frames start at the same nanosecond; others overlap.
        sim.schedule_at(us(150) * (k // 2), sender.transmit, frame, frame.airtime_ns(channel.params))
        sim.schedule_at(us(150) * (k // 2) + us(40), lambda: trace.append((sim.now, "timer")))
    sim.run()
    received = [[(frame.origin, len(frame.subpackets), errors) for frame, errors in mac.received] for mac in macs]
    return trace, received, sim.processed_events


@pytest.mark.parametrize("model_propagation_delay", [False, True])
def test_callback_trace_matches_per_receiver_dispatch(model_propagation_delay):
    runs = _callback_trace(WirelessChannel, model_propagation_delay)
    reference = _callback_trace(PerReceiverChannel, model_propagation_delay)
    assert len(runs[0]) > 500
    assert any(received for received in runs[1])
    assert runs == reference


def test_candidate_receivers_are_in_delay_order():
    sim = Simulator()
    channel = WirelessChannel(sim, PhyParams(), rng=RandomStreams(1))
    radios = [Radio(i, (x, 0.0), channel) for i, x in enumerate([0.0, 300.0, 100.0, 200.0])]
    assert [radio.node_id for radio in channel.candidate_receivers(radios[0])] == [2, 3, 1]
