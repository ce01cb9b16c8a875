"""Stations no route reaches get no dispatch, and nothing else changes.

With routes fixed for the run, :func:`repro.experiments.runner.build_network`
has the channel dispatch only to :func:`~repro.experiments.runner.reachable_stations`.
Every run below is compared with the same run dispatching to every station
(the set patched to all of them): the result must be the same document
except ``events_processed``, which is lower exactly when a station was left
out.  The channel's guard must stop a run in which a left-out station
transmits or is named.
"""

import pytest

import repro.experiments.runner as runner
from repro.corpus.golden import golden_documents
from repro.experiments.mobility import mobility_spec
from repro.experiments.runner import ScenarioConfig, build_network, run_scenario
from repro.mac.registry import MAC_SCHEMES
from repro.phy.channel import UnreachableStation
from repro.phy.params import LOW_RATE_PHY
from repro.sim.units import us
from repro.spec import MacSpec
from repro.topology.roofnet import roofnet_scenario
from repro.topology.standard import line_topology, voip_topology

from tests.phy.test_channel import build, make_frame

GOLDEN = golden_documents()

#: Roofnet under every registered MAC, and the rate-adapting one around RIPPLE.
ROOFNET_MACS = {name: MacSpec(name) for name in MAC_SCHEMES.names()}
ROOFNET_MACS["rate_adapt(ripple)"] = MacSpec("rate_adapt", {"inner": "ripple"})


def _run(config, dispatch_to_all):
    """The result document and the stations the channel left out."""
    built = []
    build_network = runner.build_network

    def capture(config):
        built.append(build_network(config))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "build_network", capture)
        if dispatch_to_all:
            patch.setattr(
                runner, "reachable_stations",
                lambda config, routing: set(config.topology.positions),
            )
        result = run_scenario(config).to_dict()
    return result, built[0][0].channel.excluded


def _assert_only_events_drop(config):
    result, excluded = _run(config, dispatch_to_all=False)
    everyone, none_excluded = _run(config, dispatch_to_all=True)
    assert none_excluded == frozenset()
    events = result.pop("events_processed")
    all_events = everyone.pop("events_processed")
    assert result == everyone
    if excluded:
        assert events < all_events
    else:
        assert events == all_events
    return excluded


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_golden_document_identical_but_for_events(label):
    _assert_only_events_drop(ScenarioConfig.from_dict(GOLDEN[label]))


@pytest.mark.parametrize("mac", sorted(ROOFNET_MACS))
def test_roofnet_identical_but_for_events_under_every_mac(mac):
    config = ScenarioConfig(
        topology=roofnet_scenario(seed=7), phy=LOW_RATE_PHY, mac=ROOFNET_MACS[mac],
        duration_s=0.15, seed=4,
    )
    assert _assert_only_events_drop(config)


def test_roofnet_reaches_eleven_of_38_stations():
    config = ScenarioConfig(
        topology=roofnet_scenario(seed=7), phy=LOW_RATE_PHY, scheme_label="D",
    )
    network, routing = build_network(config)
    reachable = runner.reachable_stations(config, routing)
    assert len(reachable) == 11 and len(network.nodes) == 38
    assert network.channel.excluded == frozenset(network.nodes) - reachable
    endpoints = {node for flow in config.topology.flows for node in (flow.src, flow.dst)}
    assert endpoints <= reachable


def test_nothing_excluded_under_live_mobility():
    config = ScenarioConfig(
        topology=voip_topology(), route_set="ROUTE0", active_flows=[1],
        mobility=mobility_spec(20.0, pause_s=0.0), phy=LOW_RATE_PHY, duration_s=0.1,
    )
    network, routing = build_network(config)
    assert runner.reachable_stations(config, routing) != set(network.nodes)
    assert network.channel.excluded == frozenset()


def test_nothing_excluded_on_a_line_with_its_one_flow():
    network, _ = build_network(ScenarioConfig(topology=line_topology(5), scheme_label="D"))
    assert len(network.nodes) == 6
    assert network.channel.excluded == frozenset()


class TestGuard:
    def setup_method(self):
        self.sim, self.channel, self.radios, self.macs = build([(0, 0), (100, 0), (200, 0)])
        self.channel.restrict_dispatch([0, 1])

    def test_left_out_station_gets_no_signal(self):
        self.radios[0].transmit(make_frame(receiver=1), us(100))
        self.sim.run()
        assert len(self.macs[1].received) == 1
        assert self.macs[2].received == [] and self.macs[2].busy_events == 0
        assert self.channel.candidate_receivers(self.radios[0]) == [self.radios[1]]

    def test_frame_naming_a_left_out_station_raises(self):
        with pytest.raises(UnreachableStation, match="left out"):
            self.radios[0].transmit(make_frame(receiver=2), us(100))
        forwarded = make_frame(receiver=1)
        forwarded.forwarder_list = (2,)
        with pytest.raises(UnreachableStation):
            self.radios[0].transmit(forwarded, us(100))
        assert self.channel.stats.transmissions == 0
        assert not self.radios[0].is_transmitting

    def test_transmission_by_a_left_out_station_raises(self):
        with pytest.raises(UnreachableStation):
            self.radios[2].transmit(make_frame(origin=2, transmitter=2, receiver=1), us(100))
        assert self.channel.stats.transmissions == 0
