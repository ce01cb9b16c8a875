"""Traffic generators: FTP, web ON/OFF, VoIP on-off, saturating UDP."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.mobility import mobility_voip_grid
from repro.experiments.runner import run_scenario
from repro.metrics.mos import WIRELESS_DELAY_BUDGET_MS, evaluate_voip
from repro.sim.engine import Simulator
from repro.traffic.cbr import SaturatingSource
from repro.traffic.ftp import FtpApplication
from repro.traffic.poisson import PoissonFlow
from repro.traffic.voip import VoipFlow
from repro.traffic.web import WebFlow, pareto_transfer_bytes
from repro.transport.tcp import TcpSender, TcpSink
from repro.transport.udp import UdpReceiver, UdpSender
from tests.conftest import build_chain_network


class TestParetoTransfers:
    def test_mean_is_close_to_target(self):
        rng = np.random.default_rng(1)
        sizes = [pareto_transfer_bytes(rng, 80_000, 1.5) for _ in range(20_000)]
        assert np.mean(sizes) == pytest.approx(80_000, rel=0.2)

    def test_sizes_are_positive(self):
        rng = np.random.default_rng(2)
        assert all(pareto_transfer_bytes(rng, 80_000, 1.5) >= 1 for _ in range(100))

    def test_heavy_tail_exists(self):
        rng = np.random.default_rng(3)
        sizes = [pareto_transfer_bytes(rng, 80_000, 1.5) for _ in range(5000)]
        assert max(sizes) > 10 * 80_000  # occasional very large objects

    def test_shape_must_exceed_one(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            pareto_transfer_bytes(rng, 80_000, 1.0)


class TestFtp:
    def test_start_is_idempotent(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        sender = TcpSender(net.sim, net.node(0).transport, 1, 1)
        TcpSink(net.sim, net.node(1).transport, 1, peer=0)
        app = FtpApplication(sender)
        app.start()
        app.start()
        net.run_seconds(0.05)
        assert sender.stats.segments_sent > 0


def _udp_pair(net):
    sender = UdpSender(net.sim, net.node(0).transport, 1, 1)
    return sender, UdpReceiver(net.sim, net.node(1).transport, 1)


def _saturating_source(net):
    return SaturatingSource(net.sim, _udp_pair(net)[0], net.node(0).mac)


def _poisson_flow(net):
    return PoissonFlow(net.sim, _udp_pair(net)[0], np.random.default_rng(11), arrival_rate_hz=20.0,
                       mean_holding_s=0.1)


def _voip_flow(net):
    return VoipFlow(net.sim, *_udp_pair(net), np.random.default_rng(8))


def _web_flow(net):
    sender = TcpSender(net.sim, net.node(0).transport, 1, 1)
    TcpSink(net.sim, net.node(1).transport, 1, peer=0)
    return WebFlow(net.sim, sender, np.random.default_rng(6), mean_transfer_bytes=5_000,
                   mean_off_time_s=0.01)


class TestStartIsIdempotent:
    """A second ``start()`` is a no-op: a flow runs one chain of callbacks.

    A saturating source's second chain would find the queue already full
    and send nothing, so the events processed are compared too.
    """

    @pytest.mark.parametrize(
        "make_flow",
        [_saturating_source, _poisson_flow, _voip_flow, _web_flow],
        ids=["saturating", "poisson", "voip", "web"],
    )
    def test_second_start_adds_nothing(self, make_flow):
        outcomes = []
        for starts in (1, 2):
            net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
            net.install_transport()
            flow = make_flow(net)
            for _ in range(starts):
                flow.start()
            net.run_seconds(0.5)
            outcomes.append((dataclasses.asdict(flow.stats), net.sim.processed_events))
        assert any(outcomes[0][0].values())
        assert outcomes[1] == outcomes[0]


class TestWebFlow:
    def test_transfers_alternate_with_think_time(self):
        net, _ = build_chain_network("afr", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        sender = TcpSender(net.sim, net.node(0).transport, 1, 1)
        sink = TcpSink(net.sim, net.node(1).transport, 1, peer=0)
        web = WebFlow(net.sim, sender, np.random.default_rng(5), mean_transfer_bytes=20_000,
                      mean_off_time_s=0.05)
        web.start()
        net.run_seconds(2.0)
        assert web.stats.transfers_started >= 2
        assert web.stats.transfers_completed >= 1
        assert sink.stats.unique_bytes > 0


class TestVoipFlow:
    def test_packetisation_rate(self):
        # 96 kb/s at 20 ms intervals = 240-byte packets.
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        sender = UdpSender(net.sim, net.node(0).transport, 1, 1)
        receiver = UdpReceiver(net.sim, net.node(1).transport, 1)
        flow = VoipFlow(net.sim, sender, receiver, np.random.default_rng(7))
        assert flow.packet_bytes == 240

    def test_on_off_pattern_sends_packets(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        sender = UdpSender(net.sim, net.node(0).transport, 1, 1)
        receiver = UdpReceiver(net.sim, net.node(1).transport, 1)
        flow = VoipFlow(net.sim, sender, receiver, np.random.default_rng(8))
        flow.start()
        net.run_seconds(3.0)
        assert flow.stats.packets_sent > 20
        assert flow.stats.on_periods >= 1
        # An on-off source at 96 kb/s averages well below the always-on rate.
        assert flow.stats.packets_sent < 3.0 / 0.02

    def test_quality_on_clean_channel_is_good(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        sender = UdpSender(net.sim, net.node(0).transport, 1, 1)
        receiver = UdpReceiver(net.sim, net.node(1).transport, 1)
        flow = VoipFlow(net.sim, sender, receiver, np.random.default_rng(9))
        flow.start()
        net.run_seconds(3.0)
        quality = flow.quality()
        assert quality.loss_rate < 0.05
        assert quality.mos > 3.5


class TestCbrSources:
    def test_saturating_source_keeps_queue_full(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        sender = UdpSender(net.sim, net.node(0).transport, 1, 1)
        receiver = UdpReceiver(net.sim, net.node(1).transport, 1)
        source = SaturatingSource(net.sim, sender, net.node(0).mac)
        source.start()
        net.run_seconds(0.3)
        # The receiver sees a continuous stream: the MAC was never starved.
        assert receiver.stats.received > 500


class TestVoipDelayCounters:
    def test_counters_give_what_the_delay_samples_gave(self, monkeypatch):
        # The receiver keeps a delay sum and an on-time count instead of one
        # sample per datagram.  Both summaries must equal the formulas over
        # the samples, recorded here from the same run.  (The budget's edge
        # is tested in tests/transport/test_udp.py.)
        samples = {}
        on_packet = UdpReceiver._on_packet

        def recording_on_packet(receiver, packet):
            received = receiver.stats.received
            on_packet(receiver, packet)
            if receiver.stats.received > received:
                delay = receiver.sim.now - packet.created_ns
                samples.setdefault(receiver.flow_id, []).append(delay)

        monkeypatch.setattr(UdpReceiver, "_on_packet", recording_on_packet)
        (config,), _ = mobility_voip_grid((10.0,), ("D",), 10, duration_s=1.0, seed=1)
        result = run_scenario(config)
        assert len(result.flows) == len(samples) == 10
        for flow in result.flows:
            delays = samples[flow.flow_id]
            assert flow.mean_delay_ms == sum(delays) / len(delays) / 1e6
            delays_ms = [delay / 1e6 for delay in delays]
            on_time = [d for d in delays_ms if d <= WIRELESS_DELAY_BUDGET_MS]
            assert result.voip_quality[flow.flow_id] == evaluate_voip(
                len(on_time), packets_sent=flow.packets_sent
            )
        assert any(quality.loss_rate > 0 for quality in result.voip_quality.values())
