"""UDP endpoints and the transport host dispatcher."""

import pytest

from repro.metrics.mos import WIRELESS_DELAY_BUDGET_MS
from repro.packet import Packet
from repro.transport.udp import UdpDatagram, UdpReceiver, UdpSender
from tests.conftest import build_chain_network


def make_udp(net, src, dst, flow_id=9):
    net.install_transport()
    sender = UdpSender(net.sim, net.node(src).transport, flow_id, dst)
    receiver = UdpReceiver(net.sim, net.node(dst).transport, flow_id)
    return sender, receiver


class TestUdp:
    def test_datagrams_arrive(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        sender, receiver = make_udp(net, 0, 1)
        for _ in range(10):
            sender.send(500)
        net.run_seconds(0.1)
        assert receiver.stats.received == 10
        assert receiver.stats.received_bytes == 5000

    def test_delay_recorded_per_packet(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        sender, receiver = make_udp(net, 0, 1)
        sender.send(500)
        net.run_seconds(0.05)
        assert receiver.stats.received == 1
        assert receiver.stats.delay_sum_ns > 0
        assert receiver.stats.on_time == 1

    def test_on_time_counts_delays_within_the_wireless_budget(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        _, receiver = make_udp(net, 0, 1)
        net.run_seconds(0.1)
        budget_ns = int(WIRELESS_DELAY_BUDGET_MS * 1e6)
        for seq, delay in enumerate([budget_ns, budget_ns + 1, 5]):
            net.node(1).transport.receive(Packet(
                src=0, dst=1, size_bytes=100, flow_id=9, seq=seq, kind="udp",
                created_ns=net.sim.now - delay, payload=UdpDatagram(flow_id=9, seq=seq),
            ))
        assert receiver.stats.received == 3
        assert receiver.stats.delay_sum_ns == 2 * budget_ns + 6
        assert receiver.stats.on_time == 2

    def test_no_retransmission_on_loss(self):
        net, _ = build_chain_network("dcf", n_nodes=2, hop_m=320.0, seed=5)
        sender, receiver = make_udp(net, 0, 1)
        for _ in range(30):
            sender.send(1000)
        net.run_seconds(0.5)
        assert receiver.stats.received < 30  # losses are final for UDP

    def test_throughput_helper(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        sender, receiver = make_udp(net, 0, 1)
        for _ in range(10):
            sender.send(1000)
        net.run_seconds(0.1)
        from repro.sim.units import seconds

        assert receiver.throughput_bps(seconds(0.1)) == pytest.approx(10 * 8000 / 0.1)

    def test_receive_callback(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        got = []
        sender = UdpSender(net.sim, net.node(0).transport, 3, 1)
        UdpReceiver(net.sim, net.node(1).transport, 3, on_receive=got.append)
        sender.send(200)
        net.run_seconds(0.05)
        assert len(got) == 1


class TestTransportHost:
    def test_dispatch_by_flow_id(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        sender_a = UdpSender(net.sim, net.node(0).transport, 1, 1)
        sender_b = UdpSender(net.sim, net.node(0).transport, 2, 1)
        receiver_a = UdpReceiver(net.sim, net.node(1).transport, 1)
        receiver_b = UdpReceiver(net.sim, net.node(1).transport, 2)
        sender_a.send(100)
        sender_b.send(100)
        sender_b.send(100)
        net.run_seconds(0.05)
        assert receiver_a.stats.received == 1
        assert receiver_b.stats.received == 2

    def test_unknown_flow_counted_as_undelivered(self):
        net, _ = build_chain_network("dcf", n_nodes=2, ber=0.0, shadowing_deviation=0.0)
        net.install_transport()
        sender = UdpSender(net.sim, net.node(0).transport, 42, 1)
        sender.send(100)
        net.run_seconds(0.05)
        assert net.node(1).transport.undelivered == 1
