"""Transport layer: pluggable TCP congestion control, UDP and the flow dispatcher."""

from repro.transport.congestion import (
    CongestionController,
    CubicController,
    NewRenoController,
    RenoController,
    TahoeController,
)
from repro.transport.host import TransportHost
from repro.transport.registry import TRANSPORT_SCHEMES, build_controller
from repro.transport.tcp import TcpAck, TcpSegment, TcpSender, TcpSink
from repro.transport.udp import UdpDatagram, UdpReceiver, UdpSender

__all__ = [
    "CongestionController",
    "CubicController",
    "NewRenoController",
    "RenoController",
    "TahoeController",
    "TRANSPORT_SCHEMES",
    "TransportHost",
    "TcpAck",
    "TcpSegment",
    "TcpSender",
    "TcpSink",
    "UdpDatagram",
    "UdpReceiver",
    "UdpSender",
    "build_controller",
]
