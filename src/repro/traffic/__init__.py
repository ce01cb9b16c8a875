"""Traffic generators: long-lived TCP, web ON/OFF, VoIP on-off, saturating UDP, Poisson sessions."""

from repro.traffic.cbr import SaturatingSource
from repro.traffic.ftp import FtpApplication
from repro.traffic.poisson import PoissonFlow
from repro.traffic.registry import TRAFFIC_KINDS, FlowDriver, register_traffic
from repro.traffic.voip import VoipFlow
from repro.traffic.web import WebFlow, pareto_transfer_bytes

__all__ = [
    "TRAFFIC_KINDS",
    "FlowDriver",
    "register_traffic",
    "SaturatingSource",
    "FtpApplication",
    "PoissonFlow",
    "VoipFlow",
    "WebFlow",
    "pareto_transfer_bytes",
]
