"""MCExOR — opportunistic forwarding with compressed (suppressed) MAC ACKs.

Section II-B of the paper: "The MCExOR scheme uses a compressed
acknowledging mechanism, where a forwarder of rank i waits for i SIFS
intervals before transmitting a MAC ACK.  If it detects an ACK
transmission during its waiting period, it will not transmit its ACK
since the ACK reception indicates that a higher ranked forwarder has
received the packet."

Compared with preExOR this removes the unused sequential ACK slots (per
the Section II-C1 overhead formula, ``n (T_backoff + T_DATA + T_DIFS +
T_ACK + 2 T_phyhdr) + sum_1^n T_SIFS``): in the common case exactly one
ACK is transmitted per hop, at the cost of occasionally colliding ACKs
when two receivers cannot hear each other.
"""

from __future__ import annotations

from repro.mac.timetable import ack_airtime_ns
from repro.routing.opportunistic import OpportunisticMac


class McExorMac(OpportunisticMac):
    """Opportunistic forwarding with compressed SIFS-spaced, suppressible ACKs."""

    def ack_delay_ns(self, rank: int, n_forwarders: int) -> int:
        # The destination (rank 0) answers after one SIFS like a normal 802.11
        # ACK; the rank-i forwarder defers i additional SIFS intervals.
        return (rank + 1) * self.timing.sifs_ns

    def ack_window_ns(self, n_forwarders: int) -> int:
        """All compressed slots plus one ACK airtime plus a slack slot."""
        ack_airtime = ack_airtime_ns(self.phy)
        return (n_forwarders + 1) * self.timing.sifs_ns + ack_airtime + self.timing.slot_ns

    def suppress_ack_on_overheard_ack(self) -> bool:
        return True
