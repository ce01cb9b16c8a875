"""preExOR — the early version of ExOR with sequential per-packet MAC ACKs.

Section II-B of the paper: "after the source transmits a data packet,
forwarders send MAC ACKs sequentially to avoid collisions.  This is
achieved by having each forwarder defer for a period that is sufficient to
allow the destination and all the higher priority forwarders to transmit
their ACKs."

Timing (matching the per-packet overhead formula of Section II-C1,
``n (T_backoff + T_DATA + T_DIFS + T_phyhdr) + sum_1^n (T_ACK + T_SIFS +
T_phyhdr)``): the destination acknowledges a SIFS after the data frame,
and the rank-``i`` forwarder acknowledges after ``i`` further
(SIFS + ACK) periods, whether or not the earlier ACK slots were actually
used — unused slots simply burn air time (the "shadowed ACKs" of Fig. 2).
"""

from __future__ import annotations

from repro.mac.timetable import ack_airtime_ns
from repro.routing.opportunistic import OpportunisticMac


class PreExorMac(OpportunisticMac):
    """Opportunistic forwarding with sequential (uncompressed) MAC ACK slots."""

    def ack_delay_ns(self, rank: int, n_forwarders: int) -> int:
        ack_airtime = ack_airtime_ns(self.phy)
        return self.timing.sifs_ns + rank * (ack_airtime + self.timing.sifs_ns)

    def ack_window_ns(self, n_forwarders: int) -> int:
        """Wait out every ACK slot (destination + each forwarder) plus a slack slot."""
        ack_airtime = ack_airtime_ns(self.phy)
        slots = n_forwarders + 1
        return (
            self.timing.sifs_ns
            + slots * (ack_airtime + self.timing.sifs_ns)
            + self.timing.slot_ns
        )

    def suppress_ack_on_overheard_ack(self) -> bool:
        return False  # every receiver uses its dedicated sequential slot
