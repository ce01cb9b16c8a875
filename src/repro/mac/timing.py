"""IEEE 802.11 MAC timing and framing constants (Table I of the paper).

All of the overhead arithmetic in Section II of the paper — e.g. a
predetermined-route hop costs ``T_backoff + T_DATA + T_DIFS + T_SIFS +
T_ACK + 2 T_phyhdr`` — is expressed in the quantities defined here, so the
tests assert those identities directly against this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.params import PhyParams
from repro.sim.units import us


#: MAC header (addresses, control, sequence) plus FCS, in bytes.
MAC_HEADER_BYTES = 34
#: Frame check sequence appended to the MAC header block.
MAC_FCS_BYTES = 4
#: Extra header bytes consumed per entry of an opportunistic forwarder list.
FORWARDER_ENTRY_BYTES = 6
#: Per-sub-packet framing (sub-header + CRC) under aggregation, as in AFR.
SUBPACKET_OVERHEAD_BYTES = 12
#: MAC ACK frame body (14-byte 802.11 ACK plus a 6-byte aggregation bitmap).
ACK_BODY_BYTES = 20


def ack_bits(forwarders: int = 0) -> int:
    """Size of a MAC ACK carrying ``forwarders`` forwarder-list entries, in bits."""
    return (ACK_BODY_BYTES + FORWARDER_ENTRY_BYTES * forwarders) * 8


@dataclass(frozen=True)
class MacTiming:
    """802.11 DCF timing parameters.

    The defaults reproduce Table I: SIFS 16 us, slot 9 us, and a PHY header
    of 20 us (held by :class:`~repro.phy.params.PhyParams`).  DIFS is derived
    as ``SIFS + 2 * slot`` per the standard.
    """

    sifs_ns: int = us(16)
    slot_ns: int = us(9)
    cw_min: int = 16
    cw_max: int = 1024
    retry_limit: int = 7
    queue_capacity: int = 50

    @property
    def difs_ns(self) -> int:
        """DCF interframe space: SIFS plus two slot times."""
        return self.sifs_ns + 2 * self.slot_ns

    # ------------------------------------------------------------------
    # Frame airtimes
    # ------------------------------------------------------------------
    def data_frame_airtime_ns(
        self, phy: PhyParams, payload_bytes_list: list[int], forwarders: int = 0
    ) -> int:
        """Airtime of a (possibly aggregated) data frame.

        ``payload_bytes_list`` holds the upper-layer packet sizes carried by
        the frame; each gets its own sub-header and CRC, and the MAC header
        grows with the number of forwarder-list entries.
        """
        header_bits = self.header_bits(forwarders)
        body_bits = sum((size + SUBPACKET_OVERHEAD_BYTES) * 8 for size in payload_bytes_list)
        return phy.data_airtime_ns(header_bits + body_bits)

    def ack_airtime_ns(self, phy: PhyParams, forwarders: int = 0) -> int:
        """Airtime of a MAC ACK (sent at the basic rate)."""
        return phy.control_airtime_ns(ack_bits(forwarders))

    def header_bits(self, forwarders: int = 0) -> int:
        """MAC header + FCS + forwarder list size, in bits."""
        return (MAC_HEADER_BYTES + MAC_FCS_BYTES + FORWARDER_ENTRY_BYTES * forwarders) * 8

    def subpacket_bits(self, payload_bytes: int) -> int:
        """Size of one aggregated sub-packet, including its own framing and CRC."""
        return (payload_bytes + SUBPACKET_OVERHEAD_BYTES) * 8

    def ack_timeout_ns(self, phy: PhyParams, forwarders: int = 0) -> int:
        """How long a transmitter waits for a MAC ACK before declaring loss."""
        return self.sifs_ns + self.ack_airtime_ns(phy, forwarders) + 2 * self.slot_ns


#: Timing profile matching Table I.
DEFAULT_TIMING = MacTiming()
