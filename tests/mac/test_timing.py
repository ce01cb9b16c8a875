"""MAC timing constants and the Section II overhead arithmetic."""

import pytest

from repro.mac.timing import DEFAULT_TIMING, MacTiming
from repro.phy.params import HIGH_RATE_PHY, LOW_RATE_PHY, PhyParams
from repro.sim.units import us


class TestTable1Parameters:
    """The simulation parameters of Table I."""

    def test_sifs(self):
        assert DEFAULT_TIMING.sifs_ns == us(16)

    def test_slot(self):
        assert DEFAULT_TIMING.slot_ns == us(9)

    def test_difs_is_sifs_plus_two_slots(self):
        assert DEFAULT_TIMING.difs_ns == us(16) + 2 * us(9) == us(34)

    def test_phy_header(self):
        assert HIGH_RATE_PHY.phy_header_ns == us(20)

    def test_rates(self):
        assert HIGH_RATE_PHY.data_rate_bps == 216e6
        assert HIGH_RATE_PHY.basic_rate_bps == 54e6
        assert LOW_RATE_PHY.data_rate_bps == 6e6

    def test_queue_capacity(self):
        assert DEFAULT_TIMING.queue_capacity == 50


class TestAirtimes:
    def test_single_packet_frame_airtime(self):
        # 1000-byte packet + framing at 216 Mb/s plus the 20 us PLCP header:
        # comfortably under 60 us, far above the bare PLCP.
        airtime = DEFAULT_TIMING.data_frame_airtime_ns(HIGH_RATE_PHY, [1000])
        assert us(50) < airtime < us(60)

    def test_aggregated_frame_cheaper_than_separate_frames(self):
        one = DEFAULT_TIMING.data_frame_airtime_ns(HIGH_RATE_PHY, [1000])
        sixteen = DEFAULT_TIMING.data_frame_airtime_ns(HIGH_RATE_PHY, [1000] * 16)
        assert sixteen < 16 * one  # the PLCP + MAC header are paid once

    def test_ack_airtime_uses_basic_rate(self):
        fast = DEFAULT_TIMING.ack_airtime_ns(HIGH_RATE_PHY)
        slow = DEFAULT_TIMING.ack_airtime_ns(LOW_RATE_PHY)
        assert slow > fast
        assert fast > HIGH_RATE_PHY.phy_header_ns

    def test_forwarder_list_grows_header(self):
        bare = DEFAULT_TIMING.header_bits(0)
        with_five = DEFAULT_TIMING.header_bits(5)
        assert with_five == bare + 5 * 6 * 8

    def test_ack_timeout_covers_ack(self):
        timeout = DEFAULT_TIMING.ack_timeout_ns(HIGH_RATE_PHY)
        assert timeout > DEFAULT_TIMING.sifs_ns + DEFAULT_TIMING.ack_airtime_ns(HIGH_RATE_PHY)


class TestSectionIIOverheadExample:
    """The Fig. 2 timeline example of Section II-C1.

    For flow 1 of Fig. 1 (route 0 -> 1 -> 2 -> 3, i.e. three transmissions
    with an ACK train whose length shrinks as the packet advances), the
    paper states that per two packets preExOR takes ``6 (T_ACK + T_SIFS)``
    longer than PRR, and MCExOR takes ``6 T_ACK`` less than preExOR but
    still ``6 T_SIFS`` longer than PRR.  Per packet that is an extra ACK
    slot per remaining forwarder: 2 + 1 + 0 = 3 slots over the three hops.
    """

    HOPS = 3

    def _ack_slot_excess(self) -> int:
        # Extra acknowledgement slots beyond PRR's single ACK, summed over
        # the path: (forwarders remaining at hop i) for i = 1..n.
        return sum(range(self.HOPS))  # 2 + 1 + 0 = 3 for the 3-hop route

    def test_preexor_excess_per_packet(self):
        timing = DEFAULT_TIMING
        t_ack = timing.ack_airtime_ns(HIGH_RATE_PHY) - HIGH_RATE_PHY.phy_header_ns
        excess = self._ack_slot_excess() * (t_ack + timing.sifs_ns)
        # Two packets' excess is the paper's 6 * (T_ACK + T_SIFS).
        assert 2 * excess == 6 * (t_ack + timing.sifs_ns)

    def test_mcexor_excess_per_packet(self):
        timing = DEFAULT_TIMING
        excess = self._ack_slot_excess() * timing.sifs_ns
        assert 2 * excess == 6 * timing.sifs_ns

    def test_ordering_prr_mcexor_preexor(self):
        timing = DEFAULT_TIMING
        t_ack = timing.ack_airtime_ns(HIGH_RATE_PHY) - HIGH_RATE_PHY.phy_header_ns
        prr_extra = 0
        mcexor_extra = self._ack_slot_excess() * timing.sifs_ns
        preexor_extra = self._ack_slot_excess() * (t_ack + timing.sifs_ns)
        assert prr_extra < mcexor_extra < preexor_extra


class TestCustomTiming:
    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_TIMING.sifs_ns = 0  # type: ignore[misc]

    def test_custom_values_flow_through(self):
        timing = MacTiming(sifs_ns=us(10), slot_ns=us(20))
        assert timing.difs_ns == us(50)
