"""Unit conversions: integer-nanosecond time arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import units


class TestConversions:
    def test_microseconds(self):
        assert units.us(1) == 1_000
        assert units.us(16) == 16_000
        assert units.us(0.5) == 500

    def test_milliseconds(self):
        assert units.ms(1) == 1_000_000
        assert units.ms(0.2) == 200_000

    def test_seconds(self):
        assert units.seconds(1) == 1_000_000_000
        assert units.seconds(10) == 10 * units.SECOND

    def test_round_trip_seconds(self):
        assert units.ns_to_seconds(units.seconds(2.5)) == pytest.approx(2.5)

    def test_rounding(self):
        # 0.0004 us = 0.4 ns rounds to 0; 0.6 ns rounds to 1.
        assert units.us(0.0004) == 0
        assert units.us(0.0006) == 1


class TestTransmissionTime:
    def test_exact_division(self):
        # 216 bits at 216 Mb/s is exactly one microsecond.
        assert units.transmission_time_ns(216, 216e6) == 1_000

    def test_rounds_up(self):
        # 1000 bytes at 216 Mb/s = 37.037... us, must round *up*.
        airtime = units.transmission_time_ns(8000, 216e6)
        assert airtime == 37_038

    def test_table1_packet_at_basic_rate(self):
        # 1000 bytes at 54 Mb/s ~ 148.1 us.
        airtime = units.transmission_time_ns(8000, 54e6)
        assert 148_000 < airtime < 148_200

    def test_zero_bits(self):
        assert units.transmission_time_ns(0, 54e6) == 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            units.transmission_time_ns(100, 0)

    @given(bits=st.integers(min_value=0, max_value=10**7), rate=st.sampled_from([6e6, 54e6, 216e6]))
    def test_airtime_never_shorter_than_exact(self, bits, rate):
        airtime = units.transmission_time_ns(bits, rate)
        assert airtime >= bits / rate * 1e9 - 1e-6

    @given(bits=st.integers(min_value=1, max_value=10**6))
    def test_airtime_monotone_in_bits(self, bits):
        assert units.transmission_time_ns(bits + 1, 54e6) >= units.transmission_time_ns(bits, 54e6)
