"""i.i.d. bit-error model: the closed-form block success probability.

The draws against it are the channel's, tested in
``tests/phy/test_channel.py::TestBitErrors``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.phy.error_models import BitErrorModel

#: Section IV's clear and noisy channels.
CLEAR, NOISY = BitErrorModel(1e-6), BitErrorModel(1e-5)


class TestSuccessProbability:
    def test_clear_channel_packet_success(self):
        # 1000-byte packet at BER 1e-6: (1 - 1e-6)^8000 ~ 0.992
        assert CLEAR.success_probability(8000) == pytest.approx(0.992, abs=0.001)

    def test_noisy_channel_packet_success(self):
        # Same packet at BER 1e-5: ~ 0.923
        assert NOISY.success_probability(8000) == pytest.approx(0.923, abs=0.002)

    def test_zero_bits_always_succeed(self):
        assert NOISY.success_probability(0) == 1.0

    def test_zero_ber_always_succeeds(self):
        assert BitErrorModel(0.0).success_probability(10**6) == 1.0

    def test_probability_decreases_with_size(self):
        model = NOISY
        probs = [model.success_probability(bits) for bits in (100, 1000, 10_000, 100_000)]
        assert probs == sorted(probs, reverse=True)

    @given(bits=st.integers(min_value=0, max_value=10**6), ber=st.sampled_from([0.0, 1e-6, 1e-5, 1e-3]))
    def test_probability_in_unit_interval(self, bits, ber):
        p = BitErrorModel(ber).success_probability(bits)
        assert 0.0 <= p <= 1.0

