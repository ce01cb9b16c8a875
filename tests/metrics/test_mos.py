"""E-model R-factor and MoS formulas (Section IV-E)."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.mos import (
    MOUTH_TO_EAR_DELAY_MS,
    WIRELESS_DELAY_BUDGET_MS,
    evaluate_voip,
    heaviside,
    mos,
    mos_from_r,
    r_factor,
)


class TestRFactor:
    def test_no_loss_low_delay_is_good(self):
        assert r_factor(50.0, 0.0) > 80.0

    def test_loss_reduces_r(self):
        assert r_factor(100.0, 0.1) < r_factor(100.0, 0.0)

    def test_delay_reduces_r(self):
        assert r_factor(250.0, 0.0) < r_factor(100.0, 0.0)

    def test_delay_penalty_kicks_in_past_177ms(self):
        # The extra 0.11 (d - 177.3) term only applies beyond 177.3 ms.
        below = r_factor(177.0, 0.0) - r_factor(176.0, 0.0)
        above = r_factor(200.0, 0.0) - r_factor(199.0, 0.0)
        assert above < below < 0

    def test_paper_operating_point(self):
        # At the paper's 177 ms budget with no loss, quality is "fair"-to-"good".
        r = r_factor(MOUTH_TO_EAR_DELAY_MS, 0.0)
        assert 75 < r < 80
        assert 3.8 < mos_from_r(r) <= 4.5

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            r_factor(100.0, 1.5)

    def test_heaviside(self):
        assert heaviside(1.0) == 1.0
        assert heaviside(0.0) == 0.0
        assert heaviside(-1.0) == 0.0


class TestMos:
    def test_negative_r_maps_to_one(self):
        assert mos_from_r(-10.0) == 1.0

    def test_r_above_100_maps_to_max(self):
        assert mos_from_r(120.0) == 4.5

    def test_mid_range_value(self):
        # R = 70 -> 1 + 2.45 + 7e-6*70*10*30 = 3.597
        assert mos_from_r(70.0) == pytest.approx(3.597, abs=0.001)

    def test_bounds(self):
        for r in (-5, 0, 10, 40, 60, 80, 93.2, 100, 150):
            assert 1.0 <= mos_from_r(r) <= 4.5

    @given(r=st.floats(min_value=6.5, max_value=99.5))
    def test_monotone_in_r(self, r):
        # Above the clamp region the mapping is strictly increasing.
        assert mos_from_r(r + 0.5) >= mos_from_r(r) - 1e-9

    def test_clamped_at_one_for_tiny_r(self):
        assert mos_from_r(0.5) == 1.0

    @given(loss=st.floats(min_value=0, max_value=0.5))
    def test_mos_decreases_with_loss(self, loss):
        assert mos(177.0, loss) <= mos(177.0, 0.0) + 1e-9


class TestEvaluateVoip:
    def test_all_on_time_packets(self):
        quality = evaluate_voip(100, packets_sent=100)
        assert quality.loss_rate == 0.0
        assert quality.mos > 3.8

    def test_late_packets_count_as_losses(self):
        # Half arrive beyond the 52 ms budget, so only half count as on time
        # (the UDP receiver counts them; tests/transport/test_udp.py).
        quality = evaluate_voip(50, packets_sent=100)
        assert quality.loss_rate == pytest.approx(0.5)
        assert quality.mos < 2.5

    def test_missing_packets_count_as_losses(self):
        quality = evaluate_voip(60, packets_sent=100)
        assert quality.loss_rate == pytest.approx(0.4)

    def test_no_packets_sent_is_worst_case(self):
        quality = evaluate_voip(0, packets_sent=0)
        assert quality.mos == 1.0

    def test_budget_constant_matches_paper(self):
        assert WIRELESS_DELAY_BUDGET_MS == 52.0
        assert MOUTH_TO_EAR_DELAY_MS == 177.0

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
    def test_quality_always_in_range(self, on_time, lost):
        quality = evaluate_voip(on_time, packets_sent=max(on_time + lost, 1))
        assert 1.0 <= quality.mos <= 4.5
        assert 0.0 <= quality.loss_rate <= 1.0
