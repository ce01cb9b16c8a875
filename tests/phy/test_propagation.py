"""Shadowing propagation model: monotonicity, calibration, probabilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.phy.params import PhyParams
from repro.phy.propagation import ShadowingPropagation, propagation_delay_ns


@pytest.fixture
def model():
    return ShadowingPropagation()  # paper parameters: exponent 5, deviation 8 dB


class TestMeanPower:
    def test_power_decreases_with_distance(self, model):
        phy = PhyParams()
        powers = [model.mean_received_power_dbm(phy.tx_power_dbm, d) for d in (50, 100, 200, 400)]
        assert powers == sorted(powers, reverse=True)

    def test_path_loss_exponent_slope(self, model):
        # Doubling the distance should cost 10 * 5 * log10(2) ~ 15.05 dB.
        phy = PhyParams()
        p1 = model.mean_received_power_dbm(phy.tx_power_dbm, 100)
        p2 = model.mean_received_power_dbm(phy.tx_power_dbm, 200)
        assert p1 - p2 == pytest.approx(50 * np.log10(2), abs=1e-6)

    def test_reference_distance_clamp(self, model):
        # Below the reference distance the loss does not keep growing.
        phy = PhyParams()
        assert model.mean_received_power_dbm(phy.tx_power_dbm, 0.1) == model.mean_received_power_dbm(
            phy.tx_power_dbm, 1.0
        )

    def test_zero_distance(self, model):
        assert model.mean_received_power_dbm(20.0, 0.0) == 20.0


class TestReceptionProbability:
    def test_probability_decreases_with_distance(self, model):
        phy = PhyParams()
        probs = [
            model.reception_probability(phy.tx_power_dbm, d, phy.rx_threshold_dbm)
            for d in (100, 150, 250, 400)
        ]
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_relay_hop_distance_is_reliable(self, model):
        # The topologies use ~115 m relay hops; they must be >90 % reliable.
        phy = PhyParams()
        assert model.reception_probability(phy.tx_power_dbm, 115, phy.rx_threshold_dbm) > 0.9

    def test_direct_link_distance_is_poor(self, model):
        # The ~300 m "direct" links of Fig. 1 must be well below 50 %.
        phy = PhyParams()
        assert model.reception_probability(phy.tx_power_dbm, 300, phy.rx_threshold_dbm) < 0.5

    def test_hidden_distance_is_not_even_sensed(self, model):
        # Stations ~700 m apart should rarely carrier-sense each other (Fig. 5(b)).
        phy = PhyParams()
        assert model.reception_probability(phy.tx_power_dbm, 700, phy.cs_threshold_dbm) < 0.1

    def test_at_nominal_range_probability_is_half(self, model):
        # The nominal range: the distance at which the mean power equals the threshold.
        phy = PhyParams()
        loss_db = phy.tx_power_dbm - phy.rx_threshold_dbm - model.reference_loss_db()
        distance = model.reference_distance_m * 10.0 ** (
            loss_db / (10.0 * model.path_loss_exponent)
        )
        assert model.mean_received_power_dbm(phy.tx_power_dbm, distance) == pytest.approx(
            phy.rx_threshold_dbm
        )
        prob = model.reception_probability(phy.tx_power_dbm, distance, phy.rx_threshold_dbm)
        assert prob == pytest.approx(0.5, abs=0.01)

    def test_no_shadowing_is_a_step_function(self):
        model = ShadowingPropagation(shadowing_deviation_db=0.0)
        phy = PhyParams()
        near = model.reception_probability(phy.tx_power_dbm, 50, phy.rx_threshold_dbm)
        far = model.reception_probability(phy.tx_power_dbm, 2000, phy.rx_threshold_dbm)
        assert near == 1.0 and far == 0.0


class TestShadowingDraws:
    def test_draws_scatter_around_mean(self, model):
        rng = np.random.default_rng(0)
        phy = PhyParams()
        draws = np.array(
            [model.received_power_dbm(phy.tx_power_dbm, 200, rng) for _ in range(4000)]
        )
        mean = model.mean_received_power_dbm(phy.tx_power_dbm, 200)
        assert abs(draws.mean() - mean) < 0.5
        assert abs(draws.std() - 8.0) < 0.5

    @given(distance=st.floats(min_value=1.0, max_value=2000.0))
    def test_probability_is_valid(self, distance):
        model = ShadowingPropagation()
        phy = PhyParams()
        p = model.reception_probability(phy.tx_power_dbm, distance, phy.rx_threshold_dbm)
        assert 0.0 <= p <= 1.0

    def test_draws_are_bounded_by_max_deviation(self):
        # A tight one-sigma bound makes clipping frequent and easy to verify;
        # this bound is exactly what makes receiver culling provably safe.
        model = ShadowingPropagation(shadowing_deviation_db=8.0, max_deviation_sigmas=1.0)
        rng = np.random.default_rng(1)
        mean = model.mean_received_power_dbm(20.0, 200)
        draws = np.array([model.received_power_dbm(20.0, 200, rng) for _ in range(2000)])
        assert draws.max() <= mean + model.max_shadowing_db() + 1e-9
        assert draws.min() >= mean - model.max_shadowing_db() - 1e-9
        assert model.max_shadowing_db() == 8.0

    def test_reception_probability_matches_the_truncated_distribution(self):
        # Clipping piles tail mass at the bound, so the closed form must
        # saturate exactly where the simulation provably always/never hears
        # a frame — otherwise ETX routes over undeliverable links.
        model = ShadowingPropagation(shadowing_deviation_db=8.0, max_deviation_sigmas=1.0)
        mean = model.mean_received_power_dbm(20.0, 200)
        bound = model.max_shadowing_db()
        assert model.reception_probability(20.0, 200, mean - bound) == 1.0
        assert model.reception_probability(20.0, 200, mean + bound + 0.1) == 0.0
        inside = model.reception_probability(20.0, 200, mean + bound / 2)
        assert 0.0 < inside < 0.5  # untruncated Gaussian tail within the bound

    def test_default_bound_is_statistically_invisible(self):
        # At the default 6 sigma the clip probability is ~2e-9: no draw in a
        # realistic run is affected, so the model matches NS-2 in practice.
        model = ShadowingPropagation()
        rng = np.random.default_rng(2)
        draws = np.array([model.received_power_dbm(20.0, 200, rng) for _ in range(4000)])
        assert abs(draws.std() - 8.0) < 0.5


class TestPropagationDelay:
    def test_speed_of_light(self):
        assert propagation_delay_ns(300.0) == pytest.approx(1000, abs=1)

    def test_zero_distance(self):
        assert propagation_delay_ns(0.0) == 0
