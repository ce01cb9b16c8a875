"""Fading propagation models and the propagation registry.

Covers the component-pack guarantees: the registry's default entry is
exactly the pre-pack shadowing model, fades stay inside their declared
bounds (the culling contract), batched draws are invariant to buffer size
(the hot-path contract), and the empirical fade distributions match their
closed forms (the statistical sanity the new models are worth having for).
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

from repro.phy.params import HIGH_RATE_PHY, LOW_RATE_PHY, PhyParams
from repro.phy.propagation import RayleighFading, RicianFading, ShadowingPropagation
from repro.phy.registry import PROPAGATION_MODELS, build_propagation
from repro.routing.graph import shortest_path
from repro.topology.network import WirelessNetwork
from repro.topology.standard import line_topology


class TestRegistry:
    def test_registry_lists_all_models(self):
        assert set(PROPAGATION_MODELS.names()) == {"shadowing", "rayleigh", "rician"}

    def test_default_build_is_the_pre_pack_shadowing_model(self):
        phy = PhyParams()
        assert build_propagation(phy) == ShadowingPropagation(
            max_deviation_sigmas=phy.max_deviation_sigmas
        )

    def test_default_build_inherits_the_cull_margin(self):
        phy = PhyParams(max_deviation_sigmas=4.0)
        assert build_propagation(phy).max_deviation_sigmas == 4.0

    def test_named_builds_with_params(self):
        phy = PhyParams(propagation="rician", propagation_params={"k_factor": 8.0})
        model = build_propagation(phy)
        assert isinstance(model, RicianFading)
        assert model.k_factor == 8.0
        assert isinstance(
            build_propagation(PhyParams(propagation="rayleigh")), RayleighFading
        )

    def test_unknown_model_name_rejected_at_params_construction(self):
        with pytest.raises(ValueError, match="unknown propagation model"):
            PhyParams(propagation="ricean")

    def test_unknown_builder_param_is_an_error(self):
        phy = PhyParams(propagation="rayleigh", propagation_params={"k_factor": 1.0})
        with pytest.raises(ValueError, match="bad parameters for propagation model"):
            build_propagation(phy)

    def test_params_round_trip_through_phy_dict(self):
        phy = PhyParams(propagation="rician", propagation_params={"k_factor": 2.0})
        assert PhyParams.from_dict(phy.to_dict()) == phy


class TestFadeBounds:
    @pytest.mark.parametrize(
        "model",
        [
            ShadowingPropagation(max_deviation_sigmas=2.0),
            RayleighFading(max_fade_db=3.0, min_fade_db=-20.0),
            RicianFading(k_factor=4.0, max_fade_db=3.0, min_fade_db=-20.0),
        ],
    )
    def test_fades_respect_declared_bounds(self, model):
        fades = model.fade_batch_db(np.random.default_rng(0), 50_000)
        assert fades.max() <= model.max_shadowing_db() + 1e-12
        if isinstance(model, ShadowingPropagation):
            assert fades.min() >= -model.max_shadowing_db() - 1e-12
        else:
            assert fades.min() >= model.min_fade_db - 1e-12

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RicianFading(k_factor=-1.0)
        with pytest.raises(ValueError):
            RicianFading(min_fade_db=5.0, max_fade_db=5.0)
        with pytest.raises(ValueError, match="K=0 case"):
            RayleighFading(k_factor=2.0)


class TestDeterminism:
    @pytest.mark.parametrize(
        "model",
        [ShadowingPropagation(), RayleighFading(), RicianFading(k_factor=4.0)],
    )
    def test_same_seed_same_fades(self, model):
        a = model.fade_batch_db(np.random.default_rng(7), 256)
        b = model.fade_batch_db(np.random.default_rng(7), 256)
        assert (a == b).all()

    @pytest.mark.parametrize(
        "model",
        [ShadowingPropagation(), RayleighFading(), RicianFading(k_factor=4.0)],
    )
    def test_batch_size_never_changes_the_sample_path(self, model):
        """The hot-path contract: buffering is invisible to a link's fades."""
        whole = model.fade_batch_db(np.random.default_rng(3), 64)
        rng = np.random.default_rng(3)
        split = np.concatenate([model.fade_batch_db(rng, 16) for _ in range(4)])
        assert (whole == split).all()
        assert (whole == _pre_split_fades(model, np.random.default_rng(3), 64)).all()
        per_fade = model.raw_per_fade
        for size in (1, 16, 64):
            # One link's vector, filled and transformed ``size`` fades at a time.
            rng = np.random.default_rng(3)
            raw = np.empty(64 * per_fade)
            for start in range(0, len(raw), size * per_fade):
                model.fill_raw(rng, raw[start : start + size * per_fade])
            fades = np.concatenate([
                model.fades_from_raw(raw[start : start + size * per_fade])
                for start in range(0, len(raw), size * per_fade)
            ])
            assert (fades == whole).all()
            # Three links' columns of one Fortran-order block, as a dispatch plan holds them.
            columns = [np.random.default_rng(seed) for seed in (3, 4, 5)]
            block = np.empty((64 * per_fade, 3), order="F")
            for index, column_rng in enumerate(columns):
                model.fill_raw(column_rng, block[:, index])
            fades = np.concatenate([
                model.fades_from_raw(block[start : start + size * per_fade])
                for start in range(0, len(block), size * per_fade)
            ])
            for index, seed in enumerate((3, 4, 5)):
                assert (fades[:, index] == model.fade_batch_db(np.random.default_rng(seed), 64)).all()

    def test_shadowing_batch_matches_pre_pack_computation(self):
        """The default model's draws are bit-identical to the pre-registry code."""
        model = ShadowingPropagation()
        ours = model.fade_batch_db(np.random.default_rng(11), 64)
        rng = np.random.default_rng(11)
        theirs = rng.normal(0.0, model.shadowing_deviation_db, 64)
        np.clip(theirs, -model.max_shadowing_db(), model.max_shadowing_db(), out=theirs)
        assert (ours == theirs).all()


def _pre_split_fades(model, rng, count):
    """Each model's ``fade_batch_db`` as written before it was split into two steps."""
    if isinstance(model, ShadowingPropagation):
        draws = rng.normal(0.0, model.shadowing_deviation_db, count)
        np.clip(draws, -model.max_shadowing_db(), model.max_shadowing_db(), out=draws)
        return draws
    if isinstance(model, RayleighFading):
        gains = rng.standard_exponential(count)
    else:
        k = model.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        normals = rng.standard_normal(2 * count)
        in_phase = sigma * normals[0::2] + los
        quadrature = sigma * normals[1::2]
        gains = in_phase * in_phase + quadrature * quadrature
    np.clip(gains, *model._gain_bounds(), out=gains)
    return 10.0 * np.log10(gains)


class TestStatistics:
    """Empirical fade distributions versus their closed forms."""

    SAMPLES = 200_000

    def test_rayleigh_gain_is_unit_mean_exponential(self):
        model = RayleighFading()
        gains = 10.0 ** (model.fade_batch_db(np.random.default_rng(1), self.SAMPLES) / 10.0)
        assert gains.mean() == pytest.approx(1.0, abs=0.02)
        for threshold in (0.1, 0.5, 1.0, 2.0):
            empirical = float((gains >= threshold).mean())
            assert empirical == pytest.approx(math.exp(-threshold), abs=0.01)

    @pytest.mark.parametrize("k_factor", [0.0, 1.0, 4.0, 16.0])
    def test_rician_tail_matches_closed_form(self, k_factor):
        model = RicianFading(k_factor=k_factor)
        gains = 10.0 ** (model.fade_batch_db(np.random.default_rng(2), self.SAMPLES) / 10.0)
        assert gains.mean() == pytest.approx(1.0, abs=0.02)
        for threshold in (0.25, 0.75, 1.25):
            empirical = float((gains >= threshold).mean())
            assert empirical == pytest.approx(
                model.gain_tail_probability(threshold), abs=0.01
            )

    def test_rician_k0_equals_rayleigh(self):
        assert RicianFading(k_factor=0.0).gain_tail_probability(0.7) == pytest.approx(
            RayleighFading().gain_tail_probability(0.7), abs=1e-9
        )

    @pytest.mark.parametrize("k_factor", [0.0, 0.5, 4.0, 16.0, 32.0])
    def test_tail_series_matches_scipy(self, k_factor):
        ncx2 = pytest.importorskip("scipy.stats").ncx2
        model = RicianFading(k_factor=k_factor)
        for gain in np.logspace(-4.0, 1.0, 101):
            exact = float(ncx2.sf(2.0 * (k_factor + 1.0) * gain, df=2, nc=2.0 * k_factor))
            assert model.gain_tail_probability(float(gain)) == pytest.approx(exact, abs=1e-12)

    def test_reception_probability_saturates_at_the_clip_bounds(self):
        model = RayleighFading(max_fade_db=6.0, min_fade_db=-30.0)
        tx = 24.49
        mean = model.mean_received_power_dbm(tx, 100.0)
        assert model.reception_probability(tx, 100.0, mean + model.max_fade_db + 1) == 0.0
        assert model.reception_probability(tx, 100.0, mean + model.min_fade_db) == 1.0
        mid = model.reception_probability(tx, 100.0, mean)
        assert 0.0 < mid < 1.0


class TestEnvironmentIndependence:
    """Routes under Rician fading do not depend on what is installed."""

    @staticmethod
    def _graph_and_routes(phy):
        network = WirelessNetwork(phy=phy, seed=1)
        network.add_nodes(line_topology(7).positions)
        graph = network.connectivity_graph()
        routes = {
            (src, dst): shortest_path(graph, src, dst, weight="etx")
            for src in graph
            for dst in graph
            if src != dst
        }
        return graph, routes

    @pytest.mark.parametrize("profile", [HIGH_RATE_PHY, LOW_RATE_PHY], ids=["high", "low"])
    def test_same_etx_routes_without_scipy(self, profile, monkeypatch):
        phy = dataclasses.replace(
            profile, propagation="rician", propagation_params={"k_factor": 8.0}
        )
        with_scipy = self._graph_and_routes(phy)
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        assert self._graph_and_routes(phy) == with_scipy
