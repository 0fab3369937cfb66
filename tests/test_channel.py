"""Geometry, channel-draw, and estimation-error tests."""

import numpy as np
import pytest

from hetnet_tr.channel import (
    ChannelSet,
    Geometry,
    ScenarioConfig,
    draw_channel_set,
    draw_cir,
    get_profile,
    place_nodes,
    sample_true_given_estimate,
)
from hetnet_tr.errors import ConfigError

from oracles import perturb_cir


class TestProfileCatalog:
    def test_three_profiles_present(self):
        for key, n in [("indoor_office", 6), ("vehicular", 6), ("outdoor_to_indoor", 4)]:
            prof = get_profile(key)
            assert prof.n_taps == n
            assert prof.powers_dbm[0] == 0
            delays = np.asarray(prof.delays_ns, dtype=float)
            assert delays[0] == 0 and (np.diff(delays) > 0).all()

    def test_vehicular_linear_weights(self):
        # hand-converted from the dBm column
        expected = [1.0, 0.7943282, 0.1258925, 0.1, 0.0316228, 0.01]
        np.testing.assert_allclose(get_profile("vehicular").linear_powers,
                                   expected, rtol=1e-6)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            get_profile("rayleigh")


class TestScenarioConfig:
    def test_defaults_validate(self):
        cfg = ScenarioConfig().validate()
        assert cfg.gamma_m == pytest.approx(10 ** 0.1)
        assert cfg.gamma_f == pytest.approx(10 ** 0.2)
        assert cfg.p_tol == pytest.approx(1e-4)

    def test_zf_dimension_guard(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(m0=2, n0=2).validate()

    def test_noise_must_be_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(noise_power=0.0).validate()

    def test_taps_must_cover_longest_profile(self):
        # the Vehicular and Indoor Office profiles have 6 taps
        with pytest.raises(ConfigError, match="longest channel profile"):
            ScenarioConfig(taps=5, m0=8).validate()
        assert ScenarioConfig(taps=6).validate().taps == 6

    def test_link_distance_bound(self):
        """Just inside the bound every link distance is finite, with no
        overflow warning; just outside it the config is rejected."""
        cfg = ScenarioConfig(d_macro=1.3e154).validate()
        geo = place_nodes(cfg, np.random.default_rng(0))
        for d in (geo.d_0n, geo.d_10n, geo.d_1j, geo.d_01j):
            assert np.isfinite(d).all()
        with pytest.raises(ConfigError, match=r"d_macro = 1\.4e\+154 m"):
            ScenarioConfig(d_macro=1.4e154).validate()


class TestPlaceNodes:
    def test_distance_ranges(self):
        cfg = ScenarioConfig().validate()
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = place_nodes(cfg, rng)
            assert ((g.d_0n > 0) & (g.d_0n <= cfg.d_macro)).all()
            assert ((g.d_1j > 0) & (g.d_1j <= cfg.d_femto)).all()
            lo = cfg.d_mbs_fbs - cfg.d_femto
            hi = cfg.d_mbs_fbs + cfg.d_femto
            assert ((g.d_01j >= lo - 1e-9) & (g.d_01j <= hi + 1e-9)).all()
            assert (g.d_10n > 0).all()
            assert g.d_mbs_fbs == cfg.d_mbs_fbs

    def test_mean_mu_distance(self):
        """Uniform disc radial mean is 2/3 of the radius."""
        cfg = ScenarioConfig().validate()
        rng = np.random.default_rng(2)
        d = np.concatenate([place_nodes(cfg, rng).d_0n for _ in range(5000)])
        assert np.mean(d) == pytest.approx(200.0, rel=0.03)

    def test_mean_fu_distance(self):
        cfg = ScenarioConfig().validate()
        rng = np.random.default_rng(3)
        d = np.concatenate([place_nodes(cfg, rng).d_1j for _ in range(5000)])
        assert np.mean(d) == pytest.approx(20.0, rel=0.03)

    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig()
        a = place_nodes(cfg, np.random.default_rng(99))
        b = place_nodes(cfg, np.random.default_rng(99))
        np.testing.assert_array_equal(a.d_0n, b.d_0n)
        np.testing.assert_array_equal(a.d_10n, b.d_10n)


class TestDrawCir:
    def test_tap_variances_monte_carlo(self):
        """Sample variance per tap tracks the profile weight at unit distance."""
        prof = get_profile("indoor_office")
        rng = np.random.default_rng(4)
        draws = np.array([draw_cir(prof, 1.0, 3.0, 6, rng) for _ in range(100_000)])
        sample_var = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(sample_var, prof.linear_powers, rtol=0.02)

    def test_pathloss_scaling(self):
        prof = get_profile("vehicular")
        rng = np.random.default_rng(5)
        draws = np.array([draw_cir(prof, 10.0, 4.0, 6, rng) for _ in range(20_000)])
        sample_var = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(sample_var, prof.linear_powers / 1e4, rtol=0.05)

    def test_short_profile_zero_padded(self):
        rng = np.random.default_rng(6)
        taps = draw_cir(get_profile("outdoor_to_indoor"), 80.0, 3.5, 6, rng)
        assert taps.shape == (6,)
        assert taps[4] == 0 and taps[5] == 0
        assert np.abs(taps[:4]).min() > 0

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            draw_cir(get_profile("vehicular"), 0.0, 4.0, 6, np.random.default_rng(0))

    def test_profile_longer_than_l(self):
        with pytest.raises(ValueError):
            draw_cir(get_profile("vehicular"), 10.0, 4.0, 3, np.random.default_rng(0))


class TestDrawChannelSet:
    def _draw(self, seed, n1=3):
        cfg = ScenarioConfig(n1=n1).validate()
        rng = np.random.default_rng(seed)
        geo = place_nodes(cfg, rng)
        return draw_channel_set(cfg, geo, rng)

    def test_shapes(self):
        ch = self._draw(7)
        assert ch.h0.shape == (4, 2, 6)
        assert ch.h1.shape == (4, 3, 6)
        assert ch.h10.shape == (4, 2, 6)
        assert ch.h01.shape == (4, 3, 6)
        assert ch.taps == 6

    def test_cross_tier_taps_padded(self):
        ch = self._draw(8)
        assert not ch.h10[:, :, 4:].any()
        assert not ch.h01[:, :, 4:].any()
        assert ch.h0[:, :, 4:].all()

    def test_deterministic_replay(self):
        a = self._draw(9)
        b = self._draw(9)
        for name in ("h0", "h1", "h10", "h01"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestPerturbCir:
    def test_zero_psi_is_identity(self):
        h = np.array([1.0 + 1j, -2.0, 0.5j])
        h_est, e = perturb_cir(h, 0.0, "uniform_ball", np.random.default_rng(0))
        np.testing.assert_array_equal(h_est, h)
        assert not e.any()

    def test_anti_aligned_shrinks_estimate(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h_est, e = perturb_cir(h, 0.04, "worst_anti_aligned")
        np.testing.assert_allclose(h_est, 0.8 * h, rtol=1e-12)
        assert np.linalg.norm(e) ** 2 == pytest.approx(0.04 * np.linalg.norm(h) ** 2,
                                                       rel=1e-12)

    def test_aligned_grows_estimate(self):
        h = np.array([2.0, 1j])
        h_est, e = perturb_cir(h, 0.25, "worst_aligned")
        np.testing.assert_allclose(h_est, 1.5 * h, rtol=1e-12)

    def test_uniform_ball_never_violates_bound(self):
        rng = np.random.default_rng(12)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        bound = 0.09 * np.linalg.norm(h) ** 2
        for _ in range(100_000):
            _, e = perturb_cir(h, 0.09, "uniform_ball", rng)
            assert np.linalg.norm(e) ** 2 <= bound * (1 + 1e-12)

    def test_psi_range_checked(self):
        with pytest.raises(ValueError):
            perturb_cir(np.ones(3), 1.0, "worst_aligned")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            perturb_cir(np.ones(3), 0.1, "gaussian")


class TestSampleTrueGivenEstimate:
    def test_every_draw_is_feasible(self):
        """Each sampled truth must explain the estimate within the error budget."""
        rng = np.random.default_rng(13)
        h_est = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi = 0.04
        draws = sample_true_given_estimate(h_est, psi, rng, 50_000)
        assert draws.shape == (50_000, 6)
        err = np.linalg.norm(h_est[None, :] - draws, axis=1) ** 2
        true_norm = np.linalg.norm(draws, axis=1) ** 2
        assert (err <= psi * true_norm * (1 + 1e-9)).all()

    def test_ball_is_reached(self):
        # draws should spread beyond the naive truth-side radius on occasion
        rng = np.random.default_rng(14)
        h_est = np.array([1.0, 0.0, 0.0], dtype=complex)
        draws = sample_true_given_estimate(h_est, 0.25, rng, 20_000)
        err = np.linalg.norm(h_est[None, :] - draws, axis=1)
        assert err.max() > 0.5 * 1.1   # exceeds sqrt(psi)*||h_est|| draws

    def test_zero_psi(self):
        h_est = np.array([1.0 + 2j, 3.0])
        draws = sample_true_given_estimate(h_est, 0.0, np.random.default_rng(0), 5)
        assert draws.shape == (5, 2)
        assert (draws == h_est[None, :]).all()

    def test_matrix_shaped_estimate(self):
        rng = np.random.default_rng(15)
        h_est = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        draws = sample_true_given_estimate(h_est, 0.04, rng, 100)
        assert draws.shape == (100, 4, 6)
        err = np.linalg.norm((h_est[None] - draws).reshape(100, -1), axis=1) ** 2
        nrm = np.linalg.norm(draws.reshape(100, -1), axis=1) ** 2
        assert (err <= 0.04 * nrm * (1 + 1e-9)).all()
