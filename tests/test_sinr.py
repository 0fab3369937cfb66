"""Power-breakdown and SINR evaluation tests."""

import numpy as np
import pytest

from hetnet_tr.beamform import BeamformerSet, design_beamformers
from hetnet_tr.channel import ChannelSet
from hetnet_tr.sinr import (
    Coupling,
    PowerBreakdown,
    couple,
    coupling_terms,
    fu_breakdown,
    mu_breakdown,
    sinr,
    victim_sinrs,
)

from helpers import crandn, designed_scenario
from oracles import _combined_response


def reconstruct_received_energy(filters_by_user, powers, victim_cirs):
    """Explicit per-source energy sum, written independently of the module."""
    total = 0.0
    for k in range(filters_by_user.shape[1]):
        resp = np.zeros(2 * victim_cirs.shape[1] - 1, dtype=complex)
        for m in range(filters_by_user.shape[0]):
            resp = resp + np.convolve(filters_by_user[m, k, :], victim_cirs[m])
        total += powers[k] * np.sum(np.abs(resp) ** 2)
    return total


class TestMuBreakdown:
    def test_scalar_arithmetic(self):
        ch = ChannelSet(h0=np.array([[[2.0 + 0j]]]),
                        h1=np.ones((1, 1, 1), dtype=complex),
                        h10=np.zeros((1, 1, 1), dtype=complex),
                        h01=np.zeros((1, 1, 1), dtype=complex))
        beams = BeamformerSet(u=np.ones((1, 1, 1), dtype=complex),
                              alpha=np.array([1]),
                              g=np.ones((1, 1, 1), dtype=complex), beta=1)
        b = mu_breakdown(ch, beams, np.array([4.0]), np.array([0.0]), 0,
                         noise_power=1e-12)
        assert b.sig == pytest.approx(16.0)
        assert b.isi == 0 and b.co == 0 and b.cross == 0
        assert b.noise == 1e-12

    def test_zero_powers(self):
        _, _, ch, beams = designed_scenario(201)
        b = mu_breakdown(ch, beams, np.zeros(2), np.zeros(2), 0, noise_power=1e-9)
        assert b.sig == 0 and b.isi == 0 and b.co == 0 and b.cross == 0
        assert b.noise == 1e-9

    def test_zero_forcing_cleans_interference(self):
        _, _, ch, beams = designed_scenario(202)
        p0 = np.array([0.5, 1.5])
        p1 = np.zeros(2)
        for n in range(2):
            b = mu_breakdown(ch, beams, p0, p1, n, noise_power=1e-12)
            assert b.isi + b.co <= 1e-8 * b.sig

    def test_cross_term_uses_femto_powers(self):
        _, _, ch, beams = designed_scenario(203)
        p0 = np.ones(2)
        b1 = mu_breakdown(ch, beams, p0, np.array([1.0, 0.0]), 0,
                          noise_power=1e-12)
        b2 = mu_breakdown(ch, beams, p0, np.array([2.0, 0.0]), 0,
                          noise_power=1e-12)
        assert b2.cross == pytest.approx(2 * b1.cross, rel=1e-12)

    def test_tap_validated(self):
        _, _, ch, beams = designed_scenario(204)
        bad = BeamformerSet(u=beams.u, alpha=np.array([12, 1]), g=beams.g, beta=6)
        with pytest.raises(ValueError):
            mu_breakdown(ch, bad, np.ones(2), np.ones(2), 0,
                         noise_power=1e-12)


class TestFuBreakdown:
    def test_single_link_matched_filter_peak(self):
        """With one antenna and one FU, signal power is p * channel energy."""
        rng = np.random.default_rng(205)
        h1 = (rng.standard_normal((1, 1, 6)) + 1j * rng.standard_normal((1, 1, 6)))
        ch = ChannelSet(h0=np.ones((1, 1, 6), dtype=complex), h1=h1,
                        h10=np.zeros((1, 1, 6), dtype=complex),
                        h01=np.zeros((1, 1, 6), dtype=complex))
        g = np.conj(h1[:, :, ::-1]) / np.linalg.norm(h1)
        beams = BeamformerSet(u=np.ones((1, 1, 6), dtype=complex),
                              alpha=np.array([1]), g=g, beta=6)
        p1 = np.array([2.5])
        b = fu_breakdown(ch, beams, np.zeros(1), p1, 0, noise_power=1e-12)
        assert b.sig == pytest.approx(2.5 * np.sum(np.abs(h1) ** 2), rel=1e-12)

    def test_zero_macro_power_kills_cross(self):
        _, _, ch, beams = designed_scenario(206)
        b = fu_breakdown(ch, beams, np.zeros(2), np.ones(2), 1,
                         noise_power=1e-12)
        assert b.cross == 0.0

    def test_cross_override(self):
        _, _, ch, beams = designed_scenario(207)
        b = fu_breakdown(ch, beams, None, np.ones(2), 0, noise_power=1e-12,
                         cross_override=1e-4)
        assert b.cross == 1e-4

    def test_missing_macro_power_rejected(self):
        _, _, ch, beams = designed_scenario(208)
        with pytest.raises(ValueError):
            fu_breakdown(ch, beams, None, np.ones(2), 0, noise_power=1e-12)

    def test_energy_accounting(self):
        """Component sum equals the reconstructed per-source received energy."""
        _, _, ch, beams = designed_scenario(209, n1=3)
        rng = np.random.default_rng(1)
        p0 = rng.random(2)
        p1 = rng.random(3)
        for j in range(3):
            b = fu_breakdown(ch, beams, p0, p1, j, noise_power=1e-12)
            own_and_co = reconstruct_received_energy(beams.g, p1, ch.h1[:, j, :])
            cross = reconstruct_received_energy(beams.u, p0, ch.h01[:, j, :])
            assert b.sig + b.isi + b.co + b.cross == pytest.approx(
                own_and_co + cross, rel=1e-10)

    def test_mu_energy_accounting(self):
        _, _, ch, beams = designed_scenario(210)
        rng = np.random.default_rng(2)
        p0 = rng.random(2)
        p1 = rng.random(2)
        for n in range(2):
            b = mu_breakdown(ch, beams, p0, p1, n, noise_power=1e-12)
            own_and_co = reconstruct_received_energy(beams.u, p0, ch.h0[:, n, :])
            cross = reconstruct_received_energy(beams.g, p1, ch.h10[:, n, :])
            assert b.sig + b.isi + b.co + b.cross == pytest.approx(
                own_and_co + cross, rel=1e-10)


class TestVictimRows:
    """With a cross override, an FU breakdown reads the TR beams alone."""

    def test_fu_override_ignores_macro_beams(self):
        _, _, ch, beams = designed_scenario(208)
        broken = BeamformerSet(u=beams.u, alpha=np.array([0, 99]),
                               g=beams.g, beta=beams.beta)
        p1 = np.array([1.0, 2.0])
        b = fu_breakdown(ch, broken, None, p1, 1, noise_power=1e-12,
                         cross_override=1e-9)
        assert b == fu_breakdown(ch, beams, None, p1, 1, noise_power=1e-12,
                                 cross_override=1e-9)
        with pytest.raises(ValueError):
            mu_breakdown(ch, broken, np.ones(2), p1, 1, noise_power=1e-12)


class TestCouplingTerms:
    def test_matches_convolution_oracle(self):
        """Energies and sampled powers equal per-antenna convolution sums."""
        rng = np.random.default_rng(219)
        for draw in range(100):
            M, K, L = (int(x) for x in rng.integers(1, 5, size=3))
            first = int(rng.integers(0, 3))
            V = first + K + int(rng.integers(0, 3))
            taps = rng.integers(1, 2 * L, size=K)
            filters = crandn(rng, M, K, L)
            cirs = crandn(rng, M, V, L)
            energy, signal = coupling_terms(filters, cirs, taps, first=first)
            for k in range(K):
                for v in range(V):
                    r = _combined_response(filters[:, k], cirs[:, v])
                    np.testing.assert_allclose(
                        energy[v, k], np.sum(np.abs(r) ** 2), rtol=1e-12,
                        err_msg=f"draw {draw}")
                    if v == first + k:
                        np.testing.assert_allclose(
                            signal[k], abs(r[taps[k] - 1]) ** 2, rtol=1e-12,
                            err_msg=f"draw {draw}")


class TestVictimSinrs:
    """The array SINRs against the per-victim breakdown, victim by victim."""

    @pytest.mark.parametrize("seed,n1", [(213, 2), (214, 3), (215, 4)])
    def test_every_victim_matches_breakdown(self, seed, n1):
        cfg, _, ch, beams = designed_scenario(seed, n1=n1)
        coupling = couple(ch, beams)
        rng = np.random.default_rng(seed)
        p0, p1 = rng.uniform(1e-3, 1.0, 2), rng.uniform(1e-3, 1.0, n1)
        p = np.concatenate([p0, p1])
        noise = cfg.noise_power
        for override in (None, cfg.p_tol):
            got = victim_sinrs(coupling, p, noise, cross_override=override)
            for v in range(2 + n1):
                fu_override = override if v >= 2 else None
                ref = sinr(coupling.breakdown(v, p0, p1, noise, fu_override))
                assert got[v] == pytest.approx(ref, rel=1e-12)

    def test_single_tier_matches_breakdown(self):
        """n0 = 0: one tier's own coupling against a fixed cross term."""
        cfg, _, ch, beams = designed_scenario(216, n1=3)
        p1 = np.array([0.2, 0.5, 0.9])
        femto = Coupling.from_energy(
            *coupling_terms(beams.g, ch.h1, beams.beta))
        got = victim_sinrs(femto, p1, cfg.noise_power,
                           cross_override=cfg.p_tol)
        full = couple(ch, beams)
        for j in range(3):
            ref = sinr(full.breakdown(2 + j, None, p1, cfg.noise_power,
                                      cfg.p_tol))
            assert got[j] == pytest.approx(ref, rel=1e-12)


class TestSinr:
    def test_unit_case(self):
        assert sinr(PowerBreakdown(1.0, 0.0, 0.0, 0.0, 1.0)) == 1.0

    def test_zero_signal(self):
        assert sinr(PowerBreakdown(0.0, 0.1, 0.2, 0.0, 1e-12)) == 0.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            sinr(PowerBreakdown(1.0, 0.0, 0.0, 0.0, 0.0))

    def test_monotone_in_interference(self):
        base = PowerBreakdown(1.0, 0.1, 0.1, 0.1, 1e-12)
        worse = PowerBreakdown(1.0, 0.1, 0.2, 0.1, 1e-12)
        assert sinr(worse) < sinr(base)

    def test_power_scaling(self):
        """Scaling one user's power scales its signal and caused terms by t."""
        _, _, ch, beams = designed_scenario(211)
        p0 = np.array([1.0, 2.0])
        p1 = np.array([0.5, 0.25])
        t = 3.0
        b = fu_breakdown(ch, beams, p0, p1, 0, noise_power=1e-12)
        p1_scaled = p1 * np.array([t, 1.0])
        bs = fu_breakdown(ch, beams, p0, p1_scaled, 0, noise_power=1e-12)
        assert bs.sig == pytest.approx(t * b.sig, rel=1e-12)
        assert bs.isi == pytest.approx(t * b.isi, rel=1e-12)
        assert bs.co == pytest.approx(b.co, rel=1e-12)

    def test_focalization_peak_at_central_tap(self):
        """TR signal power is maximal when sampling the central tap."""
        _, _, ch, beams = designed_scenario(212, n1=3)
        p1 = np.ones(3)
        for j in range(3):
            sigs = []
            for beta in range(1, 12):
                trial = BeamformerSet(u=beams.u, alpha=beams.alpha,
                                      g=beams.g, beta=beta)
                sigs.append(fu_breakdown(ch, trial, None, p1, j,
                                         noise_power=1e-12,
                                         cross_override=0.0).sig)
            assert int(np.argmax(sigs)) + 1 == 6
