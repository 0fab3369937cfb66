"""Worst-case bound tests: signal floor, interference ceilings, robust solve."""

import warnings

import numpy as np
import pytest

from helpers import crandn, designed_scenario

from hetnet_tr.channel import ChannelSet
from hetnet_tr.errors import InfeasibleError
from hetnet_tr.power import build_femto_lp, solve_femto
from hetnet_tr.robust import (
    RobustBounds,
    VirtualChannel,
    WorstCaseExtrema,
    assemble_bounds,
    proposed_upper,
    sample_true_channels,
    solve_robust,
    virtual_channel,
    worst_case_oracle,
    worst_signal_lower,
    young_upper,
)

PSI = 0.04


def femto_link(seed, j=0, n1=2):
    """TR filters and estimated CIRs of one FU from a designed scenario."""
    cfg, geo, ch, beams = designed_scenario(seed=seed, n1=n1)
    return beams.g[:, j, :], ch.h1[:, j, :]


def response(g, h):
    return sum(np.convolve(g[i], h[i]) for i in range(g.shape[0]))


class TestWorstSignalLower:
    def test_zero_error_matches_estimate(self):
        """psi=0 returns the estimated central-tap coefficient."""
        g, h = femto_link(seed=3)
        est = abs(response(g, h)[h.shape[1] - 1]) ** 2
        assert worst_signal_lower(g, h, 0.0) == pytest.approx(est, rel=1e-12)

    def test_scaling_factor(self):
        """psi=0.04 scales the estimate-side coefficient by exactly 1/0.8^2."""
        g, h = femto_link(seed=4)
        base = worst_signal_lower(g, h, 0.0)
        assert worst_signal_lower(g, h, PSI) == pytest.approx(
            base * 1.5625, rel=1e-12)

    def test_unit_estimate_single_antenna(self):
        """Matched filter on a unit-norm single-antenna estimate gives 1/(1-sqrt(psi))^2."""
        rng = np.random.default_rng(11)
        h = crandn(rng, 1, 6)
        h /= np.linalg.norm(h)
        g = np.conj(h[:, ::-1])
        assert worst_signal_lower(g, h, PSI) == pytest.approx(
            1.0 / (1.0 - np.sqrt(PSI)) ** 2, rel=1e-12)

    def test_attained_at_anti_aligned_boundary(self):
        """The floor equals the true coefficient at e = -sqrt(psi)/(1-sqrt(psi)) h."""
        for seed in range(6):
            g, h = femto_link(seed=seed, j=seed % 2)
            truth = h / (1.0 - np.sqrt(PSI))
            attained = abs(response(g, truth)[h.shape[1] - 1]) ** 2
            assert attained == pytest.approx(
                worst_signal_lower(g, h, PSI), rel=1e-10)

    def test_nondecreasing_in_psi(self):
        """Larger error fractions never lower the coefficient."""
        g, h = femto_link(seed=5)
        vals = [worst_signal_lower(g, h, p) for p in (0.0, 0.01, 0.04, 0.16)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_psi(self):
        """Error fractions outside [0, 1) are refused."""
        g, h = femto_link(seed=5)
        with pytest.raises(ValueError):
            worst_signal_lower(g, h, 1.0)
        with pytest.raises(ValueError):
            worst_signal_lower(g, h, -0.1)


class TestYoungUpper:
    def test_scalar_link_is_tight(self):
        """Length-1 single antenna: convolution is a product, bound is exact."""
        g = np.array([[2.0 - 1.0j]])
        h = np.array([[0.5 + 0.5j]])
        want = (abs(g[0, 0]) * abs(h[0, 0])) ** 2 / (1.0 - np.sqrt(PSI)) ** 2
        assert young_upper(g, h, PSI) == pytest.approx(want, rel=1e-12)

    def test_ceilings_estimate_energy(self):
        """At psi=0 the bound still dominates the estimate's response energy."""
        for seed in range(5):
            g, h = femto_link(seed=seed)
            energy = float(np.sum(np.abs(response(g, h)) ** 2))
            assert young_upper(g, h, 0.0) >= energy

    def test_ceilings_sampled_true_energy(self):
        """The bound dominates the response energy at sampled admissible channels."""
        g, h = femto_link(seed=7)
        bound = young_upper(g, h, PSI)
        rng = np.random.default_rng(70)
        for truth in sample_true_channels(h, PSI, rng, count=200):
            assert float(np.sum(np.abs(response(g, truth)) ** 2)) <= bound

    def test_nondecreasing_in_psi(self):
        """Larger error fractions never shrink the ceiling."""
        g, h = femto_link(seed=8)
        vals = [young_upper(g, h, p) for p in (0.0, 0.01, 0.04, 0.16)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestVirtualChannel:
    def test_invariants(self):
        """Unit direction, ball-radius norm, pinned phase, self-consistent gain."""
        g, h = femto_link(seed=9)
        vc = virtual_channel(g[2], h[2], PSI)
        assert isinstance(vc, VirtualChannel)
        assert np.linalg.norm(vc.phi_star) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(vc.h_star) == pytest.approx(
            np.linalg.norm(h[2]) / (1.0 - np.sqrt(PSI)), rel=1e-12)
        ip = np.vdot(h[2], vc.phi_star)
        assert ip.real >= 0.0 and abs(ip.imag) <= 1e-9 * abs(ip)
        energy = float(np.sum(np.abs(np.convolve(g[2], vc.h_star)) ** 2))
        assert energy == pytest.approx(vc.lam, rel=1e-10)

    def test_matches_dense_eigensolver(self):
        """lam agrees with the full spectrum of the scaled quadratic."""
        from hetnet_tr.linops import toeplitz_conv_matrix

        g, h = femto_link(seed=10)
        vc = virtual_channel(g[0], h[0], PSI)
        G = toeplitz_conv_matrix(g[0])
        scale = (np.linalg.norm(h[0]) / (1.0 - np.sqrt(PSI))) ** 2
        lam_dense = np.linalg.eigvalsh(G.conj().T @ G * scale)[-1]
        assert vc.lam == pytest.approx(lam_dense, rel=1e-9)

    def test_isometric_filter(self):
        """A leading delta filter passes the whole ball radius through."""
        g = np.zeros(6, dtype=complex)
        g[0] = 1.0
        rng = np.random.default_rng(12)
        h = crandn(rng, 6)
        vc = virtual_channel(g, h, PSI)
        want = (np.linalg.norm(h) / (1.0 - np.sqrt(PSI))) ** 2
        assert vc.lam == pytest.approx(want, rel=1e-10)
        energy = float(np.sum(np.abs(np.convolve(g, vc.h_star)) ** 2))
        assert energy == pytest.approx(want, rel=1e-10)

    def test_random_probe_maximality(self):
        """No equal-norm probe beats the extremal direction's response energy."""
        g, h = femto_link(seed=13)
        vc = virtual_channel(g[1], h[1], PSI)
        rng = np.random.default_rng(130)
        reach = np.linalg.norm(h[1]) / (1.0 - np.sqrt(PSI))
        for _ in range(10_000):
            x = crandn(rng, h.shape[1])
            x *= reach / np.linalg.norm(x)
            assert float(np.sum(np.abs(np.convolve(g[1], x)) ** 2)) \
                <= vc.lam * (1.0 + 1e-9)

    def test_zero_error_keeps_estimate_norm(self):
        """psi=0 shrinks the reach to the estimate's own norm."""
        g, h = femto_link(seed=14)
        vc = virtual_channel(g[3], h[3], 0.0)
        assert np.linalg.norm(vc.h_star) == pytest.approx(
            np.linalg.norm(h[3]), rel=1e-12)


class TestProposedUpper:
    def test_single_antenna_is_the_eigen_gain(self):
        """One antenna leaves no cross terms: bound equals the extremal energy."""
        g, h = femto_link(seed=15)
        one_g, one_h = g[:1], h[:1]
        vc = virtual_channel(one_g[0], one_h[0], PSI)
        assert proposed_upper(one_g, one_h, PSI) == pytest.approx(
            vc.lam, rel=1e-10)

    def test_never_exceeds_norm_product_bound(self):
        """The extremal-direction ceiling is the tighter of the two families."""
        for seed in range(20):
            g, h = femto_link(seed=seed, j=seed % 2)
            assert proposed_upper(g, h, PSI) <= young_upper(g, h, PSI) * (1 + 1e-12)

    def test_nondecreasing_in_psi(self):
        """Larger error fractions never shrink the ceiling."""
        g, h = femto_link(seed=16)
        vals = [proposed_upper(g, h, p) for p in (0.0, 0.01, 0.04, 0.16)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_zero_filter_gives_zero(self):
        """A silent filter produces no response energy to bound."""
        g = np.zeros((2, 6), dtype=complex)
        rng = np.random.default_rng(17)
        h = crandn(rng, 2, 6)
        assert proposed_upper(g, h, PSI) == 0.0


class TestAssembleBounds:
    def test_shapes_and_nonnegativity(self):
        """Coefficient stack is complete, nonnegative, with a zero co diagonal."""
        cfg, geo, ch, beams = designed_scenario(seed=0, n1=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power)
        assert isinstance(b, RobustBounds)
        assert b.pl_sig_coeff.shape == (2,) and b.pu_isi_coeff.shape == (2,)
        assert b.pu_co_coeff.shape == (2, 2) and b.omega_coeff.shape == (2,)
        assert b.young_norm.shape == (2,)
        for arr in (b.pl_sig_coeff, b.pu_isi_coeff, b.pu_co_coeff,
                    b.omega_coeff, b.young_norm):
            assert (arr >= 0.0).all()
        assert b.pu_co_coeff[0, 0] == 0.0 and b.pu_co_coeff[1, 1] == 0.0

    def test_zero_error_collapses_to_estimate_coefficients(self):
        """psi=0 reuses the exact-CSI coefficient routine verbatim."""
        from hetnet_tr.power import _femto_coefficients
        from hetnet_tr.sinr import femto_coupling

        cfg, geo, ch, beams = designed_scenario(seed=1, n1=2)
        b = assemble_bounds(ch, beams.g, 0.0, cfg.p_tol, cfg.noise_power)
        sig, isi, co = _femto_coefficients(
            femto_coupling(ch, beams.g, ch.taps))
        assert np.array_equal(b.pl_sig_coeff, sig)
        assert np.array_equal(b.pu_isi_coeff, isi)
        assert np.array_equal(b.pu_co_coeff, co)

    def test_ceiling_below_floor_is_clamped_with_warning(self):
        """An inverted floor/ceiling pair zeroes the isi slot and warns."""
        cfg, geo, ch, beams = designed_scenario(seed=0, n1=2)
        with pytest.warns(RuntimeWarning, match="clamping"):
            b = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power)
        assert (b.pu_isi_coeff == 0.0).any()

    def test_young_variant_dominates_entrywise(self):
        """Swapping in the norm-product family never tightens any slot."""
        cfg, geo, ch, beams = designed_scenario(seed=2, n1=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bp = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power,
                                 variant="proposed")
            by = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power,
                                 variant="young")
        assert np.array_equal(bp.pl_sig_coeff, by.pl_sig_coeff)
        assert (by.pu_isi_coeff >= bp.pu_isi_coeff).all()
        assert (by.pu_co_coeff >= bp.pu_co_coeff).all()
        assert (by.omega_coeff >= bp.omega_coeff).all()

    def test_young_norm_records_own_link_bounds(self):
        """The reference column holds each FU's own norm-product ceiling."""
        cfg, geo, ch, beams = designed_scenario(seed=3, n1=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power)
        for j in range(2):
            assert b.young_norm[j] == pytest.approx(
                young_upper(beams.g[:, j, :], ch.h1[:, j, :], PSI), rel=1e-12)

    def test_silent_cross_tier_means_zero_weights(self):
        """No femto-to-macro leakage channel leaves the objective weights at zero."""
        cfg, geo, ch, beams = designed_scenario(seed=4, n1=2)
        quiet = ChannelSet(h0=ch.h0, h1=ch.h1,
                           h10=np.zeros_like(ch.h10), h01=ch.h01)
        for psi in (0.0, PSI):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                b = assemble_bounds(quiet, beams.g, psi, cfg.p_tol,
                                    cfg.noise_power)
            assert (b.omega_coeff == 0.0).all()

    def test_rejects_unknown_variant(self):
        """Only the two ceiling families are accepted."""
        cfg, geo, ch, beams = designed_scenario(seed=4, n1=2)
        with pytest.raises(ValueError, match="variant"):
            assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power,
                            variant="hopeful")


class TestSolveRobust:
    def test_zero_error_bitwise_equal_to_nominal_solve(self):
        """psi=0 runs the identical closed form and reproduces solve_femto bits."""
        for seed in (0, 1, 2):
            cfg, geo, ch, beams = designed_scenario(seed=seed, n1=2)
            lp = build_femto_lp(ch, beams.g, cfg.gamma_f, cfg.p_tol,
                                cfg.noise_power)
            nominal = solve_femto(lp)
            b = assemble_bounds(ch, beams.g, 0.0, cfg.p_tol, cfg.noise_power)
            robust = solve_robust(b, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
            assert np.array_equal(nominal, robust)

    def test_worst_case_constraints_active(self):
        """Every floor/ceiling SINR constraint is met with equality."""
        cfg, geo, ch, beams = designed_scenario(seed=1, n1=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power)
        p = solve_robust(b, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
        assert (p > 0.0).all()
        for j in range(2):
            den = (b.pu_isi_coeff[j] * p[j] + b.pu_co_coeff[j] @ p
                   + cfg.p_tol + cfg.noise_power)
            assert b.pl_sig_coeff[j] * p[j] == pytest.approx(
                cfg.gamma_f * den, rel=1e-8)

    def test_norm_product_family_needs_lower_targets(self):
        """The looser ceilings are infeasible at the default target on this draw."""
        cfg, geo, ch, beams = designed_scenario(seed=0, n1=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            by = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power,
                                 variant="young")
        with pytest.raises(InfeasibleError) as err:
            solve_robust(by, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
        assert err.value.stage == "robust"

    def test_tighter_family_spends_less_power(self):
        """Where both families are feasible the tighter ceilings never cost more."""
        gamma_low = 10.0 ** (-0.6)
        for seed in (0, 1, 2, 4):
            cfg, geo, ch, beams = designed_scenario(seed=seed, n1=2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                bp = assemble_bounds(ch, beams.g, PSI, cfg.p_tol,
                                     cfg.noise_power, variant="proposed")
                by = assemble_bounds(ch, beams.g, PSI, cfg.p_tol,
                                     cfg.noise_power, variant="young")
            pp = solve_robust(bp, gamma_low, cfg.p_tol, cfg.noise_power)
            py = solve_robust(by, gamma_low, cfg.p_tol, cfg.noise_power)
            assert (pp <= py * (1 + 1e-12)).all()

    def test_unreachable_floor_reports_robust_stage(self):
        """A floor below the scaled ceiling raises with the robust stage tag."""
        b = RobustBounds(pl_sig_coeff=np.array([1.0]),
                         pu_isi_coeff=np.array([2.0]),
                         pu_co_coeff=np.zeros((1, 1)),
                         omega_coeff=np.array([1.0]),
                         young_norm=np.array([3.0]), psi=PSI,
                         variant="proposed")
        with pytest.raises(InfeasibleError) as err:
            solve_robust(b, 1.0, 1e-4, 1e-12)
        assert err.value.stage == "robust"


class TestWorstCaseOracle:
    def test_zero_error_returns_estimate_values(self):
        """psi=0 collapses both extrema onto the estimate-side functionals."""
        g, h = femto_link(seed=18)
        wc = worst_case_oracle(g, h, 0.0)
        r = response(g, h)
        assert wc.max_energy == pytest.approx(
            float(np.sum(np.abs(r) ** 2)), rel=1e-12)
        assert wc.min_central == pytest.approx(
            abs(r[h.shape[1] - 1]) ** 2, rel=1e-12)
        assert wc.probes == 1

    def test_max_dominates_anti_aligned_probe(self):
        """The deterministic anti-aligned probe never beats the reported max."""
        for seed in range(6):
            g, h = femto_link(seed=seed, j=seed % 2)
            wc = worst_case_oracle(g, h, PSI, n_probes=800, n_ascent=40)
            truth = h / (1.0 - np.sqrt(PSI))
            energy = float(np.sum(np.abs(response(g, truth)) ** 2))
            assert wc.max_energy >= energy * (1 - 1e-12)

    def test_min_dominated_by_aligned_probe(self):
        """The deterministic aligned probe never undercuts the reported min."""
        for seed in range(6):
            g, h = femto_link(seed=seed, j=(seed + 1) % 2)
            wc = worst_case_oracle(g, h, PSI, n_probes=800, n_ascent=40)
            truth = h / (1.0 + np.sqrt(PSI))
            central = abs(response(g, truth)[h.shape[1] - 1]) ** 2
            assert wc.min_central <= central * (1 + 1e-12)

    def test_min_undercuts_closed_form_floor(self):
        """The empirical minimum sits below the closed-form signal floor."""
        g, h = femto_link(seed=19)
        wc = worst_case_oracle(g, h, PSI, n_probes=800, n_ascent=40)
        assert wc.min_central < worst_signal_lower(g, h, PSI)

    def test_counts_all_evaluations(self):
        """Probe accounting covers the fixed probes plus requested samples."""
        g, h = femto_link(seed=20)
        wc = worst_case_oracle(g, h, PSI, n_probes=50, n_ascent=5)
        assert isinstance(wc, WorstCaseExtrema)
        assert wc.probes >= 53

    def test_deterministic_without_generator(self):
        """Default runs are reproducible across calls."""
        g, h = femto_link(seed=21)
        a = worst_case_oracle(g, h, PSI, n_probes=200, n_ascent=10)
        b = worst_case_oracle(g, h, PSI, n_probes=200, n_ascent=10)
        assert a.max_energy == b.max_energy
        assert a.min_central == b.min_central


class TestSampleTrueChannels:
    def test_draws_satisfy_error_constraint(self):
        """Every sampled channel keeps its error inside the admissible set."""
        g, h = femto_link(seed=22)
        rng = np.random.default_rng(220)
        draws = sample_true_channels(h, PSI, rng, count=500)
        err = h[None, :, :] - draws
        lhs = np.linalg.norm(err, axis=2) ** 2
        rhs = PSI * np.linalg.norm(draws, axis=2) ** 2
        assert (lhs <= rhs * (1 + 1e-9)).all()

    def test_shapes(self):
        """count=None gives one channel set, count=k stacks k of them."""
        g, h = femto_link(seed=23)
        rng = np.random.default_rng(230)
        one = sample_true_channels(h, PSI, rng)
        many = sample_true_channels(h, PSI, rng, count=7)
        assert one.shape == h.shape
        assert many.shape == (7,) + h.shape

    def test_zero_error_returns_estimate(self):
        """psi=0 reproduces the estimate exactly."""
        g, h = femto_link(seed=24)
        rng = np.random.default_rng(240)
        np.testing.assert_array_equal(sample_true_channels(h, 0.0, rng), h)

    def test_rejects_bad_count(self):
        """Nonpositive draw counts are refused."""
        g, h = femto_link(seed=24)
        with pytest.raises(ValueError):
            sample_true_channels(h, PSI, np.random.default_rng(0), count=0)
