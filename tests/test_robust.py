"""Worst-case bound tests: signal floor, interference ceilings, robust solve."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import crandn, designed_scenario, tr_coupling

from hetnet_tr.channel import ChannelSet, ScenarioConfig
from hetnet_tr.errors import InfeasibleError
from hetnet_tr.harness import _run_stack
from hetnet_tr.linops import toeplitz_conv_matrix
from hetnet_tr.power import build_femto_lp, solve_femto
from hetnet_tr.robust import (
    _project_errors,
    assemble_bounds,
    link_bounds,
    sample_true_channels,
    solve_robust,
    worst_case_oracle,
)
from hetnet_tr.sinr import Coupling, couple, coupling_terms

PSI = 0.04


def femto_link(seed, j=0, n1=2):
    """TR filters and estimated CIRs of one FU from a designed scenario."""
    cfg, geo, ch, beams = designed_scenario(seed=seed, n1=n1)
    return beams.g[:, j, :], ch.h1[:, j, :]


def response(g, h):
    return sum(np.convolve(g[i], h[i]) for i in range(g.shape[0]))


def ball(h, psi):
    """Center and radius of each antenna's admissible true channels."""
    radius = np.sqrt(psi) * np.linalg.norm(h, axis=1) / (1.0 - psi)
    return h / (1.0 - psi), radius


def floor_probe(g, h, psi):
    """The boundary channels at which the central-tap amplitude is smallest."""
    a = g[:, ::-1]
    c, r = ball(h, psi)
    phase = np.exp(1j * np.angle(np.sum(a * c)))
    return c - (r / np.linalg.norm(a, axis=1))[:, None] * phase * a.conj()


class TestWorstSignalLower:
    """The floor, link_bounds' third value."""

    def test_zero_error_matches_estimate(self):
        """psi=0 returns the estimated central-tap coefficient."""
        g, h = femto_link(seed=3)
        est = abs(response(g, h)[h.shape[1] - 1]) ** 2
        assert link_bounds(g, h, 0.0)[2] == pytest.approx(est, rel=1e-12)

    def test_scaling_factor(self):
        """Center amplitude and radius both scale by 1/(1-psi)."""
        g, h = femto_link(seed=4)
        amp = abs(response(g, h)[h.shape[1] - 1])
        reach = np.sqrt(PSI) * float(np.sum(np.linalg.norm(h, axis=1)
                                            * np.linalg.norm(g, axis=1)))
        want = ((amp - reach) / (1.0 - PSI)) ** 2
        assert link_bounds(g, h, PSI)[2] == pytest.approx(want, rel=1e-12)

    def test_unit_estimate_single_antenna(self):
        """Matched filter on a unit-norm single-antenna estimate gives 1/(1+sqrt(psi))^2."""
        rng = np.random.default_rng(11)
        h = crandn(rng, 1, 6)
        h /= np.linalg.norm(h)
        g = np.conj(h[:, ::-1])
        assert link_bounds(g, h, PSI)[2] == pytest.approx(
            1.0 / (1.0 + np.sqrt(PSI)) ** 2, rel=1e-12)

    def test_attained_at_anti_aligned_boundary(self):
        """The floor equals the true coefficient at the boundary point whose
        central-tap amplitude is anti-aligned with the center's."""
        for seed in range(6):
            g, h = femto_link(seed=seed, j=seed % 2)
            truth = floor_probe(g, h, PSI)
            err = np.linalg.norm(h - truth, axis=1) ** 2
            assert (err <= PSI * np.linalg.norm(truth, axis=1) ** 2
                    * (1 + 1e-9)).all()
            attained = abs(response(g, truth)[h.shape[1] - 1]) ** 2
            assert attained == pytest.approx(
                link_bounds(g, h, PSI)[2], rel=1e-10)

    def test_nonincreasing_in_psi(self):
        """Larger error fractions never raise the floor."""
        g, h = femto_link(seed=5)
        vals = [link_bounds(g, h, p)[2] for p in (0.0, 0.01, 0.04, 0.16)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_psi(self):
        """Error fractions outside [0, 1) are refused."""
        g, h = femto_link(seed=5)
        with pytest.raises(ValueError):
            link_bounds(g, h, 1.0)
        with pytest.raises(ValueError):
            link_bounds(g, h, -0.1)


class TestYoungUpper:
    """The norm-product ceiling, link_bounds' first value."""

    def test_scalar_link_is_tight(self):
        """Length-1 single antenna: convolution is a product, bound is exact."""
        g = np.array([[2.0 - 1.0j]])
        h = np.array([[0.5 + 0.5j]])
        want = (abs(g[0, 0]) * abs(h[0, 0])) ** 2 / (1.0 - np.sqrt(PSI)) ** 2
        assert link_bounds(g, h, PSI)[0] == pytest.approx(want, rel=1e-12)

    def test_ceilings_estimate_energy(self):
        """At psi=0 the bound still dominates the estimate's response energy."""
        for seed in range(5):
            g, h = femto_link(seed=seed)
            energy = float(np.sum(np.abs(response(g, h)) ** 2))
            assert link_bounds(g, h, 0.0)[0] >= energy

    def test_ceilings_sampled_true_energy(self):
        """The bound dominates the response energy at sampled admissible channels."""
        g, h = femto_link(seed=7)
        bound = link_bounds(g, h, PSI)[0]
        rng = np.random.default_rng(70)
        for truth in sample_true_channels(h, PSI, rng, count=200):
            assert float(np.sum(np.abs(response(g, truth)) ** 2)) <= bound

    def test_nondecreasing_in_psi(self):
        """Larger error fractions never shrink the ceiling."""
        g, h = femto_link(seed=8)
        vals = [link_bounds(g, h, p)[0] for p in (0.0, 0.01, 0.04, 0.16)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestProposedUpper:
    """The shifted-ball ceiling, link_bounds' second value."""

    def test_single_antenna_closed_form(self):
        """One antenna: (||G c|| + r ||G||_2)^2 with a dense spectral norm."""
        g, h = femto_link(seed=15)
        G = toeplitz_conv_matrix(g[0])
        c, r = ball(h[:1], PSI)
        want = (np.linalg.norm(G @ c[0]) + r[0] * np.linalg.norm(G, 2)) ** 2
        assert link_bounds(g[:1], h[:1], PSI)[1] == pytest.approx(
            want, rel=1e-12)

    def test_ceilings_sampled_true_energy(self):
        """The bound dominates the response energy at sampled admissible channels."""
        g, h = femto_link(seed=7)
        bound = link_bounds(g, h, PSI)[1]
        rng = np.random.default_rng(71)
        for truth in sample_true_channels(h, PSI, rng, count=200):
            assert float(np.sum(np.abs(response(g, truth)) ** 2)) <= bound

    def test_never_exceeds_norm_product_bound(self):
        """The extremal-direction ceiling is the tighter of the two families."""
        for seed in range(20):
            g, h = femto_link(seed=seed, j=seed % 2)
            young, prop, _ = link_bounds(g, h, PSI)
            assert prop <= young * (1 + 1e-12)

    def test_nondecreasing_in_psi(self):
        """Larger error fractions never shrink the ceiling."""
        g, h = femto_link(seed=16)
        vals = [link_bounds(g, h, p)[1] for p in (0.0, 0.01, 0.04, 0.16)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_zero_filter_gives_zero(self):
        """A silent filter produces no response energy to bound."""
        g = np.zeros((2, 6), dtype=complex)
        rng = np.random.default_rng(17)
        h = crandn(rng, 2, 6)
        assert link_bounds(g, h, PSI)[1] == 0.0


class TestAssembleBounds:
    def test_shapes_and_nonnegativity(self):
        """Coefficient stack is complete, nonnegative, with a zero co diagonal."""
        cfg, geo, ch, beams = designed_scenario(seed=0, n1=2)
        b = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power)
        assert type(b) is Coupling
        assert b.pl_sig_coeff.shape == (2,) and b.pu_isi_coeff.shape == (2,)
        assert b.pu_co_coeff.shape == (2, 2)
        for arr in (b.pl_sig_coeff, b.pu_isi_coeff, b.pu_co_coeff):
            assert (arr >= 0.0).all()
        assert b.pu_co_coeff[0, 0] == 0.0 and b.pu_co_coeff[1, 1] == 0.0

    def test_zero_error_collapses_to_estimate_coefficients(self):
        """psi=0 gives the exact-CSI coefficients of the full coupling."""
        cfg, geo, ch, beams = designed_scenario(seed=1, n1=2)
        b = assemble_bounds(ch, beams.g, 0.0, cfg.p_tol, cfg.noise_power)
        ref = build_femto_lp(couple(ch, beams))
        assert type(b) is Coupling
        sig, isi, co = ref.pl_sig_coeff, ref.pu_isi_coeff, ref.pu_co_coeff
        assert np.array_equal(b.pl_sig_coeff, sig)
        assert np.array_equal(b.pu_isi_coeff, isi)
        assert np.array_equal(b.pu_co_coeff, co)

    def test_stack_builds_without_warnings(self):
        """Floor and ceilings come from one geometry: nothing to clamp or warn."""
        for seed in range(4):
            cfg, geo, ch, beams = designed_scenario(seed=seed, n1=2)
            for variant in ("proposed", "young"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    b = assemble_bounds(ch, beams.g, PSI, cfg.p_tol,
                                        cfg.noise_power, variant=variant)
                assert (b.pu_isi_coeff > 0.0).all()

    def test_young_variant_dominates_entrywise(self):
        """Swapping in the norm-product family never tightens any slot."""
        cfg, geo, ch, beams = designed_scenario(seed=2, n1=2)
        bp = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power,
                             variant="proposed")
        by = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power,
                             variant="young")
        assert np.array_equal(bp.pl_sig_coeff, by.pl_sig_coeff)
        assert (by.pu_isi_coeff >= bp.pu_isi_coeff).all()
        assert (by.pu_co_coeff >= bp.pu_co_coeff).all()

    def test_young_norm_records_own_link_bounds(self):
        """The young stack holds each link's norm-product ceiling: the own
        link split into floor and ISI, the others as co-channel slots."""
        cfg, geo, ch, beams = designed_scenario(seed=3, n1=2)
        b = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power,
                            variant="young")
        for j in range(2):
            for j2 in range(2):
                ceiling, _, _ = link_bounds(beams.g[:, j2, :], ch.h1[:, j, :],
                                            PSI)
                got = (b.pl_sig_coeff[j] + b.pu_isi_coeff[j] if j == j2
                       else b.pu_co_coeff[j, j2])
                assert got == pytest.approx(ceiling, rel=1e-12)

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
            lp = build_femto_lp(couple(ch, beams))
            nominal = solve_femto(lp, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
            b = assemble_bounds(ch, beams.g, 0.0, cfg.p_tol, cfg.noise_power)
            robust = solve_robust(b, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
            assert np.array_equal(nominal, robust)

    def test_worst_case_constraints_active(self):
        """Every floor/ceiling SINR constraint is met with equality."""
        cfg, geo, ch, beams = designed_scenario(seed=1, n1=2)
        gamma = 10.0 ** (-0.6)
        b = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power)
        p = solve_robust(b, gamma, cfg.p_tol, cfg.noise_power)
        assert (p > 0.0).all()
        for j in range(2):
            den = (b.pu_isi_coeff[j] * p[j] + b.pu_co_coeff[j] @ p
                   + cfg.p_tol + cfg.noise_power)
            assert b.pl_sig_coeff[j] * p[j] == pytest.approx(
                gamma * den, rel=1e-8)

    def test_norm_product_family_needs_lower_targets(self):
        """The looser ceilings are infeasible at the default target on this draw."""
        cfg, geo, ch, beams = designed_scenario(seed=0, n1=2)
        by = assemble_bounds(ch, beams.g, PSI, cfg.p_tol, cfg.noise_power,
                             variant="young")
        with pytest.raises(InfeasibleError) as err:
            solve_robust(by, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
        assert err.value.stage == "robust"

    def test_tighter_family_spends_less_power(self):
        """Where both families are feasible the tighter ceilings never cost more."""
        gamma_low = 10.0 ** (-1.0)
        for seed in (0, 1, 2, 4):
            cfg, geo, ch, beams = designed_scenario(seed=seed, n1=2)
            bp = assemble_bounds(ch, beams.g, PSI, cfg.p_tol,
                                 cfg.noise_power, variant="proposed")
            by = assemble_bounds(ch, beams.g, PSI, cfg.p_tol,
                                 cfg.noise_power, variant="young")
            pp = solve_robust(bp, gamma_low, cfg.p_tol, cfg.noise_power)
            py = solve_robust(by, gamma_low, cfg.p_tol, cfg.noise_power)
            assert (pp <= py * (1 + 1e-12)).all()

    def test_unreachable_floor_reports_robust_stage(self):
        """A floor below the scaled ceiling raises with the robust stage tag."""
        b = Coupling(pl_sig_coeff=np.array([1.0]),
                     pu_isi_coeff=np.array([2.0]),
                     pu_co_coeff=np.zeros((1, 1)))
        with pytest.raises(InfeasibleError) as err:
            solve_robust(b, 1.0, 1e-4, 1e-12)
        assert err.value.stage == "robust"

    def test_overflowing_total_reports_robust_stage(self):
        """Powers that each fit in a double but whose total does not are
        infeasible, with no overflow warning."""
        b = Coupling(pl_sig_coeff=np.ones(2), pu_isi_coeff=np.zeros(2),
                     pu_co_coeff=np.zeros((2, 2)))
        assert solve_robust(b, 1.0, 0.0, 8e307).tolist() == [8e307, 8e307]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InfeasibleError,
                               match="total power overflows") as err:
                solve_robust(b, 1.0, 0.0, 1e308)
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

    def test_max_dominates_anti_aligned_probe(self):
        """The deterministic anti-aligned probe never beats the reported max."""
        for seed in range(6):
            g, h = femto_link(seed=seed, j=seed % 2)
            wc = worst_case_oracle(g, h, PSI)
            truth = h / (1.0 - np.sqrt(PSI))
            energy = float(np.sum(np.abs(response(g, truth)) ** 2))
            assert wc.max_energy >= energy * (1 - 1e-12)

    def test_min_dominated_by_aligned_probe(self):
        """The deterministic aligned probe never undercuts the reported min."""
        for seed in range(6):
            g, h = femto_link(seed=seed, j=(seed + 1) % 2)
            wc = worst_case_oracle(g, h, PSI)
            truth = h / (1.0 + np.sqrt(PSI))
            central = abs(response(g, truth)[h.shape[1] - 1]) ** 2
            assert wc.min_central <= central * (1 + 1e-12)

    def test_min_respects_closed_form_floor(self):
        """The empirical minimum never undercuts the exact signal floor.

        The search can reach the floor itself, so the slack is rounding.
        """
        g, h = femto_link(seed=19)
        wc = worst_case_oracle(g, h, PSI)
        assert wc.min_central >= link_bounds(g, h, PSI)[2] * (1 - 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4),
           taps=st.integers(1, 8), psi=st.floats(0.0, 0.5))
    def test_brackets_sampled_channels(self, seed, m, taps, psi):
        """The searched maximum is at least every sampled energy and at most
        the shifted-ball ceiling; the searched minimum is at most every
        sampled central power and at least the exact floor. The 1e-12
        slack against the samples is rounding (at psi = 0 every sample is
        the estimate)."""
        rng = np.random.default_rng(seed)
        g, h = crandn(rng, m, taps), crandn(rng, m, taps)
        wc = worst_case_oracle(g, h, psi, rng=rng)
        _, ceiling, floor = link_bounds(g, h, psi)
        truths = sample_true_channels(h, psi, rng, 500)
        resp = np.einsum("ikl,pil->pk", toeplitz_conv_matrix(g), truths)
        energy = np.sum(np.abs(resp) ** 2, axis=1)
        central = np.abs(resp[:, taps - 1]) ** 2
        assert (wc.max_energy >= energy * (1 - 1e-12)).all()
        assert wc.max_energy <= ceiling * (1 + 1e-9)
        assert (wc.min_central <= central * (1 + 1e-12)).all()
        assert wc.min_central >= floor * (1 - 1e-9)

    def test_deterministic_without_generator(self):
        """Default runs are reproducible across calls."""
        g, h = femto_link(seed=21)
        a = worst_case_oracle(g, h, PSI)
        b = worst_case_oracle(g, h, PSI)
        assert a.max_energy == b.max_energy
        assert a.min_central == b.min_central


class TestOracleAudit:
    def test_bound_tightness_draws(self):
        """60 bound-tightness draws x psi in {0.01, 0.04, 0.1}: the searched
        minimum never undercuts the floor and the searched maximum never
        exceeds either ceiling. Slack 1e-12 is rounding: the search reaches
        the exact floor to within about 1e-15."""
        cfg = ScenarioConfig()
        points = [{"psi": psi} for psi in (0.01, 0.04, 0.1)]
        bad = []
        for row in _run_stack("bound-tightness", range(60), cfg, points,
                              {}, 12345):
            v = dict(row.values)
            if v["oracle_min_w"] < v["floor_w"] * (1 - 1e-12) or \
                    v["oracle_max_w"] > v["proposed_w"] * (1 + 1e-12) or \
                    v["oracle_max_w"] > v["young_w"] * (1 + 1e-12):
                bad.append((row.trial, row.sweep))
        assert bad == []


def random_link_set(seed, m, n0, n1, taps):
    """Random estimated channels and femto filters of arbitrary shape."""
    rng = np.random.default_rng(seed)
    ch = ChannelSet(h0=crandn(rng, m, n0, taps), h1=crandn(rng, m, n1, taps),
                    h10=crandn(rng, m, n0, taps), h01=crandn(rng, m, n1, taps))
    return ch, crandn(rng, m, n1, taps), rng


LINK_SETS = dict(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4),
                 n0=st.integers(1, 2), n1=st.integers(1, 3),
                 taps=st.integers(1, 6))


class TestBallProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(psi=st.floats(0.001, 0.5), **LINK_SETS)
    def test_sampled_channels_within_bounds(self, seed, m, n0, n1, taps, psi):
        """Floor <= sampled signal; sampled ISI and co-channel energies
        <= their ceilings, in both stacks."""
        ch, g, rng = random_link_set(seed, m, n0, n1, taps)
        stacks = [assemble_bounds(ch, g, psi, 1e-4, 1e-12, variant=v)
                  for v in ("proposed", "young")]
        G = toeplitz_conv_matrix(g)

        def energies(truths):
            resp = np.einsum("iktl,pil->pkt", G, truths)
            return np.sum(np.abs(resp) ** 2, axis=2), resp

        for j in range(n1):
            energy, resp = energies(sample_true_channels(ch.h1[:, j, :], psi,
                                                         rng, count=200))
            central = np.abs(resp[:, j, taps - 1]) ** 2
            isi = energy[:, j] - central
            co = np.delete(energy, j, axis=1)
            for b in stacks:
                assert (central >= b.pl_sig_coeff[j] * (1 - 1e-9)).all()
                assert (isi <= b.pu_isi_coeff[j] * (1 + 1e-9)
                        + 1e-12 * energy[:, j]).all()
                assert (co <= np.delete(b.pu_co_coeff[j], j)
                        * (1 + 1e-9)).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**LINK_SETS)
    def test_zero_error_is_nominal_stack(self, seed, m, n0, n1, taps):
        """psi = 0 gives the nominal stack of the TR beams alone bit for bit,
        and the ball closed forms tend to it as psi shrinks.

        The FU block of a full coupling is the same stack to rounding: bit
        for bit when n1 >= 2, while one FU's single victim row takes
        numpy's matrix-vector product instead of the matrix product."""
        ch, g, _ = random_link_set(seed, m, n0, n1, taps)
        ref = Coupling.from_energy(*coupling_terms(g, ch.h1, ch.taps))
        sig, isi, co = ref.pl_sig_coeff, ref.pu_isi_coeff, ref.pu_co_coeff
        coupling = tr_coupling(ch, g, ch.taps)
        full = build_femto_lp(coupling)
        scale = float(max(np.max(coupling.pu_co_coeff),
                          np.max(coupling.pl_sig_coeff
                                 + coupling.pu_isi_coeff)))
        for got, want in zip((sig, isi, co), (full.pl_sig_coeff,
                                              full.pu_isi_coeff,
                                              full.pu_co_coeff)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-15 * scale)
            if n1 >= 2:
                assert np.array_equal(got, want)
        for variant in ("proposed", "young"):
            b = assemble_bounds(ch, g, 0.0, 1e-4, 1e-12, variant=variant)
            for got, want in ((b.pl_sig_coeff, sig), (b.pu_isi_coeff, isi),
                              (b.pu_co_coeff, co)):
                assert np.array_equal(got, want)
        near = assemble_bounds(ch, g, 1e-20, 1e-4, 1e-12, variant="proposed")
        for got, want in ((near.pl_sig_coeff, sig), (near.pu_isi_coeff, isi),
                          (near.pu_co_coeff, co)):
            np.testing.assert_allclose(got, want, rtol=1e-6,
                                       atol=1e-9 * scale)


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
        """count=k stacks k channel sets."""
        g, h = femto_link(seed=23)
        rng = np.random.default_rng(230)
        one = sample_true_channels(h, PSI, rng, count=1)
        many = sample_true_channels(h, PSI, rng, count=7)
        assert one.shape == (1,) + h.shape
        assert many.shape == (7,) + h.shape

    def test_zero_error_returns_estimate(self):
        """psi=0 reproduces the estimate exactly."""
        g, h = femto_link(seed=24)
        rng = np.random.default_rng(240)
        np.testing.assert_array_equal(
            sample_true_channels(h, 0.0, rng, count=1), h[None])

    def test_rejects_bad_count(self):
        """Nonpositive draw counts are refused."""
        g, h = femto_link(seed=24)
        with pytest.raises(ValueError):
            sample_true_channels(h, PSI, np.random.default_rng(0), count=0)

    def test_draw_order_pinned(self):
        """The generator is read antenna by antenna: a (count, 2, L) normal
        block for the directions, then count uniforms for the radii. psi = 0
        reads nothing."""
        g, h = femto_link(seed=25)
        count, (m, taps) = 9, h.shape
        got = sample_true_channels(h, PSI, np.random.default_rng(250), count)
        rng = np.random.default_rng(250)
        c, r = ball(h, PSI)
        for i in range(m):
            z = rng.standard_normal((count, 2, taps))
            d = z[:, 0, :] + 1j * z[:, 1, :]
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            reach = r[i] * rng.random(count) ** (1.0 / (2 * taps))
            np.testing.assert_allclose(got[:, i, :],
                                       c[i] - reach[:, None] * d, rtol=1e-14)
        before = rng.bit_generator.state
        sample_true_channels(h, 0.0, rng, count)
        assert rng.bit_generator.state == before


class TestProjectErrors:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4),
           taps=st.integers(1, 6), psi=st.floats(0.001, 0.5))
    def test_inside_kept_outside_on_boundary(self, seed, m, taps, psi):
        """Errors already in their ball come back bit for bit; the others
        land on its boundary. A zero channel row has radius 0, and its
        error goes to the center."""
        rng = np.random.default_rng(seed)
        h = crandn(rng, m, taps)
        zero = rng.random(m) < 0.2
        h[zero] = 0.0
        center = -(psi / (1.0 - psi)) * h
        radius = np.sqrt(psi) * np.linalg.norm(h, axis=1) / (1.0 - psi)
        d = crandn(rng, 3, m, taps)
        d /= np.linalg.norm(d, axis=2, keepdims=True)
        reach = rng.uniform(0.0, 2.0, (3, m)) * radius
        reach[:, zero] = 1.0
        e = center + reach[:, :, None] * d
        for k in range(3):
            out = _project_errors(e[k], h, psi)
            inside = reach[k] < radius
            assert np.array_equal(out[inside], e[k][inside])
            dist = np.linalg.norm(out - center, axis=1)
            np.testing.assert_allclose(dist[~inside], radius[~inside],
                                       rtol=1e-12, atol=0.0)
            assert np.array_equal(out[zero], center[zero])
