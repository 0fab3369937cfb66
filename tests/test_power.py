"""Power tests: femto fixed point, macro closed form, centralized stack."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    designed_scenario,
    macro_coupling,
    random_scenario,
    tr_coupling,
)

from hetnet_tr.beamform import design_beamformers
from hetnet_tr.channel import ChannelSet
from hetnet_tr.errors import InfeasibleError
from hetnet_tr.power import (
    AllocationResult,
    build_femto_lp,
    cross_report,
    macro_coefficients,
    solve_centralized,
    solve_femto,
    solve_fixed_point,
    solve_macro,
    solve_proposed,
)
from hetnet_tr.robust import assemble_bounds, solve_robust
from hetnet_tr.sinr import (
    Coupling,
    couple,
    coupling_terms,
    fu_breakdown,
    mu_breakdown,
    sinr,
    victim_sinrs,
)

from oracles import (
    leakage_weights,
    lp_fixed_point_oracle,
    macro_kkt_oracle,
    stack_system,
    weight_factored_powers,
)


def single_user_channels():
    """One femto antenna/user with a lone first tap of amplitude 2."""
    L = 6
    h1 = np.zeros((1, 1, L), dtype=complex)
    h1[0, 0, 0] = 2.0
    h10 = np.zeros((1, 2, L), dtype=complex)
    h10[0, :, 0] = 1.0
    h0 = np.zeros((4, 2, L), dtype=complex)
    h0[0, :, 0] = 1.0
    h01 = np.zeros((4, 1, L), dtype=complex)
    return ChannelSet(h0=h0, h1=h1, h10=h10, h01=h01)


def tr_beams(channels):
    from hetnet_tr.beamform import tr_beamformer_cirs

    return tr_beamformer_cirs(channels.h1)


class TestBuildFemtoLp:
    def test_single_user_coefficients(self):
        """Lone-tap channel: the signal is |h|^2 with no ISI, and the
        leakage counts both victims."""
        ch = single_user_channels()
        g = tr_beams(ch)
        coupling = tr_coupling(ch, g, ch.taps)
        lp = build_femto_lp(coupling)
        assert lp.pl_sig_coeff - 1.5 * lp.pu_isi_coeff == pytest.approx(4.0)
        assert lp.pu_isi_coeff == pytest.approx(0.0, abs=1e-15)
        assert coupling.pu_co_coeff[:coupling.n0, coupling.femto].sum() == \
            pytest.approx(2.0)
        assert leakage_weights(coupling) == pytest.approx(1.0)
        assert lp.pu_co_coeff.shape == (1, 1) and lp.pu_co_coeff[0, 0] == 0.0

    def test_invariants_random(self):
        cfg, geo, ch, beams = designed_scenario(seed=71, n1=3)
        coupling = couple(ch, beams)
        lp = build_femto_lp(coupling)
        eta = leakage_weights(coupling)
        assert np.linalg.norm(eta) == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diag(lp.pu_co_coeff) == 0.0)
        assert np.all(lp.pu_co_coeff >= 0.0)
        assert np.all(lp.pl_sig_coeff - cfg.gamma_f * lp.pu_isi_coeff > 0.0)
        # the FU block of the TR beams' response energies, target-free
        energy, signal = coupling_terms(
            beams.g, np.concatenate([ch.h10, ch.h1], axis=1), beams.beta,
            first=coupling.n0)
        fu = energy[coupling.femto]
        np.testing.assert_array_equal(lp.pl_sig_coeff, signal)
        np.testing.assert_array_equal(
            lp.pl_sig_coeff + lp.pu_isi_coeff, np.diagonal(fu))
        off = fu * (1.0 - np.eye(3))
        np.testing.assert_array_equal(lp.pu_co_coeff, off)

    def test_coefficients_are_read_only(self):
        """Every sweep point shares the trial's coupling and views of it, so
        no coefficient array can be written."""
        cfg, geo, ch, beams = designed_scenario(seed=73)
        coupling = couple(ch, beams)
        stacks = [coupling, build_femto_lp(coupling)] + [
            assemble_bounds(ch, beams.g, psi, cfg.p_tol, cfg.noise_power,
                            variant=variant)
            for psi in (0.0, 0.04) for variant in ("proposed", "young")]
        for stack in stacks:
            for arr in (stack.pl_sig_coeff, stack.pu_isi_coeff,
                        stack.pu_co_coeff):
                with pytest.raises(ValueError):
                    arr[0] = 1.0
                with pytest.raises(ValueError):
                    arr *= 2.0

    def test_unreachable_target_raises(self):
        """A target beyond the signal-to-self-interference ratio has no power."""
        cfg, geo, ch, beams = designed_scenario(seed=72)
        lp = build_femto_lp(couple(ch, beams))
        with pytest.raises(InfeasibleError) as exc:
            solve_femto(lp, 1e9, cfg.p_tol, cfg.noise_power)
        assert exc.value.stage == "femto"
        assert "unreachable" in str(exc.value)


class TestSolveFemto:
    def test_single_user_closed_form(self):
        ch = single_user_channels()
        lp = build_femto_lp(tr_coupling(ch, tr_beams(ch), ch.taps))
        p = solve_femto(lp, gamma_f=1.5, p_tol=1e-4, noise=1e-12)
        assert p[0] == pytest.approx(1.5 * (1e-4 + 1e-12) / 4.0, rel=1e-14)

    def test_matches_fixed_point_oracle(self):
        """The closed form and the iterated fixed point must agree."""
        for seed in (11, 12, 13):
            cfg, geo, ch, beams = designed_scenario(seed=seed, n1=4,
                                                    gamma_f_db=-4.0)
            lp = build_femto_lp(couple(ch, beams))
            p = solve_femto(lp, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
            F, v = stack_system(lp, cfg.gamma_f, cfg.p_tol + cfg.noise_power)
            np.testing.assert_allclose(p, lp_fixed_point_oracle(F, v),
                                       rtol=1e-10)

    def test_every_constraint_active(self):
        """At the minimal point each FU sits exactly on its SINR target."""
        cfg, geo, ch, beams = designed_scenario(seed=21, n1=3)
        lp = build_femto_lp(couple(ch, beams))
        p1 = solve_femto(lp, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
        for j in range(3):
            b = fu_breakdown(ch, beams, None, p1, j,
                             noise_power=cfg.noise_power,
                             cross_override=cfg.p_tol)
            assert sinr(b) == pytest.approx(cfg.gamma_f, rel=1e-8)

    def test_gamma_monotone(self):
        cfg, geo, ch, beams = designed_scenario(seed=24, n1=2)
        coupling = couple(ch, beams)
        lp = build_femto_lp(coupling)
        lo = solve_femto(lp, 1.0, cfg.p_tol, cfg.noise_power)
        hi = solve_femto(lp, 2.0, cfg.p_tol, cfg.noise_power)
        assert np.all(hi > lo)

    def test_spectral_radius_certificate(self):
        """Radius 2: the solve has no positive fixed point and says so."""
        b = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert np.max(np.abs(np.linalg.eigvals(b))) == pytest.approx(2.0)
        lp = Coupling(pl_sig_coeff=np.ones(2), pu_isi_coeff=np.zeros(2),
                      pu_co_coeff=b)
        with pytest.raises(InfeasibleError) as exc:
            solve_femto(lp, 1.0, 1e-4, 0.0)
        assert exc.value.stage == "femto"
        assert "radius" in str(exc.value)


def random_fixed_point(data):
    """F >= 0 scaled to a drawn spectral radius, and v > 0."""
    n = data.draw(st.integers(1, 5))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    F = np.array(data.draw(st.lists(entries, min_size=n * n,
                                    max_size=n * n))).reshape(n, n)
    v = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n,
                                    max_size=n)))
    rho = float(np.max(np.abs(np.linalg.eigvals(F))))
    if rho > 0.0:
        F *= data.draw(st.floats(0.05, 4.0)) / rho
    return F, v


class TestFixedPointCertificate:
    """The sign of the solve is the feasibility test: for F >= 0 and v > 0,
    (I - F) p = v has a solution p >= 0 exactly when rho(F) < 1."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_solve_succeeds_exactly_below_unit_radius(self, data):
        F, v = random_fixed_point(data)
        rho = float(np.max(np.abs(np.linalg.eigvals(F))))
        assume(abs(rho - 1.0) > 1e-9)
        try:
            # unit targets, no ISI: d = 1, so the solve is (I - F) p = v
            stack = Coupling(pl_sig_coeff=np.ones_like(v),
                             pu_isi_coeff=np.zeros_like(v), pu_co_coeff=F)
            p = solve_fixed_point(stack, 1.0, v, "femto")
        except InfeasibleError as exc:
            assert exc.stage == "femto"
            assert rho > 1.0
            return
        assert rho < 1.0
        # the iterated oracle takes about log(1e-12)/log(rho) steps and
        # stops about 1e-12/(1 - rho) short of the fixed point, in norm
        if rho < 0.999:
            ref = lp_fixed_point_oracle(F, v)
            assert np.linalg.norm(p - ref) <= (
                1e-10 / (1.0 - rho) * np.linalg.norm(ref))

    def test_robust_stage_tag(self):
        b = Coupling(pl_sig_coeff=np.ones(2), pu_isi_coeff=np.zeros(2),
                     pu_co_coeff=np.array([[0.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(InfeasibleError) as exc:
            solve_robust(b, 1.0, 1e-4, 1e-12)
        assert exc.value.stage == "robust"
        assert "radius" in str(exc.value)

    def test_centralized_stage_tag(self):
        """Two users whose stacked coupling has radius 2 at unit targets."""
        coupling = Coupling.from_energy(np.array([[1.0, 2.0], [2.0, 1.0]]),
                                        np.ones(2), n0=1)
        with pytest.raises(InfeasibleError) as exc:
            solve_centralized(coupling, 1.0, 1.0, 1e-12)
        assert exc.value.stage == "centralized"
        assert "radius" in str(exc.value)


def _as_coupling(stack, n0):
    """The given single-tier Coupling with its first n0 users as MUs."""
    return replace(stack, n0=n0)


# each design's solve of one stack at unit targets, by its stage tag
_STAGE_SOLVES = {
    "femto": lambda stack: solve_femto(stack, 1.0, 1e-4, 1e-12),
    "robust": lambda stack: solve_robust(stack, 1.0, 1e-4, 1e-12),
    "centralized": lambda stack: solve_centralized(
        _as_coupling(stack, 1), 1.0, 1.0, 1e-12),
}


class TestSharedSolve:
    """The femto, robust and centralized designs are one solve of one
    stack: they agree bit for bit where their stacks and right-hand sides
    agree, and differ only in the stage tag of their failures."""

    def test_one_tier_centralized_is_the_femto_design(self):
        """With no MUs the centralized stack is the femto stack, and with
        p_tol = 0 both right-hand sides are d * noise."""
        compared = 0
        for seed in (31, 32, 33):
            cfg, geo, ch, beams = designed_scenario(seed=seed, n1=3)
            alone = Coupling.from_energy(
                *coupling_terms(beams.g, ch.h1, ch.taps))
            for gf in (10.0 ** -1.0, 10.0 ** -0.6, cfg.gamma_f):
                try:
                    femto = solve_femto(build_femto_lp(alone), gf, 0.0,
                                        cfg.noise_power)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        solve_centralized(alone, cfg.gamma_m, gf,
                                          cfg.noise_power)
                    continue
                cent = solve_centralized(alone, cfg.gamma_m, gf,
                                         cfg.noise_power)
                assert cent.p0.size == 0
                assert np.array_equal(cent.p1, femto)
                compared += 1
        assert compared >= 6

    def test_zero_error_robust_is_the_femto_design(self):
        """solve_robust of the psi = 0 stack is solve_femto of the TR
        beams' single-tier coupling, bit for bit."""
        for seed in (0, 1, 2):
            cfg, geo, ch, beams = designed_scenario(seed=seed, n1=2)
            alone = Coupling.from_energy(
                *coupling_terms(beams.g, ch.h1, ch.taps))
            want = solve_femto(build_femto_lp(alone), cfg.gamma_f, cfg.p_tol,
                               cfg.noise_power)
            stack = assemble_bounds(ch, beams.g, 0.0, cfg.p_tol,
                                    cfg.noise_power)
            assert np.array_equal(
                solve_robust(stack, cfg.gamma_f, cfg.p_tol, cfg.noise_power),
                want)

    @pytest.mark.parametrize("stage", sorted(_STAGE_SOLVES))
    @pytest.mark.parametrize("isi, co, cause", [
        (2.0, 0.0, "unreachable"),  # signal below the target times ISI
        (0.0, 2.0, "radius"),       # co-channel spectral radius 2
    ])
    def test_unmet_targets_raise_the_callers_stage(self, stage, isi, co,
                                                   cause):
        stack = Coupling(pl_sig_coeff=np.ones(2),
                         pu_isi_coeff=np.full(2, isi),
                         pu_co_coeff=np.array([[0.0, co], [co, 0.0]]))
        with pytest.raises(InfeasibleError) as exc:
            _STAGE_SOLVES[stage](stack)
        assert exc.value.stage == stage
        assert cause in str(exc.value)


class TestFixedPointOracle:
    def test_small_component_meets_its_own_tolerance(self):
        """A component far below the norm stops on its own relative step."""
        F = np.diag([0.5, 0.0, 0.0])
        v = np.array([2.0 ** -9, 1.0, 1.0])
        np.testing.assert_allclose(lp_fixed_point_oracle(F, v),
                                   [2.0 ** -8, 1.0, 1.0], rtol=1e-10)


class TestDisplayForm:
    def test_relation_to_solver(self):
        """Weight-normalized form times the weights recovers the powers."""
        cfg, geo, ch, beams = designed_scenario(seed=13, n1=3)
        coupling = couple(ch, beams)
        lp = build_femto_lp(coupling)
        z = cfg.p_tol + cfg.noise_power
        eta = leakage_weights(coupling)
        np.testing.assert_allclose(
            weight_factored_powers(lp, cfg.gamma_f, z, eta) * eta,
            solve_femto(lp, cfg.gamma_f, cfg.p_tol, cfg.noise_power),
            rtol=1e-10)

    def test_single_user_forms_coincide(self):
        ch = single_user_channels()
        coupling = tr_coupling(ch, tr_beams(ch), ch.taps)
        lp = build_femto_lp(coupling)
        eta = leakage_weights(coupling)
        assert weight_factored_powers(lp, 2.0, 1e-4 + 1e-12, eta)[0] == \
            pytest.approx(solve_femto(lp, 2.0, 1e-4, 1e-12)[0], rel=1e-12)

    def test_equal_weight_simplified_form(self):
        """With equal weights the normalized form is the plain solve scaled."""
        rng = np.random.default_rng(7)
        n = 3
        b = rng.uniform(0.0, 0.2, (n, n))
        np.fill_diagonal(b, 0.0)
        sig = rng.uniform(0.5, 1.5, n)
        d = 1.0 / sig  # unit targets, no ISI
        z = np.full(n, 1e-4)
        eta = np.full(n, 1.0 / np.sqrt(n))
        lp = Coupling(pl_sig_coeff=sig, pu_isi_coeff=np.zeros(n),
                      pu_co_coeff=b)
        direct = np.linalg.solve(np.eye(n) - d[:, None] * b, d * z)
        np.testing.assert_allclose(weight_factored_powers(lp, 1.0, z, eta),
                                   direct * np.sqrt(n), rtol=1e-8)
        np.testing.assert_allclose(solve_femto(lp, 1.0, 1e-4, 0.0), direct,
                                   rtol=1e-12)


class TestCrossReport:
    def test_matches_victim_breakdown(self):
        """Report entries equal the cross term seen by each MU."""
        cfg, geo, ch, beams = designed_scenario(seed=41, n1=3)
        coupling = couple(ch, beams)
        p1 = solve_femto(build_femto_lp(coupling), cfg.gamma_f, cfg.p_tol,
                         cfg.noise_power)
        rep = cross_report(coupling, p1)
        p0 = np.zeros(2)
        for n in range(2):
            b = mu_breakdown(ch, beams, p0, p1, n,
                             noise_power=cfg.noise_power)
            assert rep[n] == pytest.approx(b.cross, rel=1e-12)

    def test_zero_power_zero_report(self):
        cfg, geo, ch, beams = designed_scenario(seed=42)
        rep = cross_report(couple(ch, beams), np.zeros(2))
        np.testing.assert_array_equal(rep, 0.0)

    def test_single_pair_scaling(self):
        ch = single_user_channels()
        rep = cross_report(tr_coupling(ch, tr_beams(ch), ch.taps),
                           np.array([3.0]))
        assert rep == pytest.approx([3.0, 3.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_report_is_infeasible(self):
        """A report beyond the double range raises the macro stage it
        serves, without an overflow warning; a large finite one is
        returned."""
        coupling = Coupling(np.ones(2), np.zeros(2),
                            np.array([[0.0, 4.0], [4.0, 0.0]]), n0=1)
        assert cross_report(coupling, np.array([1e307])) == [4e307]
        with pytest.raises(InfeasibleError, match="cross-tier report") as exc:
            cross_report(coupling, np.array([1e308]))
        assert exc.value.stage == "macro"


def synthetic_instances(rng, count, n, max_load=0.8):
    """Random (delta, nabla, gamma) with gamma*delta bounded below one."""
    gamma = 10 ** rng.uniform(-0.4, 0.4, (count, n))
    delta = rng.uniform(0.0, max_load, (count, n)) / gamma
    nabla = 10 ** rng.uniform(-14, -8, (count, n))
    return delta, nabla, gamma


class TestMacroDualSolve:
    """solve_macro on crafted couplings: s = 1, own ISI delta, no leakage,
    caps on the FU rows, cross_star = nabla and noise = 0, so each MU poses
    macro_kkt_oracle's per-user problem."""

    def test_matches_kkt_oracle_slack_caps(self):
        """200 random decoupled instances against the closed form."""
        rng = np.random.default_rng(501)
        delta, nabla, gamma = synthetic_instances(rng, 200, 2)
        caps_i = rng.uniform(0.1, 1.0, (200, 2, 3))
        p_tol = 1.0  # enormous cap: always slack
        p = np.array([solve_macro(macro_coupling(d, c), g, p_tol, nb, 0.0)[0]
                      for d, nb, g, c in zip(delta, nabla, gamma, caps_i)])
        ref = macro_kkt_oracle(delta, nabla, gamma,
                               p_tol / caps_i.max(axis=-1))
        assert ref.feasible.all()
        np.testing.assert_allclose(p, ref.p, rtol=1e-12)

    def test_delta_zero_closed_form(self):
        """No self/co interference: p = gamma * nabla exactly."""
        nabla = np.array([1e-10, 3e-9])
        gamma = np.array([1.26, 0.5])
        p, _ = solve_macro(macro_coupling(np.zeros(2), np.zeros((2, 0))),
                           gamma, 1e-4, nabla, 0.0)
        np.testing.assert_array_equal(p, gamma * nabla)

    def test_cap_binding_flagged(self):
        """Demand beyond the cap raises, naming the user, its demand and
        the limit the cap sets."""
        delta = np.array([0.1, 0.1])
        nabla = np.array([1e-6, 1e-6])
        gamma = np.array([2.0, 2.0])
        caps_i = np.array([[0.5], [1e-9]])
        p_tol = 1e-7
        ref = macro_kkt_oracle(delta, nabla, gamma, p_tol / caps_i[:, 0])
        np.testing.assert_array_equal(ref.feasible, [False, True])
        with pytest.raises(InfeasibleError) as exc:
            solve_macro(macro_coupling(delta, caps_i), gamma, p_tol, nabla,
                        0.0)
        assert exc.value.stage == "macro"
        demand = gamma[0] * nabla[0] / (1 - gamma[0] * delta[0])
        assert exc.value.detail == (f"user 0 needs {demand:.3e} W but cap 0 "
                                    f"limits it to {p_tol / 0.5:.3e} W")
        p, _ = solve_macro(macro_coupling(delta[1:], caps_i[1:]), gamma[1:],
                           p_tol, nabla[1:], 0.0)
        np.testing.assert_allclose(p, ref.p[1:], rtol=1e-12)

    def test_unreachable_target_flagged(self):
        delta = np.array([0.9, 0.1])
        gamma = np.array([2.0, 1.0])
        ref = macro_kkt_oracle(delta, np.full(2, 1e-9), gamma,
                               np.full(2, 1e-3))
        np.testing.assert_array_equal(ref.feasible, [False, True])
        with pytest.raises(InfeasibleError) as exc:
            solve_macro(macro_coupling(delta, np.full((2, 1), 0.1)), gamma,
                        1e-4, np.full(2, 1e-9), 0.0)
        assert exc.value.stage == "macro"
        assert "unreachable" in exc.value.detail
        assert "user 0" in exc.value.detail

    def test_overflowing_demand_flagged(self):
        """A demand beyond double precision is infeasible even with no
        finite cap to exceed, and raises no overflow warning."""
        with pytest.raises(InfeasibleError) as exc:
            solve_macro(macro_coupling([0.5, 0.1], np.zeros((2, 0))),
                        np.array([1.5, 1.0]), 1e-4, np.array([1e308, 1e-9]),
                        0.0)
        assert exc.value.stage == "macro"
        assert "overflows a double" in exc.value.detail

    def test_representable_demand_is_solved(self):
        """A power that fits in a double is solved even when nabla = z/s
        does not: z = 2.5e305 W at s = 1e-3 gives nabla = 2.5e308, yet
        gamma z/(s - gamma isi) at gamma = 0.5 is 1.25e308 W."""
        crafted = macro_coupling([0.0], np.zeros((1, 0)))
        tier = replace(crafted, pl_sig_coeff=np.full(1, 1e-3))
        p, _ = solve_macro(tier, 0.5, 1e-4, np.array([2.5e305]), 0.0)
        assert p[0] == pytest.approx(1.25e308, rel=1e-15)

    def test_negative_own_isi_clamped(self):
        """Own ISI a few ulp below zero, as rounding leaves it for an
        exact ZF beam, solves as zero ISI."""
        nabla, caps = np.array([1e-9]), np.zeros((1, 1))
        p, _ = solve_macro(macro_coupling([-1e-18], caps), 2.0, 1e-4, nabla,
                           0.0)
        q, _ = solve_macro(macro_coupling([0.0], caps), 2.0, 1e-4, nabla,
                           0.0)
        np.testing.assert_array_equal(p, q)

    @settings(max_examples=300, deadline=None)
    @given(gamma=st.floats(0.1, 10.0),
           load=st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 1.5)),
           nabla=st.floats(1e-14, 1e-6),
           caps=st.lists(st.floats(0.0, 1.0, allow_subnormal=False),
                         max_size=3),
           p_tol=st.floats(1e-12, 1e-2))
    def test_one_user_property(self, gamma, load, nabla, caps, p_tol):
        """One MU per coupling, so flags compare entry by entry: the solve
        raises InfeasibleError("macro") exactly where the oracle flags the
        entry, and otherwise matches the oracle's power."""
        delta = load / gamma
        cap = max(caps, default=0.0)
        limit = p_tol / cap if cap > 0.0 else np.inf
        ref = macro_kkt_oracle([delta], [nabla], gamma, limit)
        demand = nabla / (1 / gamma - delta) if gamma * delta < 1 else np.inf
        # the two closed forms round differently: no verdict on a near tie
        assume(limit == np.inf
               or abs(demand / (limit * (1 + 1e-12)) - 1.0) > 1e-9)
        try:
            p, _ = solve_macro(macro_coupling([delta], [caps]), gamma, p_tol,
                               np.array([nabla]), 0.0)
        except InfeasibleError as exc:
            assert exc.stage == "macro"
            assert not ref.feasible[0]
            return
        assert ref.feasible[0]
        assert p[0] == pytest.approx(ref.p[0], rel=1e-12)


class TestSolveMacro:
    def test_end_to_end_meets_targets(self):
        """ZF beams plus a femto report: every MU lands on its target."""
        cfg, geo, ch, beams = designed_scenario(seed=65)
        coupling = couple(ch, beams)
        p1 = solve_femto(build_femto_lp(coupling), cfg.gamma_f, cfg.p_tol,
                         cfg.noise_power)
        cross = cross_report(coupling, p1)
        p0, _ = solve_macro(coupling, cfg.gamma_m, cfg.p_tol, cross,
                            cfg.noise_power)
        for n in range(2):
            b = mu_breakdown(ch, beams, p0, p1, n,
                             noise_power=cfg.noise_power)
            assert sinr(b) == pytest.approx(cfg.gamma_m, rel=1e-4)
        _, caps = macro_coefficients(coupling)
        assert np.all(caps * p0[:, None] < cfg.p_tol)

    def test_matches_oracle_through_coefficients(self):
        cfg, geo, ch, beams = designed_scenario(seed=62)
        cross = np.full(2, 1e-9)
        macro = couple(ch, beams)
        tier, caps = macro_coefficients(macro)
        delta = tier.pu_isi_coeff / tier.pl_sig_coeff
        nabla = (cross + cfg.noise_power) / tier.pl_sig_coeff
        p0, _ = solve_macro(macro, cfg.gamma_m, cfg.p_tol, cross,
                            cfg.noise_power)
        ref = macro_kkt_oracle(delta, nabla, cfg.gamma_m,
                               cfg.p_tol / caps.max(axis=-1))
        np.testing.assert_allclose(p0, ref.p, rtol=1e-5)

    def test_coefficients_match_breakdowns(self):
        """The tier's signal and ISI and the caps read off the breakdowns
        of one unit beam; the tier has no co-channel term."""
        cfg, geo, ch, beams = designed_scenario(seed=66, m0=6, n0=3)
        tier, caps = macro_coefficients(couple(ch, beams))
        np.testing.assert_array_equal(tier.pu_co_coeff, np.zeros((3, 3)))
        assert tier.n0 == 3
        p1 = np.zeros(2)
        for n in range(3):
            p0 = np.eye(3)[n]
            own = mu_breakdown(ch, beams, p0, p1, n, noise_power=1e-12)
            leak = sum(mu_breakdown(ch, beams, p0, p1, n2,
                                    noise_power=1e-12).co
                       for n2 in range(3) if n2 != n)
            assert tier.pl_sig_coeff[n] == pytest.approx(own.sig, rel=1e-12)
            assert tier.pu_isi_coeff[n] == pytest.approx(
                max(own.isi, 0.0) + leak, rel=1e-12)
            for j in range(2):
                assert caps[n, j] == pytest.approx(
                    fu_breakdown(ch, beams, p0, p1, j,
                                 noise_power=1e-12).cross, rel=1e-12)

    def test_cap_violation_raises_with_detail(self):
        cfg, geo, ch, beams = designed_scenario(seed=63)
        cross = np.full(2, 1e-9)
        with pytest.raises(InfeasibleError) as exc:
            solve_macro(couple(ch, beams),
                        cfg.gamma_m, 1e-30, cross, cfg.noise_power)
        assert exc.value.stage == "macro"
        assert "cap" in str(exc.value)

    def test_unreachable_target_raises(self):
        cfg, geo, ch, beams = designed_scenario(seed=64)
        cross = np.full(2, 1e-9)
        with pytest.raises(InfeasibleError) as exc:
            solve_macro(couple(ch, beams), 1e18,
                        cfg.p_tol, cross, cfg.noise_power)
        assert exc.value.stage == "macro"


def zero_cross_channels(seed):
    """A realization whose cross-tier channels are identically zero."""
    cfg, geo, ch = random_scenario(seed=seed)
    return cfg, ChannelSet(h0=ch.h0, h1=ch.h1,
                           h10=np.zeros_like(ch.h10),
                           h01=np.zeros_like(ch.h01))


class TestSolveCentralized:
    def test_all_constraints_active(self):
        """Stacked solve leaves every user exactly on target."""
        cfg, geo, ch, beams = designed_scenario(seed=14, n1=3)
        coupling = couple(ch, beams)
        res = solve_centralized(coupling, cfg.gamma_m, cfg.gamma_f,
                                cfg.noise_power)
        s = victim_sinrs(coupling, np.concatenate([res.p0, res.p1]),
                         cfg.noise_power)
        np.testing.assert_allclose(s[coupling.macro], cfg.gamma_m, rtol=1e-6)
        np.testing.assert_allclose(s[coupling.femto], cfg.gamma_f, rtol=1e-6)
        assert res.total_power == pytest.approx(res.p0.sum() + res.p1.sum())

    def test_matches_fixed_point_oracle(self):
        cfg, geo, ch, beams = designed_scenario(seed=82)
        coupling = couple(ch, beams)
        gamma = np.repeat([cfg.gamma_m, cfg.gamma_f],
                          [coupling.n0, coupling.n1])
        F, v = stack_system(coupling, gamma, cfg.noise_power)
        res = solve_centralized(coupling, cfg.gamma_m, cfg.gamma_f,
                                cfg.noise_power)
        np.testing.assert_allclose(np.concatenate([res.p0, res.p1]),
                                   lp_fixed_point_oracle(F, v), rtol=1e-10)

    def test_never_beats_centralized(self):
        """The two-step scheme spends at least the jointly optimal power."""
        for seed in (83, 84, 85):
            cfg, geo, ch, beams = designed_scenario(seed=seed)
            joint = solve_centralized(couple(ch, beams), cfg.gamma_m,
                                      cfg.gamma_f, cfg.noise_power)
            two_step = solve_proposed(ch, cfg.gamma_m, cfg.gamma_f,
                                      cfg.p_tol, cfg.noise_power)
            assert two_step.total_power >= joint.total_power * (1 - 1e-9)

    def test_infeasible_target(self):
        cfg, geo, ch, beams = designed_scenario(seed=86)
        with pytest.raises(InfeasibleError) as exc:
            solve_centralized(couple(ch, beams), 1e9, cfg.gamma_f,
                              cfg.noise_power)
        assert exc.value.stage == "centralized"

    def test_zero_cross_channels_decouple(self):
        """No cross links and no tolerance margin: both schemes coincide."""
        cfg, ch = zero_cross_channels(seed=87)
        beams = design_beamformers(ch)
        joint = solve_centralized(couple(ch, beams), cfg.gamma_m,
                                  cfg.gamma_f, cfg.noise_power)
        two_step = solve_proposed(ch, cfg.gamma_m, cfg.gamma_f, 0.0,
                                  cfg.noise_power)
        assert two_step.total_power == pytest.approx(joint.total_power,
                                                     rel=1e-6)
        np.testing.assert_allclose(two_step.p1, joint.p1, rtol=1e-8)


class TestSolveProposed:
    def test_postconditions(self):
        """The allocation is its powers alone; evaluated on the coupling,
        the FUs (against the tolerated cross level) and the MUs (against
        the femto powers' actual cross-tier report) meet their targets."""
        cfg, geo, ch, beams = designed_scenario(seed=18, n1=3)
        res = solve_proposed(ch, cfg.gamma_m, cfg.gamma_f, cfg.p_tol,
                             cfg.noise_power)
        assert isinstance(res, AllocationResult)
        assert [f.name for f in fields(res)] == ["p0", "p1", "total_power"]
        coupling = couple(ch, beams)
        s = victim_sinrs(coupling, np.concatenate([res.p0, res.p1]),
                         cfg.noise_power, cross_override=cfg.p_tol)
        sinr_mu = s[coupling.macro]
        np.testing.assert_allclose(s[coupling.femto], cfg.gamma_f, rtol=1e-8)
        np.testing.assert_allclose(sinr_mu, cfg.gamma_m, rtol=1e-4)
        assert np.all(sinr_mu >= cfg.gamma_m * (1 - 1e-5))
        assert res.total_power == pytest.approx(res.p0.sum() + res.p1.sum())

    def test_femto_stage_tag(self):
        cfg, geo, ch = random_scenario(seed=92)
        with pytest.raises(InfeasibleError) as exc:
            solve_proposed(ch, cfg.gamma_m, 1e9, cfg.p_tol, cfg.noise_power)
        assert exc.value.stage == "femto"

    def test_macro_stage_tag(self):
        cfg, geo, ch = random_scenario(seed=93)
        with pytest.raises(InfeasibleError) as exc:
            solve_proposed(ch, cfg.gamma_m, cfg.gamma_f, 1e-30,
                           cfg.noise_power)
        assert exc.value.stage == "macro"

    def test_deterministic(self):
        cfg, geo, ch = random_scenario(seed=94)
        a = solve_proposed(ch, cfg.gamma_m, cfg.gamma_f, cfg.p_tol,
                           cfg.noise_power)
        b = solve_proposed(ch, cfg.gamma_m, cfg.gamma_f, cfg.p_tol,
                           cfg.noise_power)
        np.testing.assert_array_equal(a.p0, b.p0)
        np.testing.assert_array_equal(a.p1, b.p1)


class TestSharedTrialLinks:
    """The harness builds beams and coupling once per trial; reusing them
    across sweep points must give the standalone solve, bit for bit."""

    POINTS = [(g_m, g_f) for g_m in (-3.0, 1.0) for g_f in (-4.0, 0.0, 4.0)]

    def test_proposed_and_centralized_match_standalone(self):
        solved = 0
        for seed in range(300, 312):
            cfg, geo, ch, beams = designed_scenario(seed)
            coupling = couple(ch, beams)
            for g_m, g_f in self.POINTS:
                gm, gf = 10 ** (g_m / 10), 10 ** (g_f / 10)
                try:
                    alone = solve_proposed(ch, gm, gf, cfg.p_tol,
                                           cfg.noise_power)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        solve_proposed(ch, gm, gf, cfg.p_tol,
                                       cfg.noise_power, coupling=coupling)
                    continue
                shared = solve_proposed(ch, gm, gf, cfg.p_tol,
                                        cfg.noise_power, coupling=coupling)
                for name in ("p0", "p1"):
                    assert np.array_equal(getattr(shared, name),
                                          getattr(alone, name)), name
                assert shared.total_power == alone.total_power
                cent = solve_centralized(couple(ch, beams), gm, gf,
                                         cfg.noise_power)
                cent_shared = solve_centralized(coupling, gm, gf,
                                                cfg.noise_power)
                assert np.array_equal(cent.p0, cent_shared.p0)
                assert np.array_equal(cent.p1, cent_shared.p1)
                solved += 1
        assert solved >= 20
