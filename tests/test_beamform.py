"""Zero-forcing and time-reversal beamformer tests."""

import numpy as np
import pytest

from hetnet_tr.beamform import (
    _stacked_system,
    design_beamformers,
    tr_beamformer_cirs,
    zf_select,
    zf_select_cirs,
)
from hetnet_tr.channel import ChannelSet
from hetnet_tr.errors import InfeasibleError

from helpers import crandn, random_scenario
from oracles import (
    stacked_system,
    tr_beamformer,
    zf_candidate,
    zf_gamma,
    zf_gamma_cirs,
    zf_select_loop,
)


def channelset_from_h0(h0):
    """Wrap macro CIRs with placeholder arrays for the unused groups."""
    M, N, L = h0.shape
    dummy = np.ones((1, 1, L), dtype=complex)
    return ChannelSet(h0=np.asarray(h0, dtype=complex), h1=dummy,
                      h10=np.ones((1, N, L), dtype=complex),
                      h01=np.ones((M, 1, L), dtype=complex))


def combined(filters, cirs):
    return sum(np.convolve(filters[m], cirs[m]) for m in range(filters.shape[0]))


class TestZfCandidate:
    def test_scalar_channel(self):
        ch = channelset_from_h0(np.array([[[2.0]]]))
        cand = zf_candidate(ch, 0, 1)
        np.testing.assert_allclose(cand.filters, [[1.0]], atol=1e-14)
        assert cand.c == pytest.approx(2.0)
        # received tap equals the normalization scalar
        assert abs(combined(cand.filters, ch.h0[:, 0, :])[0]) == pytest.approx(2.0)

    def test_cancellation_at_every_tap(self):
        """Selected tap carries c; all other taps at all MUs are nulled."""
        _, _, ch = random_scenario(101)
        for n in range(2):
            for tap in range(1, 12):
                cand = zf_candidate(ch, n, tap)
                own = combined(cand.filters, ch.h0[:, n, :])
                assert abs(own[tap - 1]) == pytest.approx(cand.c, rel=1e-8)
                resid = np.sum(np.abs(own) ** 2) - np.abs(own[tap - 1]) ** 2
                for n2 in range(2):
                    if n2 != n:
                        resid += np.sum(np.abs(combined(cand.filters, ch.h0[:, n2, :])) ** 2)
                assert resid <= 1e-16 * cand.c ** 2

    def test_unit_norm_stacking(self):
        _, _, ch = random_scenario(102)
        cand = zf_candidate(ch, 1, 6)
        assert np.linalg.norm(cand.filters) == pytest.approx(1.0, rel=1e-12)

    def test_right_inverse_shape(self):
        """Stacked system at Table defaults is 22x24 with an exact right inverse."""
        _, _, ch = random_scenario(103)
        h0 = ch.h0
        H = stacked_system(h0)
        assert H.shape == (22, 24)
        from hetnet_tr.linops import pseudo_inverse
        np.testing.assert_allclose(H @ pseudo_inverse(H), np.eye(22), atol=1e-8)

    def test_tap_out_of_range(self):
        _, _, ch = random_scenario(104)
        with pytest.raises(ValueError):
            zf_candidate(ch, 0, 12)


class TestZfGamma:
    def test_cancellation_limit(self):
        # residual is zeroed, so the ratio reduces to c^2 over 1
        _, _, ch = random_scenario(105)
        cand = zf_candidate(ch, 0, 4)
        assert cand.gamma == pytest.approx(cand.c ** 2, rel=1e-6)

    def test_duplicate_formula_oracle(self):
        """Independent summation of the ranking ratio."""
        _, _, ch = random_scenario(106)
        cand = zf_candidate(ch, 1, 9)
        got = zf_gamma(cand, ch, 1)
        own = combined(cand.filters, ch.h0[:, 1, :])
        main = abs(own[8]) ** 2
        denom = 1.0 + np.sum(np.abs(own) ** 2) - main
        denom += np.sum(np.abs(combined(cand.filters, ch.h0[:, 0, :])) ** 2)
        assert got == pytest.approx(main / denom, rel=1e-12)

    def test_zero_filters_give_zero(self):
        _, _, ch = random_scenario(107)
        assert zf_gamma_cirs(np.zeros((4, 6), dtype=complex), ch.h0, 0, 3) == 0.0


class TestZfSelect:
    def test_single_tap_degenerate(self):
        ch = channelset_from_h0(np.array([[[1.5]], [[0.5]]]))
        u, alpha = zf_select(ch)
        assert alpha.tolist() == [1]
        assert u.shape == (2, 1, 1)

    def test_beats_brute_force(self):
        _, _, ch = random_scenario(108)
        u, alpha = zf_select(ch)
        for n in range(2):
            chosen = zf_candidate(ch, n, int(alpha[n]))
            for tap in range(1, 12):
                assert chosen.gamma >= zf_candidate(ch, n, tap).gamma - 1e-15

    def test_tie_breaks_to_smallest_tap(self):
        """Single-tap channels make taps 1 and 2 equally good; 1 must win."""
        h0 = np.zeros((2, 1, 2), dtype=complex)
        h0[:, 0, 0] = 1.0
        ch = channelset_from_h0(h0)
        g1 = zf_candidate(ch, 0, 1).gamma
        g2 = zf_candidate(ch, 0, 2).gamma
        assert g1 == pytest.approx(g2, rel=1e-12)
        _, alpha = zf_select(ch)
        assert alpha[0] == 1

    def test_deterministic(self):
        _, _, ch = random_scenario(109)
        u1, a1 = zf_select(ch)
        u2, a2 = zf_select(ch)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(a1, a2)

    def test_all_zero_channel_infeasible(self):
        ch = channelset_from_h0(np.zeros((4, 2, 6), dtype=complex))
        with pytest.raises(InfeasibleError):
            zf_select(ch)

    def test_wide_system_needs_relaxed_mode(self):
        """24 filter taps cannot null 44 constraints; least-squares mode runs."""
        rng = np.random.default_rng(110)
        h = crandn(rng, 4, 4, 6)
        assert not zf_select_cirs(h, strict=True)[2]
        u, alpha, reachable = zf_select_cirs(h, strict=False)
        assert reachable
        assert u.shape == (4, 4, 6)
        for n in range(4):
            assert np.linalg.norm(u[:, n, :]) == pytest.approx(1.0, rel=1e-12)
            assert 1 <= alpha[n] <= 11


class TestStackedSystem:
    def test_equals_block_shift_oracle(self):
        """The transposed convolution matrices copy the banded blocks."""
        rng = np.random.default_rng(117)
        for draw in range(200):
            M, N, L = (int(x) for x in rng.integers(1, 7, size=3))
            h = crandn(rng, M, N, L)
            assert np.array_equal(_stacked_system(h), stacked_system(h)), draw


class TestZfSelectMatchesLoop:
    """The selector reads every candidate off one H @ pinv(H); the
    per-candidate loop rebuilds and convolves each one. Same taps, same
    filter bits."""

    DRAWS = 200

    def test_strict_on_macro_links(self):
        for seed in range(self.DRAWS):
            _, _, ch = random_scenario(1000 + seed)
            u, alpha, _ = zf_select_cirs(ch.h0, strict=True)
            u_ref, alpha_ref = zf_select_loop(ch.h0, strict=True)
            assert np.array_equal(alpha, alpha_ref), seed
            assert np.array_equal(u, u_ref), seed

    def test_relaxed_on_femto_links(self):
        for seed in range(self.DRAWS):
            _, _, ch = random_scenario(1000 + seed)
            u, alpha, _ = zf_select_cirs(ch.h1, strict=False)
            u_ref, alpha_ref = zf_select_loop(ch.h1, strict=False)
            assert np.array_equal(alpha, alpha_ref), seed
            assert np.array_equal(u, u_ref), seed

    def test_relaxed_on_wide_system(self):
        rng = np.random.default_rng(116)
        for _ in range(20):
            h = crandn(rng, 4, 4, 6)
            u, alpha, _ = zf_select_cirs(h, strict=False)
            u_ref, alpha_ref = zf_select_loop(h, strict=False)
            assert np.array_equal(alpha, alpha_ref)
            assert np.array_equal(u, u_ref)


class TestStackedTrials:
    """A stack of CIR groups on a leading axis gives each slice the bits
    of its own call."""

    def test_zf_stack_matches_slices(self):
        rng = np.random.default_rng(118)
        for strict, (M, N, L) in ((True, (4, 2, 6)), (False, (4, 2, 6)),
                                  (False, (3, 3, 4))):
            h = crandn(rng, 5, M, N, L)
            h[3] = 0.0  # no tap of this slice is reachable
            u, alpha, reachable = zf_select_cirs(h, strict=strict)
            assert reachable.tolist() == [True, True, True, False, True]
            assert not u[3].any()
            for t in (0, 1, 2, 4):
                u_t, alpha_t, ok = zf_select_cirs(h[t], strict=strict)
                assert ok
                assert np.array_equal(u[t], u_t)
                assert np.array_equal(alpha[t], alpha_t)

    def test_zf_select_names_the_unreachable_user(self):
        h0 = crandn(np.random.default_rng(119), 4, 2, 6)
        h0[:, 1] = 0.0
        with pytest.raises(InfeasibleError, match="user 1") as exc:
            zf_select(channelset_from_h0(h0))
        assert exc.value.stage == "zf"

    def test_tr_stack_matches_slices(self):
        h = crandn(np.random.default_rng(120), 2, 3, 4, 3, 6)
        g = tr_beamformer_cirs(h)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(g[idx], tr_beamformer_cirs(h[idx]))


class TestTimeReversal:
    def test_delta_channel_reverses(self):
        h = np.zeros((1, 1, 6), dtype=complex)
        h[0, 0, 0] = 1.0
        g = tr_beamformer_cirs(h)
        np.testing.assert_allclose(g[0, 0], [0, 0, 0, 0, 0, 1], atol=1e-14)

    def test_unit_normalization(self):
        _, _, ch = random_scenario(111, n1=3)
        g = tr_beamformer_cirs(ch.h1)
        for j in range(3):
            assert np.sum(np.abs(g[:, j, :]) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_central_tap_is_matched_filter_peak(self):
        _, _, ch = random_scenario(112)
        g = tr_beamformer_cirs(ch.h1)
        for j in range(2):
            s = np.sum(np.abs(ch.h1[:, j, :]) ** 2)
            agg = combined(g[:, j, :], ch.h1[:, j, :])
            center = agg[5]
            assert abs(center.imag) <= 1e-12 * abs(center)
            assert center.real == pytest.approx(np.sqrt(s), rel=1e-12)
            for i in range(4):
                tap = np.convolve(g[i, j, :], ch.h1[i, j, :])[5]
                expect = np.sum(np.abs(ch.h1[i, j, :]) ** 2) / np.sqrt(s)
                assert tap.real == pytest.approx(expect, rel=1e-12)

    def test_single_user_slice(self):
        _, _, ch = random_scenario(113, n1=3)
        np.testing.assert_array_equal(tr_beamformer(ch, 2),
                                      tr_beamformer_cirs(ch.h1)[:, 2, :])

    def test_phase_covariance(self):
        """A global channel phase rotates the filters and nothing else."""
        rng = np.random.default_rng(114)
        h = crandn(rng, 4, 1, 6)
        g = tr_beamformer_cirs(h)
        theta = 0.7
        g_rot = tr_beamformer_cirs(h * np.exp(1j * theta))
        np.testing.assert_allclose(g_rot, g * np.exp(-1j * theta), rtol=1e-12)
        before = abs(combined(g[:, 0, :], h[:, 0, :])[5]) ** 2
        after = abs(combined(g_rot[:, 0, :], (h * np.exp(1j * theta))[:, 0, :])[5]) ** 2
        assert after == pytest.approx(before, rel=1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            tr_beamformer_cirs(np.zeros((2, 1, 6), dtype=complex))


class TestDesignBeamformers:
    def test_full_design_shapes(self):
        _, _, ch = random_scenario(115, n1=4)
        beams = design_beamformers(ch)
        assert beams.u.shape == (4, 2, 6)
        assert beams.g.shape == (4, 4, 6)
        assert beams.alpha.shape == (2,)
        assert beams.beta == 6
        assert ((beams.alpha >= 1) & (beams.alpha <= 11)).all()
