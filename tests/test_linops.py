"""Low-level linear-operator tests, checked against hand-rolled oracles."""

import numpy as np
import pytest

from hetnet_tr.errors import NumericalError
from hetnet_tr.linops import (
    dominant_eigpair,
    pseudo_inverse,
    responses,
    spectral_radius,
    toeplitz_conv_matrix,
)

from oracles import sylvester_matrix


def conv_oracle(a, b):
    """Direct double-loop convolution, independent of numpy's kernel."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros(a.size + b.size - 1, dtype=np.result_type(a, b, float))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def single(x):
    """One antenna's single filter or CIR, shaped (1, 1, L)."""
    return np.asarray(x)[None, None, :]


class TestConvolve:
    """linops.responses, the one convolution kernel of the package."""

    def test_delta_is_identity(self):
        c = np.arange(6.0)
        delta = np.eye(6)[0]
        np.testing.assert_array_equal(
            responses(single(delta), single(c))[0, 0],
            np.concatenate([c, np.zeros(5)]))

    def test_zero_annihilates(self):
        out = responses(single(np.zeros(4)), single(np.ones(4)))
        assert out.shape == (1, 1, 7)
        assert not out.any()

    def test_small_case_by_hand(self):
        np.testing.assert_array_equal(
            responses(single([1, 2]), single([3, 4])), [[[3, 10, 8]]])

    def test_matches_double_loop_oracle(self):
        """out[v, k] sums beam k's and victim v's convolutions per antenna."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            M, K, V, L = (int(x) for x in rng.integers(1, 9, size=4))
            f = crandn(rng, M, K, L)
            c = crandn(rng, M, V, L)
            out = responses(f, c)
            assert out.shape == (V, K, 2 * L - 1)
            for v in range(V):
                for k in range(K):
                    want = sum(conv_oracle(f[m, k], c[m, v]) for m in range(M))
                    np.testing.assert_allclose(out[v, k], want,
                                               rtol=1e-12, atol=1e-12)

    def test_commutative_and_bilinear(self):
        rng = np.random.default_rng(8)
        a = crandn(rng, 3, 2, 6)
        b, c = crandn(rng, 3, 4, 6), crandn(rng, 3, 4, 6)
        np.testing.assert_allclose(responses(a, b),
                                   responses(b, a).transpose(1, 0, 2),
                                   rtol=1e-12)
        np.testing.assert_allclose(responses(a, 2.0 * b + c),
                                   2.0 * responses(a, b) + responses(a, c),
                                   rtol=1e-12, atol=1e-12)


class TestSylvesterMatrix:
    """The block-shift reference the ZF stacked system is checked against."""

    def test_single_row_degenerates_to_row(self):
        r = np.array([1.0 + 2j, 3.0, -1j])
        H = sylvester_matrix([r], 1)
        assert H.shape == (1, 3)
        np.testing.assert_array_equal(H[0], r)

    def test_two_tap_band_by_hand(self):
        a, b = 2.0 + 1j, -3.0
        H = sylvester_matrix([[a], [b]], 2)
        np.testing.assert_array_equal(H, [[a, 0], [b, a], [0, b]])

    def test_shape_and_convolution_identity(self):
        """H @ (tap-major filter stack) reproduces the summed convolutions."""
        rng = np.random.default_rng(11)
        L, M = 6, 4
        h = crandn(rng, M, L)      # per-antenna CIRs
        u = crandn(rng, M, L)      # per-antenna filters
        rows = h.T                 # row l = tap l across antennas
        H = sylvester_matrix(rows, L)
        assert H.shape == (2 * L - 1, M * L)
        w = u.T.reshape(-1)        # w[c*M + m] = u[m, c]
        direct = sum(np.convolve(h[m], u[m]) for m in range(M))
        np.testing.assert_allclose(H @ w, direct, rtol=1e-12, atol=1e-12)

    def test_row_count_and_width_validated(self):
        with pytest.raises(ValueError):
            sylvester_matrix([[1.0, 2.0]], 2)
        with pytest.raises(ValueError):
            sylvester_matrix([[1.0, 2.0], [1.0]], 2)


class TestToeplitzConvMatrix:
    def test_scalar(self):
        np.testing.assert_array_equal(toeplitz_conv_matrix([1.0]), [[1.0]])

    def test_two_tap_by_hand(self):
        a, b = 1.5, 2.0 - 1j
        G = toeplitz_conv_matrix([a, b])
        np.testing.assert_array_equal(G, [[a, 0], [b, a], [0, b]])

    def test_matvec_is_convolution(self):
        rng = np.random.default_rng(12)
        g = crandn(rng, 6)
        x = crandn(rng, 6)
        np.testing.assert_allclose(toeplitz_conv_matrix(g) @ x,
                                   conv_oracle(g, x), rtol=1e-12, atol=1e-12)

    def test_agrees_with_single_antenna_sylvester(self):
        rng = np.random.default_rng(13)
        g = crandn(rng, 5)
        H = sylvester_matrix([[gl] for gl in g], 5)
        np.testing.assert_allclose(toeplitz_conv_matrix(g), H, rtol=0, atol=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_conv_matrix([])

    def test_stacked_filters(self):
        """Leading axes stack the matrices of the single filters."""
        rng = np.random.default_rng(14)
        g = crandn(rng, 3, 2, 5)
        G = toeplitz_conv_matrix(g)
        assert G.shape == (3, 2, 9, 5)
        for i in range(3):
            for k in range(2):
                np.testing.assert_array_equal(G[i, k],
                                              toeplitz_conv_matrix(g[i, k]))


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(4)), np.eye(4),
                                   rtol=0, atol=1e-14)

    def test_rank_deficient_diagonal(self):
        A = np.diag([2.0, 0.0])
        np.testing.assert_allclose(pseudo_inverse(A), np.diag([0.5, 0.0]),
                                   rtol=0, atol=1e-14)

    def test_right_inverse_of_wide_full_rank(self):
        rng = np.random.default_rng(21)
        A = crandn(rng, 11, 24)
        np.testing.assert_allclose(A @ pseudo_inverse(A), np.eye(11),
                                   rtol=0, atol=1e-8)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(22)
        for shape in [(11, 24), (24, 11), (6, 6)]:
            A = crandn(rng, *shape)
            P = pseudo_inverse(A)
            tol = 1e-9 * np.linalg.norm(A)
            assert np.linalg.norm(A @ P @ A - A) <= tol
            assert np.linalg.norm(P @ A @ P - P) <= tol
            assert np.linalg.norm((A @ P).conj().T - A @ P) <= tol
            assert np.linalg.norm((P @ A).conj().T - P @ A) <= tol

    def test_involution_on_full_rank(self):
        rng = np.random.default_rng(23)
        A = crandn(rng, 5, 8)
        np.testing.assert_allclose(pseudo_inverse(pseudo_inverse(A)), A,
                                   rtol=1e-8, atol=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestDominantEigpair:
    def test_diagonal(self):
        lam, v = dominant_eigpair(np.diag([3.0, 1.0]))
        assert lam == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(v), [1.0, 0.0], atol=1e-10)

    def test_rank_one(self):
        rng = np.random.default_rng(31)
        u = crandn(rng, 7)
        u /= np.linalg.norm(u)
        lam, v = dominant_eigpair(np.outer(u, u.conj()))
        assert lam == pytest.approx(1.0, abs=1e-10)
        # eigenvector defined up to a global phase
        assert abs(np.vdot(u, v)) == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_oracle_on_gram(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            B = crandn(rng, 11, 11)
            A = B.conj().T @ B
            lam, v = dominant_eigpair(A, tol=1e-12)
            ref = np.linalg.eigvalsh(A)[-1]
            assert lam == pytest.approx(ref, rel=1e-8)
            assert np.linalg.norm(A @ v - lam * v) <= 1e-8 * lam

    def test_dominates_random_rayleigh_quotients(self):
        rng = np.random.default_rng(33)
        B = crandn(rng, 8, 8)
        A = B.conj().T @ B
        lam, _ = dominant_eigpair(A)
        for _ in range(50):
            x = crandn(rng, 8)
            x /= np.linalg.norm(x)
            assert np.real(np.vdot(x, A @ x)) <= lam * (1 + 1e-9)

    def test_zero_matrix(self):
        lam, v = dominant_eigpair(np.zeros((3, 3)))
        assert lam == 0.0
        np.testing.assert_allclose(v, np.ones(3) / np.sqrt(3))

    def test_restart_when_start_vector_in_kernel(self):
        # all-ones start is annihilated; iteration must escape the kernel
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        lam, v = dominant_eigpair(A)
        assert lam == pytest.approx(2.0, rel=1e-10)
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(np.vdot(target, v)) == pytest.approx(1.0, abs=1e-8)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            dominant_eigpair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_convergence_raises(self):
        A = np.diag([1.0, 1.0 - 1e-15])
        with pytest.raises(NumericalError):
            dominant_eigpair(A + 1e-16, tol=1e-300, max_iter=5)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_symmetric_permutation(self):
        assert spectral_radius([[0.0, 0.5], [0.5, 0.0]]) == pytest.approx(0.5, abs=1e-10)

    def test_cyclic_two_by_two(self):
        """Zero-diagonal couplings: the value is sqrt of the cycle gain."""
        a, b = 0.3, 1.7
        got = spectral_radius([[0.0, a], [b, 0.0]])
        assert got == pytest.approx(np.sqrt(a * b), rel=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            A = rng.random((4, 4))
            ref = np.abs(np.linalg.eigvals(A)).max()
            assert spectral_radius(A) == pytest.approx(ref, rel=1e-8)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius([[0.0, -0.1], [0.1, 0.0]])

    def test_complex_entry_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[0.0, 1j], [0.0, 0.0]]))
