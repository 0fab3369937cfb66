"""Small linear-algebra kernel shared by the beamforming and robustness code.

Everything here operates on plain numpy arrays and is pure: no module state,
safe under process- or thread-level parallelism.
"""

import numpy as np

from .errors import NumericalError

# singular values below this fraction of sigma_max are treated as zero
_RANK_RCOND = 1e-12
# relative asymmetry above this means the input is not Hermitian
_HERMITIAN_TOL = 1e-10


def toeplitz_conv_matrix(g):
    """(2L-1) x L matrix G with G @ x == convolve(g, x) for any length-L x.

    g may stack filters along leading axes, (..., L); their matrices then
    stack the same way, (..., 2L-1, L).
    """
    g = np.asarray(g)
    if g.ndim == 0 or g.shape[-1] == 0:
        raise ValueError("toeplitz_conv_matrix expects non-empty filters")
    L = g.shape[-1]
    lag = np.arange(2 * L - 1)[:, None] - np.arange(L)[None, :]
    inside = (lag >= 0) & (lag < L)
    return np.where(inside, g[..., np.clip(lag, 0, L - 1)], 0)


def responses(filters, cirs):
    """Combined response of every beam at every victim, (..., V, K, 2L-1).

    filters (..., M, K, L) and cirs (..., M, V, L) share the M transmit
    antennas and any leading stack axes; out[..., v, k] = sum_m
    convolve(filters[..., m, k], cirs[..., m, v]), as one product of the
    victims' stacked taps with the filters' convolution matrices. A
    victim's row has the same bits whatever the number of victims and
    whatever the stack.
    """
    *lead, M, K, L = filters.shape
    V = cirs.shape[-2]
    conv = np.moveaxis(toeplitz_conv_matrix(filters), -1, -3).reshape(
        *lead, M * L, K * (2 * L - 1))
    taps = np.moveaxis(cirs, -2, -3).reshape(*lead, V, M * L)
    if V == 1:  # numpy sums a lone row in another order than a stack's rows
        taps = np.repeat(taps, 2, axis=-2)
    return (taps @ conv)[..., :V, :].reshape(*lead, V, K, 2 * L - 1)


def real_response_map(filters):
    """The product of responses in real arithmetic, (M·2L, K·2(2L-1)).

    With each antenna's taps laid out real then imaginary, x (..., M·2L),
    x @ map holds every beam's response at every tap as a (re, im) pair,
    laid out (..., K, 2L-1, 2): the convolution matrices G = Gr + j Gi
    enter as the blocks [[Gr, Gi], [-Gi, Gr]].
    """
    M, _, L = filters.shape
    G = toeplitz_conv_matrix(filters).transpose(0, 3, 1, 2)
    gr, gi = G.real, G.imag
    return np.stack([np.stack([gr, gi], axis=-1),
                     np.stack([-gi, gr], axis=-1)], axis=1).reshape(
                         2 * M * L, -1)


def pseudo_inverse(A):
    """Moore-Penrose pseudo-inverse via SVD with a relative rank cutoff."""
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise ValueError("pseudo_inverse got non-finite entries")
    return np.linalg.pinv(A, rcond=_RANK_RCOND)


def dominant_eigpair(A, tol=1e-10, max_iter=200_000):
    """Largest eigenvalue and unit eigenvector of a Hermitian PSD matrix.

    Deterministic power iteration from the normalized all-ones vector with
    Rayleigh-quotient stopping: returns once ||Av - lam*v|| <= tol*lam.  If
    the start vector happens to lie in the kernel the iteration restarts
    from the first basis vector with a nonzero image.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dominant_eigpair expects a square matrix")
    scale = max(1.0, float(np.abs(A).max()) if A.size else 1.0)
    if float(np.abs(A - A.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise ValueError("dominant_eigpair expects a Hermitian matrix")
    n = A.shape[0]
    v = np.ones(n, dtype=complex) / np.sqrt(n)
    best_res = np.inf
    for _ in range(max_iter):
        w = A @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            if not A.any():
                return 0.0, v
            # start vector sits in the kernel; any nonzero column escapes it
            for i in range(n):
                if np.linalg.norm(A[:, i]) > 0.0:
                    v = np.zeros(n, dtype=complex)
                    v[i] = 1.0
                    break
            w = A @ v
            nw = float(np.linalg.norm(w))
        lam = float(np.real(np.vdot(v, w)))
        res = float(np.linalg.norm(w - lam * v))
        if res <= tol * lam:
            return lam, v
        best_res = min(best_res, res)
        v = w / nw
    raise NumericalError(
        f"power iteration did not reach tol={tol:g} in {max_iter} steps "
        f"(best residual {best_res:.3e})"
    )


def spectral_radius(A):
    """Perron root of an entrywise-nonnegative square matrix.

    Computed from the full eigenvalue set: the interference systems it
    measures are small, and entries can span twenty orders of magnitude, so
    the balanced dense solve is both exact enough and immune to the tiny
    spectral gaps that stall iterative schemes on cyclic couplings like
    [[0,a],[b,0]].
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("spectral_radius expects a square matrix")
    if np.iscomplexobj(A):
        if np.abs(A.imag).max() > 0.0:
            raise ValueError("spectral_radius expects real nonnegative entries")
        A = A.real
    A = A.astype(float, copy=False)
    if A.size == 0:
        return 0.0
    if (A < 0).any():
        raise ValueError("spectral_radius expects nonnegative entries")
    if not A.any():
        return 0.0
    if not np.all(np.isfinite(A)):
        raise NumericalError("spectral_radius got non-finite entries")
    return float(np.abs(np.linalg.eigvals(A)).max())
