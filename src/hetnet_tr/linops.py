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


def convolve(a, b):
    """Full linear convolution of two 1-D vectors (length |a|+|b|-1)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("convolve expects 1-D vectors")
    if a.size == 0 or b.size == 0:
        raise ValueError("convolve got an empty vector")
    return np.convolve(a, b)


def sylvester_matrix(h_rows, L):
    """Banded (2L-1) x (M*L) matrix mapping stacked filter taps to received taps.

    h_rows holds L rows of width M; row l collects tap l of all M antenna
    CIRs.  Block-column c (0-indexed) contains the row stack shifted down by
    c, so that for filters u (taps flattened tap-major, w[c*M+m] = u_m[c])
    the product equals sum_m convolve(h_m, u_m).
    """
    rows = [np.atleast_1d(np.asarray(r)) for r in h_rows]
    if len(rows) != L:
        raise ValueError(f"expected {L} rows, got {len(rows)}")
    widths = {r.shape for r in rows}
    if len(widths) != 1 or rows[0].ndim != 1:
        raise ValueError("rows must be 1-D and of equal width")
    block = np.array(rows)
    M = block.shape[1]
    out = np.zeros((2 * L - 1, M * L), dtype=complex)
    for c in range(L):
        out[c:c + L, c * M:(c + 1) * M] = block
    return out


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
