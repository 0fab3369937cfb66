"""Beamformer construction for both tiers.

Macro tier: tap-selective zero-forcing. Per MU and candidate sampling tap,
a stacked banded system is inverted so the combined response is 1 at the
target tap and 0 at every other tap of every MU; candidates are ranked by
a leakage ratio and the best tap wins.

Femto tier: time reversal. Each filter is the conjugated, reversed CIR
with a per-user normalization, which focuses received energy on the
central tap (index L of the 2L-1 response taps).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .linops import pseudo_inverse, toeplitz_conv_matrix

# a candidate tap counts as reachable when the stacked system solves to this
_ZF_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class BeamformerSet:
    """Both tiers' filters plus the sampling taps they were built for."""

    u: np.ndarray        # (M0, N0, L) macro ZF filters
    alpha: np.ndarray    # (N0,) selected MU taps, 1-based
    g: np.ndarray        # (M1, N1, L) femto TR filters
    beta: int            # FU sampling tap, central by construction


def _stacked_system(h):
    """Stacked per-MU convolution matrices: row n*(2L-1) + t, column
    c*M + m holds h[m, n, t - c], so columns follow the tap-major w."""
    M, N, L = h.shape
    return toeplitz_conv_matrix(h).transpose(1, 2, 3, 0).reshape(
        N * (2 * L - 1), L * M)


def _unflatten(w, M, L):
    # inverse of the tap-major stacking w[c*M + m] = u[m, c]
    return w.reshape(L, M).T


def zf_select_cirs(h, strict=True):
    """Best-tap zero-forcing filters for every user of a CIR group.

    Candidate (n, tap) is column idx = n*(2L-1) + tap-1 of P = pinv(H),
    for the stacked system H; column idx of H @ P is that candidate's
    stacked response at every MU. Its ranking ratio is target-tap power
    over residual power (own off-target taps plus leakage onto every other
    MU, plus 1 as a unit-normalized noise placeholder), all for the filter
    scaled to unit stacked norm. With strict=True a candidate whose
    column of H @ P - I has norm above 1e-6 is unreachable; strict=False
    keeps the least-squares solution, which is the mode used when the
    system is too wide to invert exactly.

    Keeps each user's largest ratio, breaking ties toward the smallest
    tap. Returns (filters, taps) with filters (M, N, L), unit stacked norm,
    and 1-based taps (N,).
    """
    M, N, L = h.shape
    bands = 2 * L - 1
    H = _stacked_system(h)
    P = pseudo_inverse(H)
    HP = H @ P
    main = np.abs(np.diagonal(HP)) ** 2
    # both terms scale with the squared filter norm, so rank unnormalized
    residual = np.sum(np.abs(HP) ** 2, axis=0) - main
    norm_sq = np.sum(np.abs(P) ** 2, axis=0)
    reachable = norm_sq > 0.0
    if strict:
        miss = np.linalg.norm(HP - np.eye(N * bands), axis=0)
        reachable &= miss <= _ZF_RESIDUAL_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(reachable, main / (residual + norm_sq), -np.inf)
    u = np.zeros((M, N, L), dtype=complex)
    alpha = np.zeros(N, dtype=int)
    for n in range(N):
        cols = slice(n * bands, (n + 1) * bands)
        if not reachable[cols].any():
            raise InfeasibleError("zf", f"no reachable tap for user {n}")
        best = int(np.argmax(gamma[cols]))
        w = P[:, n * bands + best]
        u[:, n, :] = _unflatten(w / float(np.linalg.norm(w)), M, L)
        alpha[n] = best + 1
    return u, alpha


def zf_select(channels):
    """Selected macro filters and taps: (u (M0,N0,L), alpha (N0,) 1-based)."""
    return zf_select_cirs(channels.h0, strict=True)


def tr_beamformer_cirs(h):
    """Time-reversal filters for every user of a CIR group (M, N, L).

    g_ij is the conjugated, time-reversed CIR scaled so the stacked filter
    of each user has unit norm: sum_i ||g_ij||^2 = 1.
    """
    M, N, L = h.shape
    g = np.zeros_like(h)
    for j in range(N):
        s = float(np.sum(np.abs(h[:, j, :]) ** 2))
        if s == 0.0:
            raise ValueError(f"all-zero channel for user {j}: TR scale undefined")
        g[:, j, :] = np.conj(h[:, j, ::-1]) / np.sqrt(s)
    return g


def design_beamformers(channels):
    """Full two-tier design: ZF on the macro links, TR on the femto links."""
    u, alpha = zf_select(channels)
    g = tr_beamformer_cirs(channels.h1)
    return BeamformerSet(u=u, alpha=alpha, g=g, beta=channels.taps)
