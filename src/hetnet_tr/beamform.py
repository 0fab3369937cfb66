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
    """Both tiers' filters plus the sampling taps they were built for.

    The arrays may stack realizations along leading axes (sinr.couple).
    """

    u: np.ndarray        # (M0, N0, L) macro ZF filters
    alpha: np.ndarray    # (N0,) selected MU taps, 1-based
    g: np.ndarray        # (M1, N1, L) femto TR filters
    beta: int            # FU sampling tap, central by construction


def _stacked_system(h):
    """Stacked per-MU convolution matrices: row n*(2L-1) + t, column
    c*M + m holds h[m, n, t - c], so columns follow the tap-major w.

    h (..., M, N, L) may stack CIR groups along leading axes; their
    systems stack the same way, (..., N*(2L-1), L*M).
    """
    *lead, M, N, L = h.shape
    return np.moveaxis(toeplitz_conv_matrix(h), -4, -1).reshape(
        *lead, N * (2 * L - 1), L * M)


def _unflatten(w, M, L):
    # inverse of the tap-major stacking w[..., c*M + m] = u[..., m, c]
    return np.swapaxes(w.reshape(*w.shape[:-1], L, M), -1, -2)


def _unit_norm(w):
    """w / np.linalg.norm(w) for every vector along the last axis.

    np.linalg.norm of a complex vector is sqrt(re.re + im.im) from two
    BLAS dot products; a stacked (1, n) @ (n, 1) matmul runs that same
    dot per vector, so every quotient keeps the one-vector bits.
    """
    re, im = w.real[..., None, :], w.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return w / np.sqrt(sq[..., 0])


def zf_select_cirs(h, strict=True):
    """Best-tap zero-forcing filters for every user of a CIR group.

    h (..., M, N, L) may stack groups along leading axes, such as the
    trials of a stack; every result stacks the same way, and a slice's
    bits do not depend on the others.

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
    tap. Returns (filters, taps, reachable): filters (..., M, N, L) with
    unit stacked norm, 1-based taps (..., N), and reachable (...,) False
    where some user has no reachable tap; such a user's filters are zero
    and its tap is 1.
    """
    *lead, M, N, L = h.shape
    bands = 2 * L - 1
    H = _stacked_system(h)
    P = pseudo_inverse(H)
    HP = H @ P
    main = np.abs(np.diagonal(HP, axis1=-2, axis2=-1)) ** 2
    # both terms scale with the squared filter norm, so rank unnormalized
    residual = np.sum(np.abs(HP) ** 2, axis=-2) - main
    norm_sq = np.sum(np.abs(P) ** 2, axis=-2)
    reachable = norm_sq > 0.0
    if strict:
        miss = np.linalg.norm(HP - np.eye(N * bands), axis=-2)
        reachable &= miss <= _ZF_RESIDUAL_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(reachable, main / (residual + norm_sq), -np.inf)
    found = reachable.reshape(*lead, N, bands).any(axis=-1)
    best = np.argmax(gamma.reshape(*lead, N, bands), axis=-1)
    cols = np.arange(N) * bands + best
    w = np.swapaxes(np.take_along_axis(P, cols[..., None, :], axis=-1),
                    -1, -2)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(found[..., None], _unit_norm(w), 0.0)
    u = np.swapaxes(_unflatten(w, M, L), -3, -2)
    return u, best + 1, found.all(axis=-1)


def zf_select(channels):
    """Selected macro filters and taps: (u (M0,N0,L), alpha (N0,) 1-based).

    Raises InfeasibleError("zf") when a MU has no reachable tap.
    """
    u, alpha, reachable = zf_select_cirs(channels.h0, strict=True)
    if not reachable:
        n = int(np.flatnonzero(~u.any(axis=(0, 2)))[0])
        raise InfeasibleError("zf", f"no reachable tap for user {n}")
    return u, alpha


def tr_beamformer_cirs(h):
    """Time-reversal filters for every user of a CIR group (..., M, N, L).

    g_ij is the conjugated, time-reversed CIR scaled so the stacked filter
    of each user has unit norm: sum_i ||g_ij||^2 = 1. Each user's energy
    is summed over its contiguous M*L block, as for one group alone.
    """
    *lead, M, N, L = h.shape
    blocks = np.swapaxes(h, -3, -2).reshape(*lead, N, M * L)
    s = np.sum(np.abs(blocks) ** 2, axis=-1)
    if (s == 0.0).any():
        j = int(np.nonzero(s == 0.0)[-1][0])
        raise ValueError(f"all-zero channel for user {j}: TR scale undefined")
    return np.conj(h[..., ::-1]) / np.sqrt(s)[..., None, :, None]


def design_beamformers(channels):
    """Full two-tier design: ZF on the macro links, TR on the femto links."""
    u, alpha = zf_select(channels)
    g = tr_beamformer_cirs(channels.h1)
    return BeamformerSet(u=u, alpha=alpha, g=g, beta=channels.taps)
