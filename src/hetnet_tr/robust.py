"""Worst-case robust femto design under norm-bounded channel error.

The femto tier knows its CIRs only through estimates. Each per-antenna
error e = h_hat - h is bounded against the true channel h,
||e||^2 <= psi ||h||^2, so the true channels antenna i admits form the
ball

    || h - c_i ||  <=  r_i,   c_i = h_hat_i / (1-psi),
                              r_i = sqrt(psi) ||h_hat_i|| / (1-psi).

_ball holds these centers and radii; the closed forms and the uniform
sampler of true channels both read it.

Every quantity the allocation needs is a linear map of the channels, and
its worst case over this product of balls has a closed form (the
worst-case analysis of Vorobyov, Gershman & Luo, IEEE TSP 2003). With
G_i antenna i's convolution matrix and a_i = g_i reversed its central
row, the central-tap amplitude sum_i a_i^T h_i fills a disc around its
value at the centers, so the signal floor

    max(0, |sum_i a_i^T c_i| - sum_i r_i ||a_i||)^2

is exact and attained on the boundary. The triangle inequality bounds a
response energy by (||sum_i G_i c_i|| + sum_i r_i ||G_i||_2)^2, and the
ISI by the same expression with the central row of every G_i dropped.
These fill the `proposed` stack. The `young` stack keeps the looser
norm-product ceiling (sum_i ||g_i||_1 ||h_hat_i|| / (1 - sqrt(psi)))^2,
from ||G_i||_2 <= ||g_i||_1 and the largest norm ||c_i|| + r_i the ball
admits. Either stack is a sinr.Coupling, the type of the exact-CSI
coefficients, and solve_robust is the exact-CSI fixed point over it
(power.solve_fixed_point) with the robust stage tag.

worst_case_oracle audits the closed forms on the ball stated again in the
error variable, by fixed monotone steps from a few boundary starts: the
generalized power method (Journee et al., JMLR 2010) for the maximum and
projected gradient (Beck & Teboulle, SIAM J. Imaging Sci. 2009) for the
minimum.
"""

from dataclasses import dataclass

import numpy as np

from .linops import responses, toeplitz_conv_matrix
from .power import checked_total, solve_fixed_point
from .sinr import Coupling, coupling_terms

_VARIANTS = ("proposed", "young")


@dataclass(frozen=True)
class WorstCaseExtrema:
    """Best-found extrema of the true response functionals over the error set."""

    max_energy: float
    min_central: float


def _check_psi(psi):
    psi = float(psi)
    if not 0.0 <= psi < 1.0:
        raise ValueError(f"error fraction must lie in [0, 1), got {psi}")
    return psi


def _ball(h_hat, psi):
    """Centers c_i (..., L) and radii r_i (...) of the true-channel balls."""
    scale = 1.0 / (1.0 - psi)
    radii = (np.sqrt(psi) * scale) * np.linalg.norm(h_hat, axis=-1)
    return h_hat * scale, radii


def _ball_bounds(g, h, psi):
    """Closed-form worst cases of every beam over every victim's ball.

    g (M, K, L) holds the filters and h (M, V, L) the estimated channels
    of the V victim users. Returns (energy, isi, floor), each (V, K): beam
    k's ceiling on its response energy at victim v, the same ceiling off
    the central tap, and the floor on its central-tap power there.
    """
    taps = g.shape[-1]
    G = toeplitz_conv_matrix(g)
    off = G.copy()
    off[..., taps - 1, :] = 0.0
    # spectral norms of every G_i and of G_i without its central row
    sv = np.linalg.svd(np.stack([G, off]), compute_uv=False)[..., 0]
    centers, radii = _ball(h, psi)
    radii = radii.T
    resp = responses(g, centers)
    central = np.abs(resp[..., taps - 1])
    energy = (np.linalg.norm(resp, axis=-1) + radii @ sv[0]) ** 2
    resp[..., taps - 1] = 0.0
    isi = (np.linalg.norm(resp, axis=-1) + radii @ sv[1]) ** 2
    # ||a_i|| = ||g_i||: the central row is the filter reversed
    floor = np.maximum(0.0, central - radii @ np.linalg.norm(g, axis=-1)) ** 2
    return energy, isi, floor


def _young(g, h, psi):
    """Norm-product ceilings (V, K) of beams g (M, K, L) at channels h (M, V, L).

    Per antenna the convolution 2-norm is at most ||g||_1 ||h||_2, the
    per-antenna amplitudes add, and the largest channel norm the error set
    admits is ||h_hat|| / (1 - sqrt(psi)).
    """
    amp = np.sum(np.linalg.norm(h, axis=-1)[:, :, None]
                 * np.sum(np.abs(g), axis=-1)[:, None, :], axis=0)
    return (amp / (1.0 - float(np.sqrt(psi)))) ** 2


def link_bounds(g_hat, h_hat, psi):
    """(young, proposed, floor) of one link's filters and channel, each (M, L).

    The two ceilings on the link's total response energy and the exact
    central-tap floor, as the module docstring states them; proposed is
    never above young. A positive floor is attained at the boundary
    channels c_i - (r_i / ||a_i||) e^{j arg sum a^T c} conj(a_i). Transmit
    power multiplies these unit-power values at the call site.
    """
    psi = _check_psi(psi)
    g = np.asarray(g_hat, dtype=complex)[:, None, :]
    h = np.asarray(h_hat, dtype=complex)[:, None, :]
    energy, _, floor = _ball_bounds(g, h, psi)
    return (float(_young(g, h, psi)[0, 0]), float(energy[0, 0]),
            float(floor[0, 0]))


def assemble_bounds(channels_est, g_hat, psi, p_tol, noise, variant="proposed"):
    """Worst-case single-tier Coupling for the femto allocation.

    channels_est holds the estimated CIR set and g_hat the TR filters built
    from it; variant picks the interference ceiling family. Both share the
    exact signal floor. `proposed` ceilings the ISI directly; `young`
    ceilings the whole own-link energy and leaves the floor's share of it
    as ISI. psi = 0 gives the TR beams' exact single-tier Coupling, so
    solve_robust of it is the non-robust femto design.
    """
    psi = _check_psi(psi)
    if variant not in _VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}")
    if float(p_tol) < 0.0 or float(noise) < 0.0:
        raise ValueError("tolerated interference and noise must be nonnegative")
    h = channels_est.h1
    g = np.asarray(g_hat, dtype=complex)
    if psi == 0.0:
        return Coupling.from_energy(*coupling_terms(g, h, channels_est.taps))
    energy, isi, floor = _ball_bounds(g, h, psi)
    pl = np.diagonal(floor)
    if variant == "proposed":
        ceiling, pu_isi = energy, np.diagonal(isi)
    else:
        ceiling = _young(g, h, psi)
        pu_isi = np.diagonal(ceiling) - pl
    np.fill_diagonal(ceiling, 0.0)
    return Coupling(pl, pu_isi, ceiling)


def solve_robust(bounds, gamma_f, p_tol, noise):
    """Minimal femto powers meeting every worst-case SINR constraint.

    The exact-CSI femto solve over a floor/ceiling stack; at the solution
    every worst-case constraint holds with equality. Raises
    InfeasibleError("robust") when no power meets them, or when the powers
    fit in a double but their total does not.
    """
    p = solve_fixed_point(bounds, gamma_f, p_tol + noise, "robust")
    checked_total("robust", p)
    return p


def _error_ball(h_hat, psi):
    """Each antenna's ball ||e||^2 <= psi ||h_hat - e||^2, stated apart from
    _ball: center -psi/(1-psi) h_hat, radius sqrt(psi) ||h_hat|| / (1-psi)."""
    center = -(psi / (1.0 - psi)) * h_hat
    radius = float(np.sqrt(psi)) * np.linalg.norm(h_hat, axis=-1) / (1.0 - psi)
    return center, radius


def _unit(v):
    """v scaled to unit norm along its last axis; zero rows stay zero."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(n > 0.0, n, 1.0)


def _project_errors(e, h_hat, psi):
    """Pull each antenna's error back onto its admissible ball."""
    center, radius = _error_ball(h_hat, psi)
    dev = e - center
    outside = np.linalg.norm(dev, axis=-1, keepdims=True) > radius[..., None]
    return np.where(outside, center + radius[..., None] * _unit(dev), e)


_STARTS = 8
_STEPS = 20


def worst_case_oracle(g_hat, h_hat, psi, rng=None):
    """Searched extrema of the true response functionals over the error set.

    Maximizes total response energy and minimizes central-tap power over
    true channels h = h_hat - e, ||e||^2 <= psi ||h||^2 per antenna, by
    _STEPS fixed steps from _STARTS boundary starts: the first along the
    estimate, the rest random from rng. A maximum step moves each error to
    the maximizer of the linearized energy on its ball, which never lowers
    the convex energy. A minimum step on |a^T h|^2, a the stacked central
    row, is a gradient step of size 1/L, L = 2||a||^2, projected onto the
    balls, which never raises it. Best-found values, no certificate.
    """
    psi = _check_psi(psi)
    h = np.asarray(h_hat, dtype=complex)
    m, taps = h.shape
    # [G_1 ... G_M]: the response at stacked channels x is stacked @ x
    stacked = np.concatenate(
        toeplitz_conv_matrix(np.asarray(g_hat, dtype=complex)), axis=1)
    central = stacked[taps - 1]
    center, radius = _error_ball(h, psi)
    rng = np.random.default_rng(0) if rng is None else rng
    z = rng.standard_normal((2, _STARTS - 1, m, taps))
    reach = radius[:, None] * _unit(np.concatenate([h[None], z[0] + 1j * z[1]]))

    e = center - reach  # the first start has the largest channel norms
    for _ in range(_STEPS):
        resp = (h - e).reshape(_STARTS, -1) @ stacked.T
        grad = (resp @ stacked.conj()).reshape(e.shape)
        e = center - radius[:, None] * _unit(grad)
    resp = (h - e).reshape(_STARTS, -1) @ stacked.T
    max_energy = np.max(np.sum(np.abs(resp) ** 2, axis=1))

    step = np.linalg.pinv(central[None])[:, 0]  # conj(a) / ||a||^2, or 0
    e = center + reach  # the first start has the smallest channel norms
    for _ in range(_STEPS):
        amp = (h - e).reshape(_STARTS, -1) @ central
        e = _project_errors(e + np.outer(amp, step).reshape(e.shape), h, psi)
    min_central = np.min(np.abs((h - e).reshape(_STARTS, -1) @ central) ** 2)
    return WorstCaseExtrema(float(max_energy), float(min_central))


def _ball_steps(h_hat, psi, rng, count):
    """Real steps (count, M, 2L) from each antenna's ball center to its draws.

    Antenna by antenna, a standard normal block z (count, 2, L), real taps
    then imaginary, and then count uniform radius fractions u give the
    steps r_i u^(1/2L) z / ||z||, laid out real taps then imaginary; draw p
    sits at c_i minus step p read as complex. psi = 0 reads nothing from
    rng, and every step is zero.
    """
    m, taps = h_hat.shape
    if psi == 0.0:
        return np.zeros((count, m, 2 * taps))
    _, radii = _ball(h_hat, psi)
    steps = np.empty((count, m, 2 * taps))
    z = np.empty((count, 2 * taps))
    for i in range(m):
        rng.standard_normal(out=z)  # the (count, 2, L) block, flat
        scale = radii[i] * rng.random(count) ** (1.0 / (2 * taps))
        scale /= np.sqrt(np.einsum("pl,pl->p", z, z))
        np.multiply(z, scale[:, None], out=steps[:, i, :])
    return steps


def sample_true_channels(h_hat, psi, rng, count):
    """Draw count true channels (count, M, L), uniform over the product of balls.

    Antenna by antenna, a standard normal direction and then a uniform
    radius fraction u place each draw at c_i - r_i u^(1/2L) dir (the steps
    of _ball_steps); psi = 0 returns the estimate and reads nothing from
    rng.
    """
    psi = _check_psi(psi)
    h = np.asarray(h_hat, dtype=complex)
    count = int(count)
    if count < 1:
        raise ValueError("count must be a positive integer")
    taps = h.shape[-1]
    centers, _ = _ball(h, psi)
    steps = _ball_steps(h, psi, rng, count)
    return centers - (steps[..., :taps] + 1j * steps[..., taps:])
