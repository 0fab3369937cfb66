"""Worst-case robust femto design under norm-bounded channel error.

The femto tier knows its CIRs only through estimates. Each per-antenna
error e = h_hat - h is bounded against the true channel h,
||e||^2 <= psi ||h||^2, so the true channels antenna i admits form the
ball

    || h - c_i ||  <=  r_i,   c_i = h_hat_i / (1-psi),
                              r_i = sqrt(psi) ||h_hat_i|| / (1-psi).

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
admits. Either coefficient stack drops into the same fixed-point
allocation as the exact-CSI path. An empirical oracle extremizes the
true response functionals over the exact ball so the closed forms can be
audited instead of trusted.
"""

from dataclasses import dataclass

import numpy as np

from .channel import sample_true_given_estimate
from .linops import responses, toeplitz_conv_matrix
from .power import (
    _femto_coefficients,
    _solve_interference_lp,
    _target_margins,
)
from .sinr import Coupling, coupling_terms

_VARIANTS = ("proposed", "young")


@dataclass(frozen=True)
class RobustBounds:
    """Per-unit-power worst-case coefficient stack for the femto tier.

    Rows follow the victim convention of the exact-CSI path:
    pu_co_coeff[j, j2] ceilings user j2's leakage into user j's link.
    variant records which ceiling family filled the isi/co slots.
    """

    pl_sig_coeff: np.ndarray
    pu_isi_coeff: np.ndarray
    pu_co_coeff: np.ndarray
    psi: float
    variant: str


@dataclass(frozen=True)
class WorstCaseExtrema:
    """Best-found extrema of the true response functionals over the error set."""

    max_energy: float
    min_central: float
    probes: int


def _check_psi(psi):
    psi = float(psi)
    if not 0.0 <= psi < 1.0:
        raise ValueError(f"error fraction must lie in [0, 1), got {psi}")
    return psi


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
    scale = 1.0 / (1.0 - psi)
    radii = ((np.sqrt(psi) * scale) * np.linalg.norm(h, axis=-1)).T
    resp = responses(g, h * scale)
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


def _link(g_hat, h_hat):
    """One link's filters and channel as a single beam and victim."""
    return (np.asarray(g_hat, dtype=complex)[:, None, :],
            np.asarray(h_hat, dtype=complex)[:, None, :])


def worst_signal_lower(g_hat, h_hat, psi):
    """Exact floor on one link's central-tap signal coefficient.

    max(0, |sum_i a_i^T c_i| - sum_i r_i ||a_i||)^2 over the shifted
    balls; when positive it is attained at the boundary channels
    c_i - (r_i / ||a_i||) e^{j arg sum a^T c} conj(a_i).
    """
    psi = _check_psi(psi)
    return float(_ball_bounds(*_link(g_hat, h_hat), psi)[2][0, 0])


def young_upper(g_hat, h_hat, psi):
    """Norm-product ceiling on one link's total response energy.

    Transmit power multiplies this unit-power ceiling at the call site.
    """
    psi = _check_psi(psi)
    return float(_young(*_link(g_hat, h_hat), psi)[0, 0])


def proposed_upper(g_hat, h_hat, psi):
    """Shifted-ball ceiling on one link's total response energy.

    (||sum_i G_i c_i|| + sum_i r_i ||G_i||_2)^2; never above young_upper,
    since ||G_i||_2 <= ||g_i||_1 and ||c_i|| + r_i is the largest norm the
    ball admits.
    """
    psi = _check_psi(psi)
    return float(_ball_bounds(*_link(g_hat, h_hat), psi)[0][0, 0])


def assemble_bounds(channels_est, g_hat, psi, p_tol, noise, variant="proposed"):
    """Worst-case coefficient stack for the femto allocation.

    channels_est holds the estimated CIR set and g_hat the TR filters built
    from it; variant picks the interference ceiling family. Both share the
    exact signal floor. `proposed` ceilings the ISI directly; `young`
    ceilings the whole own-link energy and leaves the floor's share of it
    as ISI. psi = 0 gives the exact-CSI coefficients of the TR beams
    alone, so solve_robust of that stack is the non-robust femto design.
    """
    psi = _check_psi(psi)
    if variant not in _VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}")
    if float(p_tol) < 0.0 or float(noise) < 0.0:
        raise ValueError("tolerated interference and noise must be nonnegative")
    h = channels_est.h1
    g = np.asarray(g_hat, dtype=complex)
    if psi == 0.0:
        femto = Coupling(0, *coupling_terms(g, h, channels_est.taps))
        pl, pu_isi, pu_co = _femto_coefficients(femto)
        return RobustBounds(pl_sig_coeff=pl, pu_isi_coeff=pu_isi,
                            pu_co_coeff=pu_co, psi=psi, variant=variant)
    energy, isi, floor = _ball_bounds(g, h, psi)
    pl = np.diagonal(floor).copy()
    if variant == "proposed":
        ceiling = energy
        pu_isi = np.diagonal(isi).copy()
    else:
        ceiling = _young(g, h, psi)
        pu_isi = np.diagonal(ceiling) - pl
    pu_co = ceiling.copy()
    np.fill_diagonal(pu_co, 0.0)
    return RobustBounds(pl_sig_coeff=pl, pu_isi_coeff=pu_isi, pu_co_coeff=pu_co,
                        psi=psi, variant=variant)


def solve_robust(bounds, gamma_f, p_tol, noise):
    """Minimal femto powers meeting every worst-case SINR constraint.

    Same fixed-point structure as the exact-CSI solve, with the signal and
    interference coefficients swapped for their floor/ceiling counterparts;
    at the solution every worst-case constraint holds with equality.
    Raises InfeasibleError("robust") when no power meets them.
    """
    n = bounds.pl_sig_coeff.shape[0]
    gamma = np.broadcast_to(np.asarray(gamma_f, dtype=float), (n,))
    d, _ = _target_margins(gamma, bounds.pl_sig_coeff, bounds.pu_isi_coeff,
                           "robust")
    return _solve_interference_lp(d, bounds.pu_co_coeff,
                                  np.full(n, p_tol + noise), "robust")


def _project_errors(e, h_hat, psi):
    """Pull each antenna's error back onto its admissible shifted ball."""
    out = np.array(e, dtype=complex)
    for i in range(out.shape[0]):
        center = -(psi / (1.0 - psi)) * h_hat[i]
        radius = float(np.sqrt(psi)) * float(np.linalg.norm(h_hat[i])) / (1.0 - psi)
        dev = out[i] - center
        nd = float(np.linalg.norm(dev))
        if nd > radius:
            out[i] = center if radius == 0.0 else center + dev * (radius / nd)
    return out


def worst_case_oracle(g_hat, h_hat, psi, n_probes=2000, n_ascent=60, rng=None):
    """Empirical extrema of the true response functionals over the error set.

    Maximizes total response energy and minimizes central-tap power over
    true channels h = h_hat - e with ||e||^2 <= psi ||h||^2 per antenna.
    Candidate errors come from per-antenna direction sampling with the
    maximal admissible radius solved in closed form, plus the aligned and
    anti-aligned deterministic probes, and the incumbents are refined by
    projected gradient steps. Best-found values only, no certificate.
    """
    psi = _check_psi(psi)
    g = np.asarray(g_hat, dtype=complex)
    h = np.asarray(h_hat, dtype=complex)
    m, taps = h.shape
    mats = toeplitz_conv_matrix(g)
    central_rows = mats[:, taps - 1, :].copy()

    def energy_of(errors):
        resp = np.einsum("ikl,pil->pk", mats, h[None, :, :] - errors)
        return np.sum(np.abs(resp) ** 2, axis=1)

    def central_of(errors):
        amp = np.einsum("il,pil->p", central_rows, h[None, :, :] - errors)
        return np.abs(amp) ** 2

    if psi == 0.0:
        zero = np.zeros((1, m, taps), dtype=complex)
        return WorstCaseExtrema(max_energy=float(energy_of(zero)[0]),
                                min_central=float(central_of(zero)[0]), probes=1)

    if rng is None:
        rng = np.random.default_rng(0)
    sq = float(np.sqrt(psi))
    fixed = np.stack([np.zeros((m, taps), dtype=complex),
                      (-sq / (1.0 - sq)) * h,
                      (sq / (1.0 + sq)) * h])
    chunks = [fixed]
    if n_probes > 0:
        d = (rng.standard_normal((n_probes, m, taps))
             + 1j * rng.standard_normal((n_probes, m, taps)))
        nd = np.linalg.norm(d, axis=2, keepdims=True)
        nd[nd == 0.0] = 1.0
        d /= nd
        # largest radius along each direction: ||t d|| = sqrt(psi) ||h - t d||
        b = psi * np.real(np.einsum("il,pil->pi", h.conj(), d))
        a = 1.0 - psi
        c = psi * np.linalg.norm(h, axis=1) ** 2
        t = (-b + np.sqrt(b * b + a * c[None, :])) / a
        shrink = rng.uniform(size=(n_probes, m)) ** (1.0 / (2 * taps))
        shrink[rng.uniform(size=(n_probes, m)) < 0.5] = 1.0
        chunks.append(t[:, :, None] * shrink[:, :, None] * d)
    errors = np.concatenate(chunks, axis=0)
    en = energy_of(errors)
    ce = central_of(errors)
    evaluations = errors.shape[0]

    def energy_cograd(e):
        resp = np.einsum("ikl,il->k", mats, h - e)
        return -np.einsum("ikl,k->il", mats.conj(), resp)

    def central_cograd(e):
        amp = complex(np.einsum("il,il->", central_rows, h - e))
        return -amp * central_rows.conj()

    scale = sq * float(np.linalg.norm(h)) / (1.0 - psi)

    def refine(e0, value_of, cograd_of, maximize):
        e = e0
        best = float(value_of(e[None])[0])
        step = 0.25 * scale
        used = 0
        for _ in range(n_ascent):
            gvec = cograd_of(e)
            ng = float(np.linalg.norm(gvec))
            if ng == 0.0 or step == 0.0:
                break
            sign = 1.0 if maximize else -1.0
            trial = _project_errors(e + (sign * step / ng) * gvec, h, psi)
            val = float(value_of(trial[None])[0])
            used += 1
            gain = val - best if maximize else best - val
            if gain > 0.0:
                e, best = trial, val
                step *= 1.5
            else:
                step *= 0.5
        return best, used

    best_max, used_max = refine(errors[int(en.argmax())].copy(),
                                energy_of, energy_cograd, maximize=True)
    best_min, used_min = refine(errors[int(ce.argmin())].copy(),
                                central_of, central_cograd, maximize=False)
    return WorstCaseExtrema(max_energy=max(best_max, float(en.max())),
                            min_central=min(best_min, float(ce.min())),
                            probes=evaluations + used_max + used_min)


def sample_true_channels(h_hat, psi, rng, count):
    """Draw count true channels h = h_hat - e, e uniform over the error set.

    Antennas are independent: each row's admissible errors form their own
    shifted ball, sampled uniformly (sample_true_given_estimate does the
    ball geometry). Returns (count, M, L).
    """
    psi = _check_psi(psi)
    h = np.asarray(h_hat, dtype=complex)
    count = int(count)
    if count < 1:
        raise ValueError("count must be a positive integer")
    return np.stack([sample_true_given_estimate(h[i], psi, rng, count)
                     for i in range(h.shape[0])], axis=1)
