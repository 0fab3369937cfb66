"""Worst-case robust femto design under norm-bounded channel error.

The femto tier knows its CIRs only through estimates. Each per-antenna
error e is bounded against the true channel h, ||e||^2 <= psi ||h||^2,
which written around the estimate is a shifted ball:

    || e + psi/(1-psi) h_hat ||  <=  sqrt(psi) ||h_hat|| / (1-psi).

Signal power gets a closed-form floor, self- and co-channel interference
get closed-form ceilings, and the resulting coefficient stack drops into
the same fixed-point allocation as the exact-CSI path. Two ceiling
families are provided: a norm-product one (l1/l2 convolution inequality)
and a per-antenna extremal-direction one whose cross-antenna terms are
folded through a single absolute value. An empirical oracle extremizes
the true response functionals over the exact shifted ball so the closed
forms can be audited instead of trusted.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import sample_true_given_estimate
from .errors import InfeasibleError
from .linops import dominant_eigpair, spectral_radius, toeplitz_conv_matrix
from .power import _femto_coefficients, _femto_leakage, _solve_interference_lp
from .sinr import femto_coupling

# below this fraction of ||h_hat|| the estimate carries no usable phase
# reference and the extremal direction keeps a largest-entry phase instead
_PHASE_FLOOR = 1e-12

_VARIANTS = ("proposed", "young")


@dataclass(frozen=True)
class VirtualChannel:
    """Extremal channel of one antenna's response-energy quadratic."""

    h_star: np.ndarray
    phi_star: np.ndarray
    lam: float


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
    omega_coeff: np.ndarray
    young_norm: np.ndarray
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


def _margin(psi):
    """Norm shrink factor 1 - sqrt(psi); the set's largest norm is ||h_hat||/margin."""
    return 1.0 - float(np.sqrt(psi))


def worst_signal_lower(g_hat, h_hat, psi):
    """Central-tap signal coefficient floor used by the robust allocation.

    The estimated coefficient scaled by 1/(1-sqrt(psi))^2, attained exactly
    at the anti-aligned boundary error -sqrt(psi)/(1-sqrt(psi)) * h_hat.
    worst_case_oracle reports the empirical minimum of the same functional
    next to this closed form.
    """
    psi = _check_psi(psi)
    g = np.asarray(g_hat, dtype=complex)
    h = np.asarray(h_hat, dtype=complex)
    taps = h.shape[1]
    amp = complex(sum(np.convolve(g[i], h[i])[taps - 1] for i in range(g.shape[0])))
    return float(abs(amp) ** 2) / _margin(psi) ** 2


def young_upper(g_hat, h_hat, psi):
    """Norm-product ceiling on one link's total response energy.

    Per antenna the convolution 2-norm is at most ||g||_1 ||h||_2, the
    per-antenna amplitudes add, and the largest channel norm the error set
    admits is ||h_hat|| / (1 - sqrt(psi)). Squaring the amplitude sum gives
    the unit-power ceiling; transmit power multiplies it at the call site.
    """
    psi = _check_psi(psi)
    g = np.asarray(g_hat, dtype=complex)
    h = np.asarray(h_hat, dtype=complex)
    amp = sum(float(np.linalg.norm(h[i])) * float(np.sum(np.abs(g[i])))
              for i in range(g.shape[0]))
    return (amp / _margin(psi)) ** 2


def virtual_channel(g_hat_ij, h_hat_ij, psi, tol=1e-10):
    """Extremal channel of one antenna's response-energy quadratic.

    phi_star is the unit top eigenvector of G^H G for the estimate's banded
    convolution matrix G, the direction this filter amplifies most; h_star
    rescales it to the largest norm the error set admits, and lam is the
    response energy there (top eigenvalue of the scaled quadratic). The
    global phase is pinned so <h_hat, phi_star> is real and nonnegative,
    falling back to a largest-entry convention when the estimate is
    orthogonal to the direction, which keeps downstream cross-term
    magnitudes reproducible.
    """
    psi = _check_psi(psi)
    g = np.asarray(g_hat_ij, dtype=complex)
    h = np.asarray(h_hat_ij, dtype=complex)
    G = toeplitz_conv_matrix(g)
    nrm = float(np.linalg.norm(h))
    reach = nrm / _margin(psi)
    lam, phi = dominant_eigpair(G.conj().T @ G * reach ** 2, tol=tol)
    ip = complex(np.vdot(h, phi))
    if abs(ip) > _PHASE_FLOOR * nrm:
        phi = phi * (ip.conjugate() / abs(ip))
    else:
        k = int(np.argmax(np.abs(phi)))
        if abs(phi[k]) > 0.0:
            phi = phi * (phi[k].conjugate() / abs(phi[k]))
    return VirtualChannel(h_star=phi * reach, phi_star=phi, lam=float(lam))


def _extremal_responses(g_hat, h_hat, psi, tol=1e-10):
    """Per-antenna responses g_i * h_star_i, reduced to (energy sum, coherent cross)."""
    g = np.asarray(g_hat, dtype=complex)
    h = np.asarray(h_hat, dtype=complex)
    resp = np.array([
        np.convolve(g[i], virtual_channel(g[i], h[i], psi, tol=tol).h_star)
        for i in range(g.shape[0])
    ])
    energies = float(np.sum(np.abs(resp) ** 2))
    coherent = float(np.sum(np.abs(resp.sum(axis=0)) ** 2)) - energies
    return energies, coherent


def proposed_upper(g_hat, h_hat, psi):
    """Extremal-direction ceiling on one link's total response energy.

    Each antenna contributes its worst energy; the cross-antenna terms the
    per-antenna directions cannot certify are folded through one absolute
    value. Never exceeds young_upper, since each extremal response obeys
    the same norm product the other ceiling multiplies out.
    """
    energies, coherent = _extremal_responses(g_hat, h_hat, psi)
    return energies + abs(coherent)


def assemble_bounds(channels_est, g_hat, psi, p_tol, noise, variant="proposed"):
    """Worst-case coefficient stack for the femto allocation.

    channels_est holds the estimated CIR set and g_hat the TR filters built
    from it; variant picks the interference ceiling family. psi = 0
    reproduces the exact-CSI coefficients bit for bit so the downstream
    solve collapses onto the nominal path. A ceiling that lands below the
    signal floor is clamped to zero with a warning: the bound pair came
    from different extremal points and need not be ordered.
    """
    psi = _check_psi(psi)
    if variant not in _VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}")
    if float(p_tol) < 0.0 or float(noise) < 0.0:
        raise ValueError("tolerated interference and noise must be nonnegative")
    h1 = channels_est.h1
    h10 = channels_est.h10
    n1 = h1.shape[1]
    n0 = h10.shape[1]
    ceiling = proposed_upper if variant == "proposed" else young_upper
    young = np.array([
        young_upper(g_hat[:, j, :], h1[:, j, :], psi) for j in range(n1)
    ])
    if psi == 0.0:
        coupling = femto_coupling(channels_est, g_hat, channels_est.taps)
        pl, pu_isi, pu_co = _femto_coefficients(coupling)
        omega = _femto_leakage(coupling)
        return RobustBounds(pl_sig_coeff=pl, pu_isi_coeff=pu_isi,
                            pu_co_coeff=pu_co, omega_coeff=omega,
                            young_norm=young, psi=psi, variant=variant)
    pl = np.array([
        worst_signal_lower(g_hat[:, j, :], h1[:, j, :], psi) for j in range(n1)
    ])
    pu_isi = np.empty(n1)
    for j in range(n1):
        gap = ceiling(g_hat[:, j, :], h1[:, j, :], psi) - pl[j]
        if gap < 0.0:
            warnings.warn(
                f"interference ceiling fell below the signal floor for user {j}"
                f" (gap {gap:.3e}); clamping the isi coefficient to zero",
                RuntimeWarning, stacklevel=2)
            gap = 0.0
        pu_isi[j] = gap
    pu_co = np.zeros((n1, n1))
    for j in range(n1):
        for j2 in range(n1):
            if j2 != j:
                pu_co[j, j2] = ceiling(g_hat[:, j2, :], h1[:, j, :], psi)
    omega = np.zeros(n1)
    if variant == "proposed":
        for j in range(n1):
            energies = 0.0
            coherent = 0.0
            for n in range(n0):
                e_n, c_n = _extremal_responses(g_hat[:, j, :], h10[:, n, :], psi)
                energies += e_n
                coherent += c_n
            omega[j] = energies + abs(coherent)
    else:
        for j in range(n1):
            omega[j] = sum(
                young_upper(g_hat[:, j, :], h10[:, n, :], psi) for n in range(n0))
    return RobustBounds(pl_sig_coeff=pl, pu_isi_coeff=pu_isi, pu_co_coeff=pu_co,
                        omega_coeff=omega, young_norm=young, psi=psi,
                        variant=variant)


def solve_robust(bounds, gamma_f, p_tol, noise):
    """Minimal femto powers meeting every worst-case SINR constraint.

    Same fixed-point structure as the exact-CSI solve, with the signal and
    interference coefficients swapped for their floor/ceiling counterparts;
    at the solution every worst-case constraint holds with equality.
    """
    n = bounds.pl_sig_coeff.shape[0]
    gamma = np.broadcast_to(np.asarray(gamma_f, dtype=float), (n,))
    phi = bounds.pl_sig_coeff - gamma * bounds.pu_isi_coeff
    if (phi <= 0.0).any():
        bad = int(np.argmin(phi))
        raise InfeasibleError(
            "robust",
            f"worst-case SINR target unreachable at any power for user {bad} "
            f"(phi={phi[bad]:.3e})",
        )
    d = gamma / phi
    z = np.full(n, p_tol + noise)
    rho = spectral_radius(d[:, None] * bounds.pu_co_coeff)
    if rho >= 1.0:
        raise InfeasibleError(
            "robust", f"iteration matrix spectral radius {rho:.6f} >= 1")
    return _solve_interference_lp(d, bounds.pu_co_coeff, z)


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
    mats = np.stack([toeplitz_conv_matrix(g[i]) for i in range(m)])
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


def sample_true_channels(h_hat, psi, rng, count=None):
    """Draw true channels h = h_hat - e with e uniform over the error set.

    Antennas are independent: each row's admissible errors form their own
    shifted ball, sampled uniformly (sample_true_given_estimate does the
    ball geometry). Returns (count, M, L), or (M, L) when count is None.
    """
    psi = _check_psi(psi)
    h = np.asarray(h_hat, dtype=complex)
    k = 1 if count is None else int(count)
    if k < 1:
        raise ValueError("count must be a positive integer")
    rows = [sample_true_given_estimate(h[i], psi, rng, k)
            for i in range(h.shape[0])]
    true = np.stack(rows, axis=1)
    return true[0] if count is None else true
