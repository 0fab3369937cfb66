"""Power allocation for both tiers.

Femto tier: the SINR constraints with the tolerated cross-tier level form
a linear fixed-point system p >= D B p + D z whose minimal solution is the
matrix-inverse closed form; the cross-interference actually caused is then
reported to the macro tier as N0 scalars.

Macro tier: with the report in hand, each user's problem decouples into
minimize p subject to p/(delta p + nabla) >= gamma and caps p <= p_tol,
whose optimum is the closed form gamma nabla/(1 - gamma delta) whenever it
meets the tightest cap.

Centralized reference: all N0+N1 SINR constraints stacked into one linear
fixed point, solved exactly; it lower-bounds the two-step scheme's power.
"""

from dataclasses import dataclass

import numpy as np

from .beamform import design_beamformers
from .errors import InfeasibleError, NumericalError
from .linops import spectral_radius
from .sinr import couple, femto_coupling, macro_coupling, sinr


@dataclass(frozen=True)
class FemtoLp:
    """Coefficients of the femto-tier fixed-point problem.

    b_matrix rows are victims: b[j, j'] couples user j' power into user j's
    constraint. z holds the raw tolerated-plus-noise watts; the gamma/phi
    diagonal (d_diag) multiplies it inside the solve.
    """

    eta_hat: np.ndarray
    eta: np.ndarray
    b_matrix: np.ndarray
    d_diag: np.ndarray
    phi: np.ndarray
    z: np.ndarray
    rho: float


@dataclass(frozen=True)
class MacroStats:
    """Second item of solve_macro's result.

    The closed form takes no iterations; the field stays because
    perfbench/spans.py reads result[1].iterations.
    """

    iterations: int = 0


@dataclass(frozen=True)
class AllocationResult:
    """Joint outcome of one realization's power allocation."""

    p0: np.ndarray
    p1: np.ndarray
    sinr_mu: np.ndarray
    sinr_fu: np.ndarray
    cross_report: np.ndarray
    total_power: float
    feasible: bool


def _femto_coefficients(coupling):
    """Per-unit-power (signal, isi, co-matrix) coefficients for the femto tier."""
    cols = coupling.femto
    sig = coupling.signal[cols].copy()
    B = coupling.energy[coupling.n0:, cols].copy()
    isi = np.diagonal(B) - sig
    np.fill_diagonal(B, 0.0)
    return sig, isi, B


def _femto_leakage(coupling):
    """Per-unit-power energy each TR beam leaks onto all MUs together."""
    leak = np.zeros(coupling.n1)
    for row in coupling.energy[:coupling.n0, coupling.femto]:
        leak += row
    return leak


def build_femto_lp(channels, g, gamma_f, p_tol, noise, coupling=None):
    """Assemble the femto fixed-point coefficients for TR beams g.

    coupling, when given, must have been built from g (alone or with the
    ZF beams; see Coupling.require); otherwise it is built from channels
    and g.
    """
    if coupling is None:
        coupling = femto_coupling(channels, g, channels.taps)
    coupling.require(g=g)
    N = coupling.n1
    gamma = np.broadcast_to(np.asarray(gamma_f, dtype=float), (N,))
    sig, isi, B = _femto_coefficients(coupling)
    phi = sig - gamma * isi
    if (phi <= 0.0).any():
        bad = int(np.argmin(phi))
        raise InfeasibleError(
            "femto",
            f"SINR target unreachable at any power for user {bad} "
            f"(phi={phi[bad]:.3e})",
        )
    eta_hat = _femto_leakage(coupling)
    nrm = float(np.linalg.norm(eta_hat))
    eta = eta_hat / nrm if nrm > 0.0 else eta_hat.copy()
    d = gamma / phi
    z = np.full(N, p_tol + noise)
    rho = spectral_radius(d[:, None] * B)
    return FemtoLp(eta_hat=eta_hat, eta=eta, b_matrix=B, d_diag=d, phi=phi,
                   z=z, rho=rho)


def _solve_interference_lp(d_diag, b_matrix, z):
    """Minimal solution of p >= D(Bp + z): the exact fixed point (I-DB)^-1 Dz."""
    n = z.shape[0]
    A = np.eye(n) - d_diag[:, None] * b_matrix
    p = np.linalg.solve(A, d_diag * z)
    if not np.all(np.isfinite(p)) or (p < 0.0).any():
        raise NumericalError(f"interference fixed point produced {p}")
    return p


def solve_femto(lp):
    """Minimal femto powers meeting every FU SINR constraint with equality."""
    if lp.rho >= 1.0:
        raise InfeasibleError(
            "femto", f"iteration matrix spectral radius {lp.rho:.6f} >= 1")
    return _solve_interference_lp(lp.d_diag, lp.b_matrix, lp.z)


def cross_report(channels, g, p1, coupling=None):
    """Cross-tier interference each MU receives from the femto allocation.

    These N0 scalars are the only femto-side quantities the macro tier
    sees. coupling is as in build_femto_lp.
    """
    if coupling is None:
        coupling = femto_coupling(channels, g, channels.taps)
    coupling.require(g=g)
    out = np.zeros(coupling.n0)
    energy = coupling.energy[:coupling.n0, coupling.femto]
    for j in range(coupling.n1):
        out += p1[j] * energy[:, j]
    return out


def macro_coefficients(channels, u, alpha, cross_star, noise, coupling=None):
    """(delta, nabla, caps) for the macro tier, normalized by main-tap power.

    delta collects own-ISI plus leakage onto the other MUs' channels (the
    uplink-dual co-tier term); nabla carries the reported cross power plus
    noise; caps[n, j] is the per-unit-power interference each MU's beam
    inflicts on FU j. Own-ISI is clamped at zero: for an exact ZF beam it
    is zero, and rounding can leave it a few ulp below. coupling, when
    given, must have been built from u and alpha (alone or with the TR
    beams); otherwise it is built from them.
    """
    if coupling is None:
        coupling = macro_coupling(channels, u, alpha)
    coupling.require(u=u, alpha=alpha)
    N0 = coupling.n0
    energy = coupling.energy[:, coupling.macro]
    delta = np.zeros(N0)
    nabla = np.zeros(N0)
    for n in range(N0):
        s = coupling.signal[n]
        if s == 0.0:
            raise InfeasibleError("macro", f"zero main tap for user {n}")
        own_isi = max(energy[n, n] - s, 0.0)
        leak = 0.0
        for n2 in range(N0):
            if n2 != n:
                leak += energy[n2, n]
        delta[n] = (own_isi + leak) / s
        nabla[n] = (cross_star[n] + noise) / s
    caps = energy[N0:].T.copy()
    return delta, nabla, caps


def macro_powers(delta, nabla, gamma, caps_i, p_tol):
    """Closed-form macro powers, batched over leading axes.

    delta, nabla: (..., N) nonnegative; gamma broadcastable to (..., N);
    caps_i: (..., N, J) per-pair interference coefficients (J may be 0);
    p_tol: scalar cap in watts.

    Returns (p, feasible), feasible a boolean mask shaped like p. Feasible
    entries carry gamma*nabla/(1 - gamma*delta). Infeasible ones, whose
    SINR target is unreachable or whose demand exceeds the tightest cap,
    carry the largest power that cap admits (inf when no finite cap
    exists).
    """
    delta = np.asarray(delta, dtype=float)
    nabla = np.asarray(nabla, dtype=float)
    if (delta < 0).any() or (nabla <= 0).any():
        raise ValueError("delta must be >= 0 and nabla > 0")
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), delta.shape)
    caps_i = np.asarray(caps_i, dtype=float)
    if caps_i.ndim == delta.ndim:  # single cap column
        caps_i = caps_i[..., None]
    cap = np.where(caps_i > 0.0, p_tol / np.where(caps_i > 0.0, caps_i, 1.0),
                   np.inf).min(axis=-1, initial=np.inf)
    unreachable = gamma * delta >= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        p_min = np.where(unreachable, np.inf,
                         gamma * nabla / (1.0 - gamma * delta))
    feasible = ~(unreachable | (p_min > cap * (1.0 + 1e-12)))
    return np.where(feasible, p_min, cap), feasible


def solve_macro(channels, u, alpha, gamma_m, p_tol, cross_star, noise,
                coupling=None):
    """Macro powers for fixed ZF beams and a femto cross report.

    Returns (p, MacroStats()). Raises InfeasibleError naming the violated
    cap (or the unreachable SINR target); the error detail carries the
    capped power. coupling is as in macro_coefficients.
    """
    delta, nabla, caps = macro_coefficients(channels, u, alpha, cross_star,
                                            noise, coupling)
    gamma = np.broadcast_to(np.asarray(gamma_m, dtype=float), delta.shape)
    p, feasible = macro_powers(delta, nabla, gamma, caps, p_tol)
    if not feasible.all():
        n = int(np.argmax(~feasible))
        if gamma[n] * delta[n] >= 1.0:
            raise InfeasibleError(
                "macro", f"SINR target unreachable for user {n} "
                f"(gamma*delta = {gamma[n] * delta[n]:.4f})")
        j = int(np.argmax(caps[n]))
        raise InfeasibleError(
            "macro",
            f"user {n} needs {gamma[n] * nabla[n] / (1 - gamma[n] * delta[n]):.3e} W "
            f"but cap {j} limits it to {p[n]:.3e} W")
    achieved = 1.0 / (delta + nabla / p)
    if (achieved < gamma * (1.0 - 1e-5)).any():
        raise NumericalError("macro solution violates an SINR constraint")
    if caps.size and (caps * p[:, None] > p_tol * (1.0 + 1e-6)).any():
        raise NumericalError("macro solution violates an interference cap")
    return p, MacroStats()


def _centralized_system(coupling, gamma_m, gamma_f, noise):
    """Stacked (I - F) p = v coefficients over MUs then FUs.

    coupling must hold every beam (sinr.couple).
    """
    N0, N1 = coupling.n0, coupling.n1
    gam = np.concatenate([
        np.broadcast_to(np.asarray(gamma_m, dtype=float), (N0,)),
        np.broadcast_to(np.asarray(gamma_f, dtype=float), (N1,)),
    ])
    sig = coupling.signal
    coup = coupling.energy.copy()
    own_isi = np.diagonal(coup) - sig
    np.fill_diagonal(coup, 0.0)
    phi = sig - gam * own_isi
    if (phi <= 0.0).any():
        bad = int(np.argmin(phi))
        raise InfeasibleError(
            "centralized", f"SINR target unreachable for stacked user {bad}")
    F = (gam / phi)[:, None] * coup
    v = gam * noise / phi
    return F, v


def _sinrs(coupling, p0, p1, noise, cross_override=None):
    """Per-user SINRs (MUs, FUs) under the given powers."""
    sinr_mu = np.array([sinr(coupling.breakdown(n, p0, p1, noise))
                        for n in range(coupling.n0)])
    sinr_fu = np.array([
        sinr(coupling.breakdown(coupling.n0 + j, p0, p1, noise,
                                cross_override))
        for j in range(coupling.n1)])
    return sinr_mu, sinr_fu


def solve_centralized(channels, beams, gamma_m, gamma_f, noise,
                      coupling=None):
    """Joint minimal-power allocation with every SINR constraint stacked.

    coupling, when given, must be couple(channels, beams) for these very
    beams.
    """
    if coupling is None:
        coupling = couple(channels, beams)
    coupling.require(u=beams.u, alpha=beams.alpha, g=beams.g)
    N0 = coupling.n0
    F, v = _centralized_system(coupling, gamma_m, gamma_f, noise)
    rho = spectral_radius(F)
    if rho >= 1.0:
        raise InfeasibleError(
            "centralized", f"coupling spectral radius {rho:.6f} >= 1")
    p = _solve_interference_lp(np.ones_like(v), F, v)
    p0, p1 = p[:N0], p[N0:]
    sinr_mu, sinr_fu = _sinrs(coupling, p0, p1, noise)
    return AllocationResult(
        p0=p0, p1=p1, sinr_mu=sinr_mu, sinr_fu=sinr_fu,
        cross_report=cross_report(channels, beams.g, p1, coupling),
        total_power=float(p.sum()), feasible=True)


def solve_proposed(channels, gamma_m, gamma_f, p_tol, noise, coupling=None):
    """Two-step allocation: femto solves and reports, then macro solves.

    The femto tier fixes TR beams and its own powers against the tolerated
    cross level, sends the N0 resulting interference scalars, and the macro
    tier solves its closed form against that report. The beams and their
    full coupling do not depend on the SINR targets, so a caller solving
    many targets on one realization passes
    couple(channels, design_beamformers(channels)) in once built; without
    it, both are built here. The beams are read from the coupling.
    """
    if coupling is None:
        coupling = couple(channels, design_beamformers(channels))
    beams = coupling.beams
    lp = build_femto_lp(channels, beams.g, gamma_f, p_tol, noise, coupling)
    p1 = solve_femto(lp)
    cross = cross_report(channels, beams.g, p1, coupling)
    p0, _ = solve_macro(channels, beams.u, beams.alpha, gamma_m, p_tol,
                        cross, noise, coupling)
    sinr_mu, sinr_fu = _sinrs(coupling, p0, p1, noise, cross_override=p_tol)
    return AllocationResult(
        p0=p0, p1=p1, sinr_mu=sinr_mu, sinr_fu=sinr_fu, cross_report=cross,
        total_power=float(p0.sum() + p1.sum()), feasible=True)
