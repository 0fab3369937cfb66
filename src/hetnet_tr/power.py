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

The femto, robust (robust.solve_robust) and centralized fixed points share
one solve, which is also their feasibility test: with DB >= 0 and Dz > 0,
(I - DB) p = Dz has a nonnegative solution exactly when the spectral
radius of DB is below one (the M-matrix characterization), and that
solution is then positive. The sign of the solution is the certificate,
so no eigenvalue is computed.

Every stage reads the beams through one sinr.Coupling and takes no beam
arrays, so a coupling cannot be paired with other beams.
"""

from dataclasses import dataclass

import numpy as np

from .beamform import design_beamformers
from .errors import InfeasibleError, NumericalError
from .sinr import couple, victim_sinrs


@dataclass(frozen=True)
class FemtoLp:
    """Coefficients of the femto-tier fixed-point problem.

    b_matrix rows are victim users: b[j, j'] couples user j' power into
    user j's constraint. z holds the raw tolerated-plus-noise watts; the
    gamma/phi diagonal (d_diag) multiplies it inside the solve.
    """

    b_matrix: np.ndarray
    d_diag: np.ndarray
    phi: np.ndarray
    z: np.ndarray


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


def _femto_coefficients(coupling):
    """Per-unit-power (signal, isi, co-matrix) coefficients for the femto tier."""
    fu = coupling.femto
    sig = coupling.signal[fu].copy()
    B = coupling.energy[fu, fu].copy()
    isi = np.diagonal(B) - sig
    np.fill_diagonal(B, 0.0)
    return sig, isi, B


def _target_margins(gamma, sig, isi, stage):
    """(d, phi) with phi = sig - gamma*isi and d = gamma/phi, per user.

    phi is the signal a unit of power keeps above its own ISI at the SINR
    target; where it is not positive no power meets the target, and
    InfeasibleError(stage) is raised.
    """
    phi = sig - gamma * isi
    if (phi <= 0.0).any():
        bad = int(np.argmin(phi))
        raise InfeasibleError(
            stage, f"SINR target unreachable at any power for user {bad} "
            f"(phi={phi[bad]:.3e})")
    return gamma / phi, phi


def build_femto_lp(coupling, gamma_f, p_tol, noise):
    """Assemble the femto fixed-point coefficients of coupling's TR beams."""
    N = coupling.n1
    gamma = np.broadcast_to(np.asarray(gamma_f, dtype=float), (N,))
    sig, isi, B = _femto_coefficients(coupling)
    d, phi = _target_margins(gamma, sig, isi, "femto")
    return FemtoLp(b_matrix=B, d_diag=d, phi=phi, z=np.full(N, p_tol + noise))


def _solve_interference_lp(d_diag, b_matrix, z, stage):
    """Minimal solution of p >= D(Bp + z): the exact fixed point (I-DB)^-1 Dz.

    DB must be nonnegative and Dz positive. The fixed point exists exactly
    when the solve returns a finite, positive p; a singular system or any
    other solution raises InfeasibleError(stage).
    """
    n = z.shape[0]
    A = np.eye(n) - d_diag[:, None] * b_matrix
    try:
        p = np.linalg.solve(A, d_diag * z)
    except np.linalg.LinAlgError:
        p = None
    if p is None or not (np.isfinite(p).all() and (p > 0.0).all()):
        raise InfeasibleError(
            stage, "no positive fixed point: coupling spectral radius >= 1")
    return p


def solve_femto(lp):
    """Minimal femto powers meeting every FU SINR constraint with equality."""
    return _solve_interference_lp(lp.d_diag, lp.b_matrix, lp.z, "femto")


def cross_report(coupling, p1):
    """Cross-tier interference each MU receives from the femto allocation.

    These N0 scalars are the only femto-side quantities the macro tier
    sees.
    """
    return (coupling.energy[:coupling.n0, coupling.femto] * p1).sum(axis=1)


def macro_coefficients(coupling, cross_star, noise):
    """(delta, nabla, caps) for the macro tier, normalized by main-tap power.

    delta collects own-ISI plus leakage onto the other MUs' channels (the
    uplink-dual co-tier term); nabla carries the reported cross power plus
    noise; caps[n, j] is the per-unit-power interference each MU's beam
    inflicts on FU j. Own-ISI is clamped at zero: for an exact ZF beam it
    is zero, and rounding can leave it a few ulp below.
    """
    N0 = coupling.n0
    energy = coupling.energy[:, coupling.macro]
    s = coupling.signal[coupling.macro]
    if (s == 0.0).any():
        raise InfeasibleError(
            "macro", f"zero main tap for user {int(np.argmin(s != 0.0))}")
    own_isi = np.maximum(np.diagonal(energy) - s, 0.0)
    leak = energy[:N0].copy()
    np.fill_diagonal(leak, 0.0)
    delta = (own_isi + leak.sum(axis=0)) / s
    nabla = (np.asarray(cross_star, dtype=float) + noise) / s
    return delta, nabla, energy[N0:].T.copy()


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


def solve_macro(coupling, gamma_m, p_tol, cross_star, noise):
    """Macro powers for coupling's ZF beams and a femto cross report.

    Returns (p, MacroStats()). Raises InfeasibleError naming the violated
    cap (or the unreachable SINR target); the error detail carries the
    capped power.
    """
    delta, nabla, caps = macro_coefficients(coupling, cross_star, noise)
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
    """Stacked (I - F) p = v coefficients over MUs then FUs."""
    N0, N1 = coupling.n0, coupling.n1
    gam = np.concatenate([
        np.broadcast_to(np.asarray(gamma_m, dtype=float), (N0,)),
        np.broadcast_to(np.asarray(gamma_f, dtype=float), (N1,)),
    ])
    sig = coupling.signal
    coup = coupling.energy.copy()
    own_isi = np.diagonal(coup) - sig
    np.fill_diagonal(coup, 0.0)
    d, phi = _target_margins(gam, sig, own_isi, "centralized")
    return d[:, None] * coup, gam * noise / phi


def solve_centralized(coupling, gamma_m, gamma_f, noise):
    """Joint minimal-power allocation with every SINR constraint stacked."""
    mu, fu = coupling.macro, coupling.femto
    F, v = _centralized_system(coupling, gamma_m, gamma_f, noise)
    p = _solve_interference_lp(np.ones_like(v), F, v, "centralized")
    s = victim_sinrs(coupling, p, noise)
    return AllocationResult(
        p0=p[mu], p1=p[fu], sinr_mu=s[mu], sinr_fu=s[fu],
        cross_report=cross_report(coupling, p[fu]),
        total_power=float(p.sum()))


def solve_proposed(channels, gamma_m, gamma_f, p_tol, noise, coupling=None):
    """Two-step allocation: femto solves and reports, then macro solves.

    The femto tier fixes TR beams and its own powers against the tolerated
    cross level, sends the N0 resulting interference scalars, and the macro
    tier solves its closed form against that report. The beams and their
    full coupling do not depend on the SINR targets, so a caller solving
    many targets on one realization passes
    couple(channels, design_beamformers(channels)) in once built; channels
    is read only to build it when none is passed.
    """
    if coupling is None:
        coupling = couple(channels, design_beamformers(channels))
    p1 = solve_femto(build_femto_lp(coupling, gamma_f, p_tol, noise))
    cross = cross_report(coupling, p1)
    p0, _ = solve_macro(coupling, gamma_m, p_tol, cross, noise)
    s = victim_sinrs(coupling, np.concatenate([p0, p1]), noise,
                     cross_override=p_tol)
    return AllocationResult(
        p0=p0, p1=p1, sinr_mu=s[:coupling.n0], sinr_fu=s[coupling.n0:],
        cross_report=cross, total_power=float(p0.sum() + p1.sum()))
