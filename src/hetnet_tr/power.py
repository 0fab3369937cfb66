"""Power allocation for both tiers.

Femto tier: with the tolerated cross-tier level, the FU SINR constraints
form a linear fixed point whose minimal solution is the matrix-inverse
closed form; the cross-interference actually caused is then reported to
the macro tier as N0 scalars.

Macro tier: with the report in hand, each user's problem decouples into
minimize p subject to p/(delta p + nabla) >= gamma and caps p <= p_tol,
whose optimum is the closed form gamma nabla/(1 - gamma delta) whenever it
meets the tightest cap.

Centralized reference: all N0+N1 SINR constraints stacked into one linear
fixed point, solved exactly; it lower-bounds the two-step scheme's power.

The femto, robust (robust.solve_robust) and centralized designs are one
fixed point over one target-free sinr.Coupling: a realization's exact
coefficients (the FU block of them for the femto tier, build_femto_lp,
as views), or floors and ceilings from robust.assemble_bounds.
solve_fixed_point applies the SINR target and solves it once, which is
also the feasibility test: with d = gamma/phi and phi the signal a unit
of power keeps above its own ISI, (I - d co) p = d z has a nonnegative
solution exactly when the spectral radius of d co is below one (the
M-matrix characterization), and that solution is then positive. The sign
of the solution is the certificate, so no eigenvalue is computed.

Every stage reads the beams through one sinr.Coupling and takes no beam
arrays, so a coupling cannot be paired with other beams.
"""

from dataclasses import dataclass

import numpy as np

from .beamform import design_beamformers
from .errors import InfeasibleError, NumericalError
from .sinr import Coupling, couple, victim_sinrs


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


def build_femto_lp(coupling):
    """Single-tier Coupling of coupling's FUs and TR beams, as views."""
    fu = coupling.femto
    return Coupling(coupling.pl_sig_coeff[fu], coupling.pu_isi_coeff[fu],
                    coupling.pu_co_coeff[fu, fu])


def solve_fixed_point(stack, gamma, z, stage):
    """Minimal powers meeting every target of a Coupling with equality.

    gamma (the SINR targets) and z (the interference-plus-noise watts no
    power controls) broadcast over the users. With phi = sig - gamma*isi
    and d = gamma/phi, the powers are the fixed point (I - d co) p = d z.
    Where phi is not positive no power meets the target; otherwise the
    fixed point exists exactly when the solve returns a finite, positive
    p. Either failure, a singular system, or a system whose coefficients
    or noise-only powers d*z overflow a double raises
    InfeasibleError(stage).
    """
    sig = stack.pl_sig_coeff
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), sig.shape)
    phi = sig - gamma * stack.pu_isi_coeff
    if (phi <= 0.0).any():
        bad = int(np.argmin(phi))
        raise InfeasibleError(
            stage, f"SINR target unreachable at any power for user {bad} "
            f"(phi={phi[bad]:.3e})")
    with np.errstate(over="ignore", invalid="ignore"):
        d = gamma / phi
        A = np.eye(sig.size) - d[:, None] * stack.pu_co_coeff
        floor = d * z  # the power each user needs against z alone
    try:
        p = np.linalg.solve(A, floor)
    except np.linalg.LinAlgError:
        p = None
    if p is None or not (np.isfinite(p).all() and (p > 0.0).all()):
        if not (np.isfinite(floor).all() and np.isfinite(A).all()):
            raise InfeasibleError(stage,
                                  "the required power overflows a double")
        raise InfeasibleError(
            stage, "no positive fixed point: coupling spectral radius >= 1")
    return p


def solve_femto(stack, gamma_f, p_tol, noise):
    """Minimal femto powers meeting every FU SINR target against p_tol."""
    return solve_fixed_point(stack, gamma_f, p_tol + noise, "femto")


def cross_report(coupling, p1):
    """Cross-tier interference each MU receives from the femto allocation.

    These N0 scalars are the only femto-side quantities the macro tier
    sees.
    """
    co = coupling.pu_co_coeff[:coupling.n0, coupling.femto]
    return (co * p1).sum(axis=1)


def macro_coefficients(coupling, cross_star, noise):
    """(delta, nabla, caps) for the macro tier, normalized by main-tap power.

    delta collects own-ISI plus leakage onto the other MUs' channels (the
    uplink-dual co-tier term); nabla carries the reported cross power plus
    noise; caps[n, j] is the per-unit-power interference each MU's beam
    inflicts on FU j. Own-ISI is clamped at zero: for an exact ZF beam it
    is zero, and rounding can leave it a few ulp below.
    """
    N0, mu = coupling.n0, coupling.macro
    co = coupling.pu_co_coeff[:, mu]
    s = coupling.pl_sig_coeff[mu]
    if (s == 0.0).any():
        raise InfeasibleError(
            "macro", f"zero main tap for user {int(np.argmin(s != 0.0))}")
    own_isi = np.maximum(coupling.pu_isi_coeff[mu], 0.0)
    # an overflow is inf, which macro_powers reports infeasible
    with np.errstate(over="ignore"):
        delta = (own_isi + co[:N0].sum(axis=0)) / s
        nabla = (np.asarray(cross_star, dtype=float) + noise) / s
    return delta, nabla, co[N0:].T


def macro_powers(delta, nabla, gamma, caps_i, p_tol):
    """Closed-form macro powers, batched over leading axes.

    delta, nabla: (..., N) nonnegative; gamma broadcastable to (..., N);
    caps_i: (..., N, J) per-pair interference coefficients (J may be 0);
    p_tol: scalar cap in watts.

    Returns (p, feasible), feasible a boolean mask shaped like p. Feasible
    entries carry gamma*nabla/(1 - gamma*delta). Infeasible ones, whose
    SINR target is unreachable or whose demand overflows a double or
    exceeds the tightest cap, carry the largest power that cap admits
    (inf when no finite cap exists).
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_min = np.where(unreachable, np.inf,
                         gamma * nabla / (1.0 - gamma * delta))
    feasible = np.isfinite(p_min) & (p_min <= cap * (1.0 + 1e-12))
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
        with np.errstate(over="ignore"):
            need = gamma[n] * nabla[n] / (1 - gamma[n] * delta[n])
        if not np.isfinite(need):
            raise InfeasibleError(
                "macro", f"the required power of user {n} overflows a double")
        j = int(np.argmax(caps[n]))
        raise InfeasibleError(
            "macro", f"user {n} needs {need:.3e} W but cap {j} limits it to "
            f"{p[n]:.3e} W")
    achieved = 1.0 / (delta + nabla / p)
    if (achieved < gamma * (1.0 - 1e-5)).any():
        raise NumericalError("macro solution violates an SINR constraint")
    if caps.size and (caps * p[:, None] > p_tol * (1.0 + 1e-6)).any():
        raise NumericalError("macro solution violates an interference cap")
    return p, MacroStats()


def solve_centralized(coupling, gamma_m, gamma_f, noise):
    """Joint minimal-power allocation with every SINR constraint stacked."""
    mu, fu = coupling.macro, coupling.femto
    gamma = np.concatenate([
        np.broadcast_to(np.asarray(gamma_m, dtype=float), (coupling.n0,)),
        np.broadcast_to(np.asarray(gamma_f, dtype=float), (coupling.n1,)),
    ])
    p = solve_fixed_point(coupling, gamma, noise, "centralized")
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
    p1 = solve_femto(build_femto_lp(coupling), gamma_f, p_tol, noise)
    cross = cross_report(coupling, p1)
    p0, _ = solve_macro(coupling, gamma_m, p_tol, cross, noise)
    s = victim_sinrs(coupling, np.concatenate([p0, p1]), noise,
                     cross_override=p_tol)
    return AllocationResult(
        p0=p0, p1=p1, sinr_mu=s[:coupling.n0], sinr_fu=s[coupling.n0:],
        cross_report=cross, total_power=float(p0.sum() + p1.sum()))
