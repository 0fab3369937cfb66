"""Power allocation for both tiers.

Femto tier: with the tolerated cross-tier level, the FU SINR constraints
form a linear fixed point whose minimal solution is the matrix-inverse
closed form; the cross-interference actually caused is then reported to
the macro tier as N0 scalars.

Macro tier: with the report in hand, each user's problem decouples into
minimize p subject to p/(delta p + nabla) >= gamma and caps p <= p_tol,
nabla = z/s and delta = isi/s for main-tap power s, z = cross + noise and
isi = own ISI + leakage. Its optimum gamma nabla/(1 - gamma delta) =
gamma z/(s - gamma isi) is the fixed point of a Coupling with no
co-channel coefficients, whenever it meets the caps.

Centralized reference: all N0+N1 SINR constraints stacked into one linear
fixed point, solved exactly; it lower-bounds the two-step scheme's power.

The femto, macro, robust (robust.solve_robust) and centralized designs
are one fixed point over one target-free sinr.Coupling: a realization's
exact coefficients (the FU block of them for the femto tier,
build_femto_lp, as views; the decoupled MU tier, macro_coefficients), or
floors and ceilings from robust.assemble_bounds. solve_fixed_point
applies the SINR target and solves it once, which is also the
feasibility test: with d = gamma/phi and phi the signal a unit of power
keeps above its own ISI, (I - d co) p = d z has a nonnegative solution
exactly when the spectral radius of d co is below one (the M-matrix
characterization), and that solution is then positive. The sign of the
solution is the certificate, so no eigenvalue is computed.

Every stage reads the beams through one sinr.Coupling and takes no beam
arrays, so a coupling cannot be paired with other beams.
"""

import math
from dataclasses import dataclass

import numpy as np

from .beamform import design_beamformers
from .errors import InfeasibleError, NumericalError
from .sinr import Coupling, couple, victim_sinrs


@dataclass(frozen=True)
class MacroStats:
    """Second item of solve_macro's result, read by perfbench/spans.py."""

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


def cross_report(coupling, p1, stage="macro"):
    """Cross-tier interference each MU receives from the femto allocation.

    These N0 scalars are the only femto-side quantities the macro tier
    sees. A report that overflows a double raises InfeasibleError(stage).
    """
    co = coupling.pu_co_coeff[:coupling.n0, coupling.femto]
    with np.errstate(over="ignore"):
        report = (co * p1).sum(axis=1)
    if not np.isfinite(report).all():
        raise InfeasibleError(stage, "the cross-tier report overflows a "
                              "double")
    return report


def macro_coefficients(coupling):
    """(tier, caps): the macro tier as a Coupling with no co-channel term.

    tier keeps each MU's main-tap power and, as its ISI, the beam's own ISI
    plus its leakage onto the other MUs' channels (the uplink-dual co-tier
    term); caps[n, j] is the per-unit-power interference MU n's beam
    inflicts on FU j. Own ISI is clamped at zero: for an exact ZF beam it
    is zero, and rounding can leave it a few ulp below.
    """
    n0, mu = coupling.n0, coupling.macro
    co = coupling.pu_co_coeff[:, mu]
    isi = np.maximum(coupling.pu_isi_coeff[mu], 0.0) + co[:n0].sum(axis=0)
    tier = Coupling(coupling.pl_sig_coeff[mu], isi, np.zeros((n0, n0)), n0)
    return tier, co[n0:].T


def solve_macro(coupling, gamma_m, p_tol, cross_star, noise):
    """Macro powers for coupling's ZF beams and a femto cross report.

    The decoupled tier (macro_coefficients) solved as a fixed point with
    z = cross_star + noise: each MU's least power gamma z/(s - gamma isi).
    Returns (p, MacroStats()). Raises InfeasibleError("macro") when
    solve_fixed_point does, or naming the cap a power exceeds.
    """
    tier, caps = macro_coefficients(coupling)
    z = np.asarray(cross_star, dtype=float) + noise
    p = solve_fixed_point(tier, gamma_m, z, "macro")
    worst = caps.max(axis=1, initial=0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        limit = np.where(worst > 0.0, p_tol / worst, np.inf)
        over = p > limit * (1.0 + 1e-12)
    if over.any():
        n = int(np.argmax(over))
        raise InfeasibleError(
            "macro", f"user {n} needs {p[n]:.3e} W but cap "
            f"{int(np.argmax(caps[n]))} limits it to {limit[n]:.3e} W")
    achieved = p * tier.pl_sig_coeff / (p * tier.pu_isi_coeff + z)
    if (achieved < gamma_m * (1.0 - 1e-5)).any():
        raise NumericalError("macro solution violates an SINR constraint")
    if caps.size and (caps * p[:, None] > p_tol * (1.0 + 1e-6)).any():
        raise NumericalError("macro solution violates an interference cap")
    return p, MacroStats()


def checked_total(stage, *powers):
    """Float total of finite power arrays; InfeasibleError(stage) when the
    powers fit in a double but their total does not."""
    with np.errstate(over="ignore"):
        total = float(sum(p.sum() for p in powers))
    if not math.isfinite(total):
        raise InfeasibleError(stage, "the total power overflows a double")
    return total


def solve_centralized(coupling, gamma_m, gamma_f, noise):
    """Joint minimal-power allocation with every SINR constraint stacked."""
    mu, fu = coupling.macro, coupling.femto
    gamma = np.concatenate([
        np.broadcast_to(np.asarray(gamma_m, dtype=float), (coupling.n0,)),
        np.broadcast_to(np.asarray(gamma_f, dtype=float), (coupling.n1,)),
    ])
    p = solve_fixed_point(coupling, gamma, noise, "centralized")
    total = checked_total("centralized", p)
    s = victim_sinrs(coupling, p, noise)
    return AllocationResult(
        p0=p[mu], p1=p[fu], sinr_mu=s[mu], sinr_fu=s[fu],
        cross_report=cross_report(coupling, p[fu], "centralized"),
        total_power=total)


def solve_proposed(channels, gamma_m, gamma_f, p_tol, noise, coupling=None):
    """Two-step allocation: femto solves and reports, then macro solves.

    The femto tier fixes TR beams and its own powers against the tolerated
    cross level, sends the N0 resulting interference scalars, and the macro
    tier solves its decoupled fixed point against that report; a total
    that overflows a double raises InfeasibleError("macro"). The beams and
    their full coupling do not depend on the SINR targets, so a caller
    solving many targets on one realization passes
    couple(channels, design_beamformers(channels)) in once built; channels
    is read only to build it when none is passed.
    """
    if coupling is None:
        coupling = couple(channels, design_beamformers(channels))
    p1 = solve_femto(build_femto_lp(coupling), gamma_f, p_tol, noise)
    cross = cross_report(coupling, p1)
    p0, _ = solve_macro(coupling, gamma_m, p_tol, cross, noise)
    total = checked_total("macro", p0, p1)
    s = victim_sinrs(coupling, np.concatenate([p0, p1]), noise,
                     cross_override=p_tol)
    return AllocationResult(
        p0=p0, p1=p1, sinr_mu=s[:coupling.n0], sinr_fu=s[coupling.n0:],
        cross_report=cross, total_power=total)
