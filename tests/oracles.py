"""Reference implementations that only tests use.

The per-candidate zero-forcing path below is the loop the vectorized
selector in hetnet_tr.beamform replaced: it builds the stacked system
block by block, rebuilds it for every candidate and ranks it through
explicit convolutions, so the selector can be checked against arithmetic
it does not share.

The power oracles likewise avoid the solvers' arithmetic: the femto check
iterates the fixed point to convergence, and the macro check evaluates the
per-user closed form as nabla/(1/gamma - delta).

The channel oracle is the per-link loop that channel.draw_cirs replaced:
one generator call per (antenna, user) link, antenna outer, so it pins the
order in which a trial consumes its random stream.
"""

from dataclasses import dataclass, replace

import numpy as np

from hetnet_tr.beamform import _ZF_RESIDUAL_TOL, _unflatten, tr_beamformer_cirs
from hetnet_tr.channel import ChannelSet, get_profile
from hetnet_tr.errors import ConfigError, InfeasibleError, NumericalError
from hetnet_tr.linops import pseudo_inverse

PERTURB_MODES = ("worst_aligned", "worst_anti_aligned", "uniform_ball")
_DIVERGENCE_WINDOW = 1_000


@dataclass(frozen=True)
class KktCheck:
    """Per-user closed-form powers with infeasibility flags."""

    p: np.ndarray
    feasible: np.ndarray


def _radius_reaches_one(F, p):
    """Collatz-Wielandt certificate that the spectral radius of F >= 0 is >= 1.

    Some principal block F_SS with p_S > 0 and F_SS p_S >= p_S bounds
    rho(F) >= rho(F_SS) >= 1. Rows failing the inequality are dropped
    until the rest hold it or none is left.
    """
    rows = p > 0.0
    while rows.any():
        keep = rows & (F[:, rows] @ p[rows] >= p)
        if (keep == rows).all():
            return True
        rows = keep
    return False


def lp_fixed_point_oracle(F, v, tol=1e-12):
    """Iterate p <- F p + v from zero until every component converges.

    The iteration stops once each component's step is at most tol times
    that component, so a small component is resolved as finely as a
    large one. Every _DIVERGENCE_WINDOW steps the iterate is tested as a
    Collatz-Wielandt certificate of spectral radius >= 1, which detects
    divergence without computing eigenvalues and, unlike a growth test,
    never fires on the slow transient growth of a convergent non-normal F.
    """
    F = np.asarray(F, dtype=float)
    v = np.asarray(v, dtype=float)
    if (F < 0).any() or (v < 0).any():
        raise ValueError("fixed-point oracle needs nonnegative coefficients")
    p = np.zeros_like(v)
    for k in range(1, 10_000_000):
        p_next = F @ p + v
        if (np.abs(p_next - p) <= tol * np.abs(p_next)).all():
            return p_next
        p = p_next
        if k % _DIVERGENCE_WINDOW == 0 and _radius_reaches_one(F, p):
            raise NumericalError(
                f"fixed-point iteration diverging (largest component "
                f"{float(np.max(p)):.3e} after {k} steps)")
    raise NumericalError("fixed-point iteration exhausted its budget")


def macro_kkt_oracle(delta, nabla, gamma, caps):
    """Closed-form macro powers: p_n = nabla/(1/gamma - delta), cap-checked.

    Entries whose SINR target is unreachable (gamma*delta >= 1) or whose
    required power exceeds the cap are flagged infeasible and carry the
    cap value instead.
    """
    delta = np.asarray(delta, dtype=float)
    nabla = np.asarray(nabla, dtype=float)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), delta.shape)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), delta.shape)
    unreachable = gamma * delta >= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        demand = np.where(unreachable, np.inf,
                          nabla / (1.0 / gamma - delta))
    over = demand > caps * (1.0 + 1e-12)
    feasible = ~(unreachable | over)
    p = np.where(feasible, demand, np.where(np.isfinite(caps), caps, np.inf))
    return KktCheck(p=p, feasible=feasible)


@dataclass(frozen=True)
class ZfCandidate:
    """One (MU, tap) zero-forcing solution.

    filters: (M0, L) per-antenna taps, unit stacked norm.
    tap: 1-based target index in 1..2L-1.
    c: normalization scalar; the received target tap equals c.
    gamma: ranking ratio main/(isi + leakage + 1).
    """

    filters: np.ndarray
    tap: int
    c: float
    gamma: float


def sylvester_matrix(h_rows, L):
    """Banded (2L-1) x (M*L) matrix mapping stacked filter taps to received taps.

    h_rows holds L rows of width M; row l collects tap l of all M antenna
    CIRs. Block-column c (0-indexed) contains the row stack shifted down by
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


def stacked_system(h):
    """Per-MU banded blocks stacked; block n spans rows n*(2L-1)..(n+1)*(2L-1)."""
    M, N, L = h.shape
    return np.vstack([sylvester_matrix(h[:, n, :].T, L) for n in range(N)])


def _combined_response(filters, cirs):
    """Sum over antennas of filter-channel convolutions, length 2L-1."""
    return sum(np.convolve(filters[m], cirs[m]) for m in range(filters.shape[0]))


def zf_gamma_cirs(filters, h, n, tap):
    """Ranking ratio for a candidate: target-tap power over residual power.

    Residual = own off-target taps plus leakage onto every other MU's
    channel, plus 1 (unit-normalized noise placeholder used only to rank).
    """
    own = _combined_response(filters, h[:, n, :])
    main = abs(own[tap - 1]) ** 2
    isi = float(np.sum(np.abs(own) ** 2)) - main
    leak = 0.0
    for n2 in range(h.shape[1]):
        if n2 != n:
            leak += float(np.sum(np.abs(_combined_response(filters, h[:, n2, :])) ** 2))
    return main / (isi + leak + 1.0)


def zf_candidate_cirs(h, n, tap, pinv=None, strict=True):
    """Zero-forcing solution for MU n targeting the given 1-based tap.

    With strict=True a candidate whose selector falls outside the row
    space (stacked-system residual above 1e-6) raises InfeasibleError;
    strict=False keeps the least-squares solution.
    """
    M, N, L = h.shape
    bands = 2 * L - 1
    if not 1 <= tap <= bands:
        raise ValueError(f"tap must lie in 1..{bands}, got {tap}")
    H = stacked_system(h)
    P = pseudo_inverse(H) if pinv is None else pinv
    idx = n * bands + (tap - 1)
    w = P[:, idx].copy()
    if strict:
        r = H @ w
        r[idx] -= 1.0
        res = float(np.linalg.norm(r))
        if res > _ZF_RESIDUAL_TOL:
            raise InfeasibleError(
                "zf", f"tap {tap} unreachable for user {n} (residual {res:.2e})"
            )
    nw = float(np.linalg.norm(w))
    if nw == 0.0:
        raise InfeasibleError("zf", f"tap {tap} for user {n} has a zero solution")
    filters = _unflatten(w / nw, M, L)
    cand = ZfCandidate(filters=filters, tap=tap, c=1.0 / nw, gamma=0.0)
    return replace(cand, gamma=zf_gamma_cirs(filters, h, n, tap))


def zf_select_loop(h, strict=True):
    """Per-candidate selection: every tap of every user, largest ratio wins.

    Ties break toward the smallest tap. Same contract as
    beamform.zf_select_cirs.
    """
    M, N, L = h.shape
    P = pseudo_inverse(stacked_system(h))
    u = np.zeros((M, N, L), dtype=complex)
    alpha = np.zeros(N, dtype=int)
    for n in range(N):
        best = None
        for tap in range(1, 2 * L):
            try:
                cand = zf_candidate_cirs(h, n, tap, pinv=P, strict=strict)
            except InfeasibleError:
                continue
            if best is None or cand.gamma > best.gamma:
                best = cand
        if best is None:
            raise InfeasibleError("zf", f"no reachable tap for user {n}")
        u[:, n, :] = best.filters
        alpha[n] = best.tap
    return u, alpha


def zf_candidate(channels, n, alpha_bar):
    """ZF candidate for MU n of a channel set at 1-based tap alpha_bar."""
    return zf_candidate_cirs(channels.h0, n, alpha_bar)


def zf_gamma(candidate, channels, n):
    """Re-evaluate a candidate's ranking ratio against the macro channels."""
    return zf_gamma_cirs(candidate.filters, channels.h0, n, candidate.tap)


def tr_beamformer(channels, j):
    """TR filters (M1, L) for FU j of a channel set."""
    return tr_beamformer_cirs(channels.h1)[:, j, :]


def leakage_weights(coupling):
    """Unit-norm weights: the energy each TR beam leaks onto all MUs together.

    coupling must hold the TR beams; a zero leakage vector is returned
    as is.
    """
    leak = np.sum(coupling.pu_co_coeff[:coupling.n0, coupling.femto], axis=0)
    norm = float(np.linalg.norm(leak))
    return leak / norm if norm > 0.0 else leak


def _target_diag(stack, gamma):
    """d = gamma / (sig - gamma isi) of a Coupling, per user."""
    sig = stack.pl_sig_coeff
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), sig.shape)
    return gamma / (sig - gamma * stack.pu_isi_coeff)


def stack_system(stack, gamma, z):
    """(F, v) of a Coupling at targets gamma and uncontrolled watts z.

    p_j sig_j >= gamma_j (p_j isi_j + (co p)_j + z_j) rearranges to
    p >= F p + v with F = d co and v = d z (_target_diag), the form
    lp_fixed_point_oracle iterates.
    """
    d = _target_diag(stack, gamma)
    return d[:, None] * stack.pu_co_coeff, d * z


def weight_factored_powers(stack, gamma, z, eta):
    """Normalized-weight closed form; equals solve_femto / eta entrywise.

    Written with the weight diagonal factored through the Hadamard
    product, as an independent cross-check of the femto solve. Requires
    strictly positive weights eta (leakage_weights of the femto
    coupling, or any other positive vector).
    """
    if (eta <= 0.0).any():
        raise ValueError("weight form needs strictly positive weights")
    d = _target_diag(stack, gamma)
    E = np.diag(eta)
    had = stack.pu_co_coeff * (1.0 / eta)[:, None]
    M = E @ np.diag(d) @ had
    inner = np.linalg.solve(np.eye(d.shape[0]) - M, d * z)
    return np.linalg.solve(E, inner)


def perturb_cir(h_true, psi, mode, rng=None):
    """Return (h_est, e) with h_est = h_true + e and ||e||^2 <= psi*||h_true||^2.

    worst_anti_aligned: e = -sqrt(psi)*h (shrinks the estimate).
    worst_aligned:      e = +sqrt(psi)*h.
    uniform_ball:       e uniform in the ball of radius sqrt(psi)*||h||.
    """
    if not (0.0 <= psi < 1.0):
        raise ValueError(f"error factor must lie in [0, 1), got {psi}")
    if mode not in PERTURB_MODES:
        raise ValueError(f"unknown perturbation mode '{mode}'")
    h = np.asarray(h_true, dtype=complex)
    if psi == 0.0:
        return h.copy(), np.zeros_like(h)
    root = np.sqrt(psi)
    if mode == "worst_anti_aligned":
        e = -root * h
    elif mode == "worst_aligned":
        e = root * h
    else:
        dim = h.size
        z = rng.standard_normal((2, dim))
        direction = z[0] + 1j * z[1]
        direction /= np.linalg.norm(direction)
        radius = root * np.linalg.norm(h) * rng.random() ** (1.0 / (2 * dim))
        e = (radius * direction).reshape(h.shape)
    return h + e, e


def draw_cir(profile, distance, exponent, L, rng):
    """One CIR draw: tap l is CN(0, sigma_l^2 / distance^exponent)."""
    if distance <= 0.0:
        raise ValueError(f"link distance must be positive, got {distance}")
    if profile.n_taps > L:
        raise ValueError(
            f"profile '{profile.name}' has {profile.n_taps} taps, more than L={L}"
        )
    with np.errstate(over="ignore", divide="ignore"):
        loss = np.float64(distance) ** exponent
        var = profile.linear_powers / loss
    if not (0.0 < loss < np.inf and np.isfinite(var).all()):
        raise ConfigError(f"tap variance zero or not finite at {distance:g} "
                          f"m with path-loss exponent {exponent:g}")
    z = rng.standard_normal((2, profile.n_taps))
    taps = np.sqrt(var / 2.0) * (z[0] + 1j * z[1])
    if profile.n_taps < L:
        taps = np.concatenate([taps, np.zeros(L - profile.n_taps, dtype=complex)])
    return taps


# (group, profile, exponent field, antenna-count field, distance field),
# in draw order
_LINK_GROUPS = (
    ("h0", "vehicular", "exp_macro", "m0", "d_0n"),
    ("h1", "indoor_office", "exp_femto", "m1", "d_1j"),
    ("h10", "outdoor_to_indoor", "exp_cross", "m1", "d_10n"),
    ("h01", "outdoor_to_indoor", "exp_cross", "m0", "d_01j"),
)


def draw_channel_set_loop(config, geometry, rng):
    """All four link groups, one draw_cir call per (antenna, user) link."""
    groups = {}
    for name, key, exp_attr, tx_attr, dist_attr in _LINK_GROUPS:
        profile, exp = get_profile(key), getattr(config, exp_attr)
        groups[name] = np.array([
            [draw_cir(profile, d, exp, config.taps, rng)
             for d in getattr(geometry, dist_attr)]
            for _ in range(getattr(config, tx_attr))
        ])
    return ChannelSet(**groups)
