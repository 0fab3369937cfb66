"""Output checks that recompute the program's results with their own math.

Nothing here calls the program's solvers, coefficient builders or
response helpers: responses are plain np.convolve sums, fixed points are
solved with np.linalg.solve, and error-ball draws come from this file's
own sampler and seed. The program supplies only its inputs (channel
draws) and the outputs under test (CSV cells, beams, allocations).

Every check raises CheckFailed with a message naming what disagreed.
"""

import csv
import math

import numpy as np

# relative slack on SINR targets the program meets with equality, and on
# powers from the same fixed point solved here and in the program: both
# carry rounding amplified by 1/(1 - spectral radius)
FEMTO_SLACK = 1e-7
SOLVE_RTOL = 1e-7
# the macro dual stops at |log SINR - log gamma| <= 1e-6
MACRO_SLACK = 1e-5
CAP_SLACK = 1e-6
# tolerance of the program's own zero-forcing residual test
ZF_TOL = 1e-6
# the program's outage counting slack
OUTAGE_SLACK = 1e-6
# closeness below which a feasibility verdict is left unjudged
TIE = 1e-9
# uniform draws per femto user in the error-ball coverage check
BALL_DRAWS = 2000
# salt of the error-ball sampler, apart from any seed the program sees
BALL_SALT = 0x0BA11


class CheckFailed(AssertionError):
    """A program output disagreed with the independent recomputation."""


def _fail(msg):
    raise CheckFailed(msg)


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# CSV structure and summaries

def read_csv(path):
    """(header, trial rows, summary rows); rows are dicts of floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        trials, summaries = [], []
        for cells in reader:
            if cells[0] not in ("trial", "summary"):
                _fail(f"unknown row kind {cells[0]!r}")
            row = {k: float(v) for k, v in zip(header[1:], cells[1:])}
            (trials if cells[0] == "trial" else summaries).append(row)
    return header, trials, summaries


def check_csv(path, sweep_keys, value_keys, points, trials):
    """Row count, header, and every summary row recomputed from trial rows.

    Returns the trial rows keyed by (trial, sweep tuple).
    """
    header, rows, summaries = read_csv(path)
    want = ["row", "trial", *sweep_keys, *value_keys, "feasible"]
    if header != want:
        _fail(f"CSV header {header} != {want}")
    if len(rows) != trials * len(points):
        _fail(f"{len(rows)} trial rows, expected {trials} x {len(points)}")
    if len(summaries) != len(points):
        _fail(f"{len(summaries)} summary rows, expected {len(points)}")
    keyed = {}
    for r in rows:
        key = (int(r["trial"]), tuple(r[k] for k in sweep_keys))
        if key in keyed:
            _fail(f"duplicate trial row {key}")
        if r["feasible"] not in (0.0, 1.0):
            _fail(f"feasible flag {r['feasible']} in row {key}")
        keyed[key] = r
    for pt, summ in zip(points, summaries):
        sweep = tuple(float(pt[k]) for k in sweep_keys)
        if tuple(summ[k] for k in sweep_keys) != sweep or summ["trial"] != -1:
            _fail(f"summary row out of order at {sweep}")
        group = [keyed.get((t, sweep)) for t in range(trials)]
        if any(r is None for r in group):
            _fail(f"missing trial rows at {sweep}")
        feas = [r for r in group if r["feasible"] == 1.0]
        if summ["feasible"] != len(feas) / len(group):
            _fail(f"feasible fraction {summ['feasible']} != "
                  f"{len(feas)}/{len(group)} at {sweep}")
        for k in value_keys:
            got = summ[k]
            if not feas:
                if not math.isnan(got):
                    _fail(f"summary {k} = {got} with no feasible row "
                          f"at {sweep}")
                continue
            vals = [r[k] for r in feas]
            mean = math.fsum(vals) / len(vals)
            if math.isnan(mean) != math.isnan(got) or (
                    not math.isnan(mean) and not close(got, mean, 1e-12)):
                _fail(f"summary {k} = {got}, recomputed {mean} at {sweep}")
    return keyed


# ---------------------------------------------------------------------------
# responses and coupling energies

def response(filters, cirs):
    """sum_m filters[m] * cirs[m], full linear convolution."""
    return np.sum([np.convolve(f, c) for f, c in zip(filters, cirs)], axis=0)


def energy(filters, cirs):
    return float(np.sum(np.abs(response(filters, cirs)) ** 2))


def own_terms(filters, cirs, tap):
    """(main-tap power, power at every other tap) at a 1-based tap."""
    r = response(filters, cirs)
    mags = np.abs(r) ** 2
    main = float(mags[tap - 1])
    return main, float(np.sum(np.delete(mags, tap - 1)))


def tr_filters(h):
    """Conjugated, time-reversed CIRs over each user's stacked norm."""
    norms = np.sqrt(np.sum(np.abs(h) ** 2, axis=(0, 2)))
    return np.conj(h[:, :, ::-1]) / norms[None, :, None]


def spectral_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


# ---------------------------------------------------------------------------
# beams

def check_tr(h1, g):
    want = tr_filters(h1)
    if not np.allclose(g, want, rtol=1e-12, atol=0.0):
        _fail(f"TR filters differ from the reversed CIRs by "
              f"{float(np.max(np.abs(g - want))):.3e}")


def check_zf(h0, u, alpha):
    """Each beam's response is zero off its tap and on every other MU."""
    n0 = h0.shape[1]
    for n in range(n0):
        tap = int(alpha[n])
        r = response(u[:, n, :], h0[:, n, :])
        main = abs(r[tap - 1])
        if main == 0.0:
            _fail(f"ZF beam {n} has a zero main tap")
        off = float(np.max(np.abs(np.delete(r, tap - 1))))
        if off > ZF_TOL * main:
            _fail(f"ZF beam {n} leaks {off / main:.3e} into its own taps")
        for n2 in range(n0):
            if n2 == n:
                continue
            leak = float(np.max(np.abs(response(u[:, n, :], h0[:, n2, :]))))
            if leak > ZF_TOL * main:
                _fail(f"ZF beam {n} leaks {leak / main:.3e} onto MU {n2}")


# ---------------------------------------------------------------------------
# nominal allocations

def femto_terms(h1, g):
    """(sig, isi, B) per unit power; B[j, j2] is user j2's energy at user j."""
    n1 = h1.shape[1]
    taps = h1.shape[2]
    sig = np.zeros(n1)
    isi = np.zeros(n1)
    b = np.zeros((n1, n1))
    for j in range(n1):
        sig[j], isi[j] = own_terms(g[:, j, :], h1[:, j, :], taps)
        for j2 in range(n1):
            if j2 != j:
                b[j, j2] = energy(g[:, j2, :], h1[:, j, :])
    return sig, isi, b


def fixed_point(sig, isi, b, gamma, z):
    """Minimal p with p_j sig_j >= gamma (p_j isi_j + (B p)_j + z_j).

    Returns (p or None when infeasible, judged): judged is False when the
    verdict sits within TIE of a feasibility boundary.
    """
    phi = sig - gamma * isi
    if (phi <= 0.0).any():
        return None, bool((np.abs(phi) > TIE * sig).all())
    d = gamma / phi
    rho = spectral_radius(d[:, None] * b)
    judged = abs(rho - 1.0) > TIE
    if rho >= 1.0:
        return None, judged
    return np.linalg.solve(np.eye(phi.size) - d[:, None] * b, d * z), judged


def femto_fixed_point(h1, g, gamma_f, p_tol, noise):
    """Nominal femto powers (I - DB)^-1 D z against the tolerated level."""
    sig, isi, b = femto_terms(h1, g)
    return fixed_point(sig, isi, b, gamma_f, np.full(sig.shape, p_tol + noise))


def robust_fixed_point(bounds, gamma_f, p_tol, noise):
    """The same fixed point over a worst-case stack: floor and ceilings."""
    sig = np.asarray(bounds.pl_sig_coeff, dtype=float)
    return fixed_point(sig, np.asarray(bounds.pu_isi_coeff, dtype=float),
                       np.asarray(bounds.pu_co_coeff, dtype=float), gamma_f,
                       np.full(sig.shape, p_tol + noise))


def proposed_total(ch, beams, gamma_m, gamma_f, p_tol, noise):
    """Closed form of the two-step allocation: (total or None, judged).

    Femto powers from the fixed point against p_tol, the cross report they
    cause, then each MU's decoupled minimum gamma*nabla/(1-gamma*delta)
    checked against its tightest cross-tier cap.
    """
    p1, judged = femto_fixed_point(ch.h1, beams.g, gamma_f, p_tol, noise)
    if p1 is None:
        return None, judged
    n0 = ch.h0.shape[1]
    total = float(np.sum(p1))
    for n in range(n0):
        u = beams.u[:, n, :]
        sig, isi = own_terms(u, ch.h0[:, n, :], int(beams.alpha[n]))
        leak = sum(energy(u, ch.h0[:, n2, :]) for n2 in range(n0) if n2 != n)
        cross = sum(p1[j] * energy(beams.g[:, j, :], ch.h10[:, n, :])
                    for j in range(p1.size))
        delta = (isi + leak) / sig
        nabla = (cross + noise) / sig
        if gamma_m * delta >= 1.0:
            return None, abs(gamma_m * delta - 1.0) > TIE
        p0 = gamma_m * nabla / (1.0 - gamma_m * delta)
        cap = min((p_tol / e for e in (energy(u, ch.h01[:, j, :])
                                       for j in range(ch.h01.shape[1]))
                   if e > 0.0), default=math.inf)
        if p0 > cap:
            return None, p0 > cap * (1.0 + 1e-6)
        judged = judged and p0 < cap * (1.0 - 1e-6)
        total += p0
    return total, judged


def centralized_total(ch, beams, gamma_m, gamma_f, noise):
    """Stacked R x R minimal-power solve: (total or None, judged)."""
    n0 = ch.h0.shape[1]
    n1 = ch.h1.shape[1]
    # (filters, sampling tap, own channel) per stacked user, MUs then FUs
    users = []
    for n in range(n0):
        users.append((beams.u[:, n, :], int(beams.alpha[n]), ch.h0[:, n, :]))
    for j in range(n1):
        users.append((beams.g[:, j, :], ch.h1.shape[2], ch.h1[:, j, :]))

    def link(victim, src):
        # channel from transmitter of stacked user src to stacked user victim
        if victim < n0:
            return ch.h0[:, victim, :] if src < n0 else ch.h10[:, victim, :]
        j = victim - n0
        return ch.h01[:, j, :] if src < n0 else ch.h1[:, j, :]

    r_count = n0 + n1
    gam = np.array([gamma_m] * n0 + [gamma_f] * n1, dtype=float)
    sig = np.zeros(r_count)
    isi = np.zeros(r_count)
    coup = np.zeros((r_count, r_count))
    for a, (filt, tap, own) in enumerate(users):
        sig[a], isi[a] = own_terms(filt, own, tap)
        for b, (filt_b, _, _) in enumerate(users):
            if b != a:
                coup[a, b] = energy(filt_b, link(a, b))
    p, judged = fixed_point(sig, isi, coup, gam, np.full(r_count, noise))
    return (None if p is None else float(np.sum(p))), judged


def check_allocation(ch, beams, alloc, gamma_m, gamma_f, p_tol, noise):
    """Targets and caps of a proposed allocation, from its powers alone.

    Macro SINRs use the actual femto powers; femto SINRs use the tolerated
    cross-tier level the femto tier designed against; every MU beam's
    interference at every FU stays within the cap.
    """
    p0 = np.asarray(alloc.p0, dtype=float)
    p1 = np.asarray(alloc.p1, dtype=float)
    if (p0 < 0).any() or (p1 < 0).any():
        _fail(f"negative power in {p0}, {p1}")
    n0, n1 = p0.size, p1.size
    for n in range(n0):
        sig, isi = own_terms(beams.u[:, n, :], ch.h0[:, n, :],
                             int(beams.alpha[n]))
        co = sum(p0[n2] * energy(beams.u[:, n2, :], ch.h0[:, n, :])
                 for n2 in range(n0) if n2 != n)
        cross = sum(p1[j] * energy(beams.g[:, j, :], ch.h10[:, n, :])
                    for j in range(n1))
        achieved = p0[n] * sig / (p0[n] * isi + co + cross + noise)
        if achieved < gamma_m * (1.0 - MACRO_SLACK):
            _fail(f"MU {n} SINR {achieved:.6e} below target {gamma_m:.6e}")
        for j in range(n1):
            level = p0[n] * energy(beams.u[:, n, :], ch.h01[:, j, :])
            if level > p_tol * (1.0 + CAP_SLACK):
                _fail(f"MU {n} beam puts {level:.3e} W on FU {j}, "
                      f"cap {p_tol:.3e} W")
    sig, isi, b = femto_terms(ch.h1, beams.g)
    achieved = p1 * sig / (p1 * isi + b @ p1 + p_tol + noise)
    if (achieved < gamma_f * (1.0 - FEMTO_SLACK)).any():
        _fail(f"FU SINRs {achieved} below target {gamma_f:.6e}")


# ---------------------------------------------------------------------------
# error-ball coverage of robust designs

def ball_draws(h_hat, psi, rng, count):
    """True channels uniform over ||h_hat_i - h_i||^2 <= psi ||h_i||^2.

    Around the estimate the admissible errors e = h_hat - h of antenna i
    form the ball |e + psi/(1-psi) h_hat_i| <= sqrt(psi) |h_hat_i| / (1-psi).
    Returns (count, M, L).
    """
    m, taps = h_hat.shape
    center = -psi / (1.0 - psi) * h_hat
    radius = np.sqrt(psi) * np.linalg.norm(h_hat, axis=1) / (1.0 - psi)
    z = rng.standard_normal((count, m, 2 * taps))
    z /= np.linalg.norm(z, axis=2, keepdims=True)
    direction = z[..., :taps] + 1j * z[..., taps:]
    r = radius[None, :] * rng.random((count, m)) ** (1.0 / (2 * taps))
    true = h_hat[None] - (center[None] + r[..., None] * direction)
    slack = np.linalg.norm(h_hat[None] - true, axis=2) ** 2 \
        - psi * np.linalg.norm(true, axis=2) ** 2
    if (slack > 1e-9 * np.linalg.norm(h_hat) ** 2).any():
        _fail("error-ball sampler left the admissible set")
    return true


def conv_stack(g):
    """(M, 2L-1, L) matrices with conv_stack(g)[m] @ x == convolve(g[m], x)."""
    m, taps = g.shape
    out = np.zeros((m, 2 * taps - 1, taps), dtype=complex)
    for l in range(taps):
        out[:, l:l + taps, l] = g
    return out


def ball_responses(h1, g, psi, rng):
    """Per FU j, (tot, main) of the filters over true channels of FU j
    drawn from its error ball: tot[p, j2] is the energy of filter j2's
    response on draw p, main[p] the central tap of FU j's own filter."""
    n1 = h1.shape[1]
    taps = h1.shape[2]
    mats = [conv_stack(g[:, j2, :]) for j2 in range(n1)]
    out = []
    for j in range(n1):
        true = ball_draws(h1[:, j, :], psi, rng, BALL_DRAWS)
        resp = np.stack([np.einsum("mkl,pml->pk", mats[j2], true)
                         for j2 in range(n1)], axis=1)
        tot = np.sum(np.abs(resp) ** 2, axis=2)
        main = np.abs(resp[:, j, taps - 1]) ** 2
        out.append((tot, main))
    return out


def covers(responses, p1, gamma_f, floor):
    """Whether powers p1 meet gamma_f at every FU on every ball draw.

    Interference from the other tier is held at its tolerated floor.
    """
    for j, (tot, main) in enumerate(responses):
        interference = p1[j] * (tot[:, j] - main) \
            + tot @ p1 - p1[j] * tot[:, j] + floor
        achieved = p1[j] * main / interference
        if (achieved < gamma_f * (1.0 - OUTAGE_SLACK)).any():
            return False
    return True
