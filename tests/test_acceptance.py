"""Acceptance gate: end-to-end checks at documented scales and tolerances.

Each test prints exactly one PASS or FAIL line with its measured numbers.
A check that the implementation cannot reach is still asserted at its
stated threshold: it prints the measurement and fails honestly instead of
loosening the gate. README.md records the two known failures.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import convolution_matrix

from hetnet_tr.beamform import tr_beamformer_cirs, zf_select
from hetnet_tr.channel import ScenarioConfig, draw_channel_set, place_nodes
from hetnet_tr.errors import InfeasibleError
from hetnet_tr.harness import (
    ExperimentSpec,
    _run_trial,
    run_experiment,
)
from hetnet_tr.power import (
    build_femto_lp,
    macro_powers,
    solve_centralized,
    solve_femto,
    solve_proposed,
)
from hetnet_tr.robust import (
    assemble_bounds,
    link_bounds,
    solve_robust,
    worst_case_oracle,
)
from hetnet_tr.sinr import couple, fu_breakdown, sinr

from helpers import tr_coupling

from oracles import (
    leakage_weights,
    lp_fixed_point_oracle,
    macro_kkt_oracle,
    stack_system,
    weight_factored_powers,
)

pytestmark = pytest.mark.acceptance


def emit(capsys, ok, label, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    return line


def draw_scenario(cfg, seed, trial=None):
    key = seed if trial is None else [seed, trial]
    rng = np.random.default_rng(key)
    geo = place_nodes(cfg, rng)
    return draw_channel_set(cfg, geo, rng), rng


def stacked_zf_system(h):
    """Independent build of the banded system, tap-major column order."""
    M, N, L = h.shape
    blocks = []
    for n in range(N):
        block = np.zeros((2 * L - 1, M * L), dtype=complex)
        for m in range(M):
            cm = convolution_matrix(h[m, n, :], L, "full")
            for c in range(L):
                block[:, c * M + m] = cm[:, c]
        blocks.append(block)
    return np.vstack(blocks)


def test_zf_selector_residuals(capsys):
    """Every selected tap solves its stacked system to 1e-8."""
    cfg = ScenarioConfig()
    started = time.time()
    worst = 0.0
    for i in range(100):
        ch, _ = draw_scenario(cfg, 1000 + i)
        u, alpha = zf_select(ch)
        H = stacked_zf_system(ch.h0)
        P = np.linalg.pinv(H)
        bands = 2 * cfg.taps - 1
        for n in range(cfg.n0):
            idx = n * bands + int(alpha[n]) - 1
            e = np.zeros(H.shape[0])
            e[idx] = 1.0
            res = float(np.linalg.norm(H @ P[:, idx] - e))
            # module filters, rescaled by their own target-tap response
            w = u[:, n, :].T.reshape(-1)
            r = H @ w
            res_mod = float(np.linalg.norm(r / r[idx] - e))
            worst = max(worst, res, res_mod)
    elapsed = time.time() - started
    ok = worst <= 1e-8 and elapsed <= 60.0
    line = emit(capsys, ok, "zf selector residuals",
                f"max residual {worst:.3e} over 100 realizations "
                f"(limit 1e-08), {elapsed:.1f}s")
    assert ok, line


def test_femto_allocation_matches_fixed_point(capsys):
    """Closed form vs iterated fixed point on 200 feasible draws."""
    cfg = ScenarioConfig()
    collected = 0
    seed = 2000
    err_solve = err_form = err_active = 0.0
    while collected < 200:
        ch, _ = draw_scenario(cfg, seed)
        seed += 1
        g = tr_beamformer_cirs(ch.h1)
        try:
            coupling = tr_coupling(ch, g, ch.taps)
            lp = build_femto_lp(coupling)
            p = solve_femto(lp, cfg.gamma_f, cfg.p_tol, cfg.noise_power)
        except InfeasibleError:
            continue
        collected += 1
        z = cfg.p_tol + cfg.noise_power
        F, v = stack_system(lp, cfg.gamma_f, z)
        ref = lp_fixed_point_oracle(F, v)
        err_solve = max(err_solve,
                        float(np.max(np.abs(p - ref) / np.abs(ref))))
        direct = np.linalg.solve(np.eye(len(p)) - F, v)
        eta = leakage_weights(coupling)
        form = weight_factored_powers(lp, cfg.gamma_f, z, eta) * eta
        err_form = max(err_form,
                       float(np.max(np.abs(form - direct) / np.abs(direct))))
        from hetnet_tr.beamform import design_beamformers

        beams = design_beamformers(ch)
        for j in range(cfg.n1):
            s = sinr(fu_breakdown(ch, beams, None, p, j,
                                  noise_power=cfg.noise_power,
                                  cross_override=cfg.p_tol))
            err_active = max(err_active, abs(s - cfg.gamma_f) / cfg.gamma_f)
    ok = err_solve <= 1e-6 and err_form <= 1e-8 and err_active <= 1e-8
    line = emit(capsys, ok, "femto allocation vs fixed point",
                f"200 feasible draws: solver err {err_solve:.3e} "
                f"(limit 1e-06), display-form err {err_form:.3e} (1e-08), "
                f"target-activity err {err_active:.3e} (1e-08)")
    assert ok, line


def test_macro_allocation_matches_kkt(capsys):
    """Batched macro solve vs the per-user KKT closed form."""
    rng = np.random.default_rng(3001)
    n = 2
    gamma = 10 ** rng.uniform(-0.4, 0.4, (200, n))
    delta = rng.uniform(0.0, 0.8, (200, n)) / gamma
    nabla = 10 ** rng.uniform(-14, -8, (200, n))
    caps_i = rng.uniform(0.1, 1.0, (200, n, 3))
    p, feas = macro_powers(delta, nabla, gamma, caps_i, p_tol=1.0)
    ref = macro_kkt_oracle(delta, nabla, gamma, 1.0 / caps_i.max(axis=-1))
    slack_ok = bool(feas.all() and ref.feasible.all())
    err_slack = float(np.max(np.abs(p - ref.p) / ref.p))

    # a second batch with caps low enough that many entries bind
    p_tol = 1e-9
    p2, feas2 = macro_powers(delta, nabla, gamma, caps_i, p_tol)
    ref2 = macro_kkt_oracle(delta, nabla, gamma, p_tol / caps_i.max(axis=-1))
    flags_agree = bool(np.array_equal(feas2, ref2.feasible))
    binding = ~feas2
    n_binding = int(np.count_nonzero(binding))
    caps = p_tol / caps_i.max(axis=-1)
    err_binding = float(np.max(np.abs(p2[binding] - caps[binding])
                               / caps[binding])) if n_binding else 0.0
    ok = (slack_ok and err_slack <= 1e-5 and flags_agree
          and n_binding > 0 and err_binding <= 1e-8)
    line = emit(capsys, ok, "macro allocation vs kkt",
                f"200 slack instances err {err_slack:.3e} (limit 1e-05); "
                f"{n_binding} binding entries err {err_binding:.3e} "
                f"(1e-08); flag disagreements "
                f"{int(np.count_nonzero(feas2 != ref2.feasible))}")
    assert ok, line


def test_joint_vs_decoupled_gap(capsys):
    """Joint design must never use more power; mean gap window 0.3-1.0 dB."""
    cfg = ScenarioConfig()
    started = time.time()
    gaps = []
    dominance_violations = 0
    infeasible = 0
    for i in range(1000):
        ch, _ = draw_scenario(cfg, 4000 + i)
        try:
            prop = solve_proposed(ch, cfg.gamma_m, cfg.gamma_f, cfg.p_tol,
                                  cfg.noise_power)
            from hetnet_tr.beamform import design_beamformers

            cent = solve_centralized(couple(ch, design_beamformers(ch)),
                                     cfg.gamma_m, cfg.gamma_f, cfg.noise_power)
        except InfeasibleError:
            infeasible += 1
            continue
        pc = float(cent.total_power)
        pp = float(prop.total_power)
        if pc > pp * (1.0 + 1e-9):
            dominance_violations += 1
        gaps.append(10.0 * math.log10(pp / pc))
    elapsed = time.time() - started
    mean_gap = float(np.mean(gaps))
    ok = (dominance_violations == 0 and 0.3 <= mean_gap <= 1.0
          and elapsed <= 600.0)
    line = emit(capsys, ok, "joint vs decoupled power gap",
                f"{len(gaps)} feasible of 1000: dominance violations "
                f"{dominance_violations}, mean gap {mean_gap:.2f} dB "
                f"(window [0.3, 1.0]), {elapsed:.0f}s")
    assert ok, line


def crossover_dbm(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    head = lines[0].split(",")
    ip, itr, izf = (head.index(k) for k in ("p_dbm", "sinr_tr_db",
                                            "sinr_zf_db"))
    pts = sorted((float(c[ip]), float(c[itr]), float(c[izf]))
                 for c in (l.split(",") for l in lines[1:])
                 if c[0] == "summary")
    cross = None
    superior_below = True
    for k in range(1, len(pts)):
        d0 = pts[k - 1][1] - pts[k - 1][2]
        d1 = pts[k][1] - pts[k][2]
        if cross is None and d0 > 0 and d1 <= 0:
            cross = pts[k - 1][0] + (pts[k][0] - pts[k - 1][0]) * d0 / (d0 - d1)
    if cross is not None:
        superior_below = all(tr > zf for p, tr, zf in pts if p < cross)
    return cross, superior_below


def test_beamformer_crossover_window(capsys, tmp_path):
    """Focusing beats nulling below a crossover in 17-31 dBm, both loads."""
    results = {}
    for n1 in (2, 4):
        cfg = ScenarioConfig(n1=n1)
        out = tmp_path / f"trzf_{n1}.csv"
        spec = ExperimentSpec(name="tr-vs-zf", trials=1000, sweep={},
                              seed=101, output_path=str(out))
        run_experiment(spec, cfg)
        results[n1] = crossover_dbm(out)
    ok = all(c is not None and 17.0 <= c <= 31.0 and sup
             for c, sup in results.values())
    detail = ", ".join(
        f"n1={n1}: crossover "
        f"{'none' if c is None else format(c, '.1f') + ' dBm'}"
        f"{'' if sup else ' (not superior below)'}"
        for n1, (c, sup) in results.items())
    line = emit(capsys, ok, "beamformer crossover window",
                f"{detail} (window [17, 31], 1000 trials each)")
    assert ok, line


def test_interference_bound_ordering(capsys):
    """Shifted-ball bound under the product bound with a 3-7 dB median
    gap, and never under the searched maximum."""
    cfg = ScenarioConfig(n1=1)
    exceptions = 0
    oracle_violations = 0
    gaps = []
    for i in range(1000):
        ch, rng = draw_scenario(cfg, 606, i)
        g = tr_beamformer_cirs(ch.h1)[:, 0, :]
        h = ch.h1[:, 0, :]
        for psi in (0.05, 0.1):
            young, prop, _ = link_bounds(g, h, psi)
            if young < prop * (1.0 - 1e-12):
                exceptions += 1
            gaps.append(10.0 * math.log10(young / prop))
            wc = worst_case_oracle(g, h, psi, rng=rng)
            if wc.max_energy > prop * (1.0 + 1e-9):
                oracle_violations += 1
    median_gap = float(np.median(gaps))
    ok = (exceptions == 0 and 3.0 <= median_gap <= 7.0
          and oracle_violations == 0)
    line = emit(capsys, ok, "interference bound ordering",
                f"2000 instances: ordering exceptions {exceptions}, median "
                f"gap {median_gap:.2f} dB (window [3, 7]); searched maxima "
                f"above the shifted-ball bound on {oracle_violations}/2000 "
                f"(limit 0)")
    assert ok, line


def test_error_ball_outage_protection(capsys):
    """Robust designs should hold their target on every ball member."""
    cfg = ScenarioConfig()
    point = [{"psi": 0.04, "gamma_f_db": 2.0}]
    extra = {"error_draws": 10_000}
    rows = [_run_trial("fu-outage", t, cfg, point, extra, 707)[0]
            for t in range(100)]
    vals = [dict(r.values) for r in rows]
    feas_p = sum(v["feas_proposed"] for v in vals)
    feas_y = sum(v["feas_young"] for v in vals)
    feas_n = sum(v["feas_nonrobust"] for v in vals)
    out_p = [v["outage_proposed"] for v in vals if v["feas_proposed"] == 1.0]
    out_y = [v["outage_young"] for v in vals if v["feas_young"] == 1.0]
    out_n = [v["outage_nonrobust"] for v in vals
             if v["feas_nonrobust"] == 1.0]
    dom_violations = sum(
        1 for v in vals
        if v["feas_proposed"] == 1.0 and v["feas_young"] == 1.0
        and v["power_proposed_w"] > v["power_young_w"] * (1.0 + 1e-9))

    # power ordering is also checked at a target both variants can meet
    low = [{"psi": 0.04, "gamma_f_db": -6.0}]
    dom_low_total = dom_low_bad = 0
    for t in range(100):
        v = dict(_run_trial("fu-outage", t, cfg, low, {"error_draws": 1},
                            707)[0].values)
        if v["feas_proposed"] == 1.0 and v["feas_young"] == 1.0:
            dom_low_total += 1
            if v["power_proposed_w"] > v["power_young_w"] * (1.0 + 1e-9):
                dom_low_bad += 1

    # why a robust design is infeasible at the documented target: its
    # signal floor is at or below gamma_f times its ISI ceiling (no power
    # helps), or the co-channel ceilings push the spectral radius to 1
    gamma = 10.0 ** 0.2
    causes = {"proposed": [0, 0], "young": [0, 0]}
    for t in range(100):
        ch, _ = draw_scenario(cfg, 707, t)
        g = tr_beamformer_cirs(ch.h1)
        for variant, tally in causes.items():
            b = assemble_bounds(ch, g, 0.04, cfg.p_tol, cfg.noise_power,
                                variant=variant)
            try:
                solve_robust(b, gamma, cfg.p_tol, cfg.noise_power)
            except InfeasibleError:
                below = (b.pl_sig_coeff - gamma * b.pu_isi_coeff <= 0.0).any()
                tally[0 if below else 1] += 1

    ok = (feas_p == 100 and feas_y == 100
          and all(o == 0.0 for o in out_p) and all(o == 0.0 for o in out_y)
          and len(out_n) > 0 and float(np.mean(out_n)) > 0.0
          and dom_violations == 0)
    reason = "; ".join(
        f"{variant} infeasible on {isi + rho}/100 ({isi} with the signal "
        f"floor at or below gamma_f times the ISI ceiling, {rho} with "
        f"co-channel spectral radius >= 1)"
        for variant, (isi, rho) in causes.items())
    line = emit(
        capsys, ok, "error ball outage protection",
        f"100 realizations x 10^4 draws: feasible nonrobust {feas_n:.0f}, "
        f"shifted-ball {feas_p:.0f}, product {feas_y:.0f}; mean outage "
        f"nonrobust {float(np.mean(out_n)) if out_n else float('nan'):.3f}, "
        f"shifted-ball "
        f"{float(np.mean(out_p)) if out_p else float('nan'):.3f}, "
        f"product {float(np.mean(out_y)) if out_y else float('nan'):.3f}; "
        f"power-order violations at the documented target {dom_violations}, "
        f"at the lowered target {dom_low_bad}/{dom_low_total}; "
        f"at psi 0.04 {reason}")
    assert ok, line


def test_signal_floor_probe_equality(capsys):
    """The floor is attained exactly by its boundary probe."""
    cfg = ScenarioConfig(n1=1)
    psi = 0.04
    worst = 0.0
    ratios = []
    for i in range(1000):
        ch, rng = draw_scenario(cfg, 808, i)
        g = tr_beamformer_cirs(ch.h1)[:, 0, :]
        h = ch.h1[:, 0, :]
        floor = link_bounds(g, h, psi)[2]
        # c_i - (r_i/||a_i||) e^{j arg sum a^T c} conj(a_i), a_i = g_i reversed
        a = g[:, ::-1]
        c = h / (1.0 - psi)
        r = math.sqrt(psi) * np.linalg.norm(h, axis=1) / (1.0 - psi)
        phase = np.exp(1j * np.angle(np.sum(a * c)))
        probe = c - (r / np.linalg.norm(a, axis=1))[:, None] * phase * a.conj()
        resp = sum(np.convolve(g[m], probe[m]) for m in range(g.shape[0]))
        attained = abs(resp[cfg.taps - 1]) ** 2
        worst = max(worst, abs(attained - floor) / floor)
        if i < 100:
            wc = worst_case_oracle(g, h, psi, rng=rng)
            ratios.append(wc.min_central / floor)
    ok = worst <= 1e-10
    line = emit(capsys, ok, "signal floor probe equality",
                f"1000 instances: max relative probe error {worst:.3e} "
                f"(limit 1e-10); searched minimum sits at median "
                f"{float(np.median(ratios)):.3f} of the floor, at least "
                f"{min(ratios):.3f} (reported)")
    assert ok, line


def test_csv_worker_independence(capsys, tmp_path, monkeypatch):
    """The emitted CSV must not depend on the worker count."""
    cfg = ScenarioConfig()
    out = tmp_path / "det.csv"
    spec = ExperimentSpec(name="fu-outage", trials=6,
                          sweep={"psi": (0.04,),
                                 "gamma_f_db": (-6.0, 2.0)},
                          seed=909, output_path=str(out))
    digests = []
    for workers in ("1", "2"):
        monkeypatch.setenv("HETNET_TR_THREADS", workers)
        run_experiment(spec, cfg, error_draws=500)
        digests.append(out.read_bytes())
    ok = digests[0] == digests[1]
    line = emit(capsys, ok, "csv worker independence",
                f"{len(digests[0])} bytes, 1 vs 2 workers "
                f"{'identical' if ok else 'differ'}")
    assert ok, line
