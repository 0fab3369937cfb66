"""Each output check accepts the program's output and rejects a corrupted copy.

    python3 perfbench/selftest.py

Every case first runs a check on the untouched output (it must pass),
then on a copy with one cell, beam or power changed (it must raise
CheckFailed). Exits 1 when any case misbehaves.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

import checks
import run

OUT = run.HERE / "out"


class Case:
    def __init__(self):
        self.bad = []

    def expect(self, label, fn, corrupt_fn):
        try:
            fn()
        except checks.CheckFailed as exc:
            self.bad.append(f"{label}: untouched output rejected: {exc}")
            return
        try:
            corrupt_fn()
        except checks.CheckFailed as exc:
            print(f"PASS {label}: rejected ({exc})")
            return
        self.bad.append(f"{label}: corrupted output accepted")


def corrupt_cell(path, row_kind, column, scale):
    """Copy of the CSV with one cell of the first row of a kind scaled."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0] == row_kind and cells[col] not in ("nan", "0.0"):
            cells[col] = repr(float(cells[col]) * scale)
            lines[i] = ",".join(cells)
            break
    bad = f"{path}.bad"
    Path(bad).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


def scaled_row(keyed, key, column, scale):
    out = dict(keyed)
    out[key] = dict(keyed[key], **{column: keyed[key][column] * scale})
    return out


def nominal_cases(case):
    runner = run.Runner("nominal-point", 7, OUT, None)
    seed = 7
    spec = runner.spec(seed, 3, run.DEFAULT_POINT)
    points = spec.sweep_points()
    keys = list(points[0])
    runner.harness.run_experiment(spec, runner.cfg)
    value_keys = run.VALUE_KEYS["power-compare"]

    def csv_check(path):
        return checks.check_csv(path, keys, value_keys, points, 3)

    keyed = csv_check(runner.csv_path)
    case.expect("summary mean", lambda: csv_check(runner.csv_path),
                lambda: csv_check(corrupt_cell(runner.csv_path, "summary",
                                               "power_proposed_w", 1.001)))
    case.expect("trial row under a summary",
                lambda: csv_check(runner.csv_path),
                lambda: csv_check(corrupt_cell(runner.csv_path, "trial",
                                               "power_centralized_w", 3.0)))
    trial = next(t for (t, _), r in keyed.items() if r["feasible"] == 1.0)
    key = (trial, tuple(points[0][k] for k in keys))

    def deep(rows):
        return run.nominal_trial(runner, seed, trial, points, rows, keys)

    case.expect("power_centralized_w", lambda: deep(keyed),
                lambda: deep(scaled_row(keyed, key, "power_centralized_w",
                                        1.0 + 1e-6)))
    case.expect("power_proposed_w", lambda: deep(keyed),
                lambda: deep(scaled_row(keyed, key, "power_proposed_w",
                                        1.001)))
    case.expect("feasible flag", lambda: deep(keyed),
                lambda: deep(scaled_row(keyed, key, "feasible", 0.0)))

    from hetnet_tr.beamform import design_beamformers
    from hetnet_tr.power import solve_proposed

    ch = run.channels_of(runner, seed, trial)
    beams = design_beamformers(ch)
    u = beams.u.copy()
    u[0, 0, 0] += 1e-3 * np.abs(u).max()
    case.expect("ZF beam",
                lambda: checks.check_zf(ch.h0, beams.u, beams.alpha),
                lambda: checks.check_zf(ch.h0, u, beams.alpha))
    g = beams.g.copy()
    g[1, 1, 2] *= 1.0 + 1e-6
    case.expect("TR beam", lambda: checks.check_tr(ch.h1, beams.g),
                lambda: checks.check_tr(ch.h1, g))

    cfg = runner.cfg
    gm, gf = run.db(1.0), run.db(2.0)
    alloc = solve_proposed(ch, gm, gf, cfg.p_tol, cfg.noise_power)

    def alloc_check(a):
        return checks.check_allocation(ch, beams, a, gm, gf, cfg.p_tol,
                                       cfg.noise_power)

    for label, change in (
            ("macro SINR target", {"p0": alloc.p0 * 0.999}),
            ("femto SINR target", {"p1": alloc.p1 * 0.999}),
            ("cross-tier cap", {"p0": alloc.p0 * 1e9})):
        case.expect(label, lambda: alloc_check(alloc),
                    lambda c=change: alloc_check(
                        dataclasses.replace(alloc, **c)))


def robust_cases(case):
    runner = run.Runner("robust-outage", 7, OUT, None)
    work = run.WORKLOADS["robust-outage"]
    spec = runner.spec(work.probe_seed, 1, work.probe_sweep)
    points = spec.sweep_points()
    keys = list(points[0])
    runner.harness.run_experiment(spec, runner.cfg)
    keyed = checks.check_csv(runner.csv_path, keys,
                             run.VALUE_KEYS["fu-outage"], points, 1)
    key = (0, tuple(points[0][k] for k in keys))

    def robust(rows):
        return run.robust_trial(runner, spec.seed, 0, points, rows, keys)

    case.expect("power_nonrobust_w", lambda: robust(keyed),
                lambda: robust(scaled_row(keyed, key, "power_nonrobust_w",
                                          1.0 + 1e-6)))
    if keyed[key]["feas_young"] != 1.0:
        case.bad.append("probe row has no feasible young design to corrupt")
        return
    case.expect("power_young_w", lambda: robust(keyed),
                lambda: robust(scaled_row(keyed, key, "power_young_w", 1.01)))

    case.expect("power_proposed_w", lambda: robust(keyed),
                lambda: robust(scaled_row(keyed, key, "power_proposed_w",
                                          1.0 + 1e-6)))

    # the young design covers the ball; scaled down it must miss somewhere
    cfg = runner.cfg
    ch = run.channels_of(runner, spec.seed, 0)
    g = checks.tr_filters(ch.h1)
    psi, gf = 0.04, run.db(-6.0)
    p1, _ = checks.robust_fixed_point(
        run.robust_bounds(runner, ch, g, psi, "young"), gf, cfg.p_tol,
        cfg.noise_power)

    responses = checks.ball_responses(
        ch.h1, g, psi, np.random.default_rng([checks.BALL_SALT, 0]))

    def coverage(p):
        if not checks.covers(responses, p, gf, cfg.p_tol + cfg.noise_power):
            raise checks.CheckFailed("misses inside the error ball")

    case.expect("young design in the error ball", lambda: coverage(p1),
                lambda: coverage(p1 * 0.3))
    ball, missed = robust(keyed)
    if missed != 1 or ball != {"proposed": [1, 1], "young": [1, 0]}:
        case.bad.append(f"probe counted {missed} rows missed, {ball} by "
                        f"design; expected 1, proposed [1, 1], young [1, 0]")
    else:
        print("PASS proposed design on the probe: counted as 1 failed row")


def main():
    run.load_program()
    OUT.mkdir(exist_ok=True)
    case = Case()
    nominal_cases(case)
    robust_cases(case)
    for msg in case.bad:
        print(f"FAIL {msg}")
    sys.exit(1 if case.bad else 0)


if __name__ == "__main__":
    main()
