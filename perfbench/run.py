"""Benchmark of the hetnet-tr Monte Carlo simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

A run repeats whole rounds until the timed part reaches --seconds. One
round is one harness.run_experiment call over fresh trials (its seed is
derived from --seed and the round number), followed, outside the timed
part, by passes of a reference loop that gauge the host's speed, by
fresh program starts (timed for setup_s, spread over the run), by the
independent output checks of checks.py and by one fixed probe of the
program fault the workload is known to hit. A round that a known fault
aborts keeps its time and is tallied on the `#` line. The last line
of standard output is a JSON object: correct, attempted, failed
(operations are (trial, sweep point) rows) and the metrics, end-to-end
with --trace 0 and per-layer with --trace 1. `--workload all` runs every
workload, untraced and traced, each in a fresh process, and prints every
metric by name.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 15
# host-gauge time per round, as a share of the round's timed part
GAUGE_SHARE = 0.05
ROUND_SALT = 0x4E7
# a seeded known fault that fires on more than max(FAULT_FLOOR, share)
# of its chances fails the run: rounds aborted per trial, and young
# robust rows that miss in the error ball per young row put to the ball
FAULT_FLOOR = 5
ABORT_SHARE = 0.01
YOUNG_MISS_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    experiment: str
    sweep: dict
    trials_per_round: int
    # fixed (seed, sweep) on which the workload's known fault fires
    probe_seed: int
    probe_sweep: dict


DEFAULT_POINT = {"gamma_m_db": (1.0,), "gamma_f_db": (2.0,)}

# value columns the CSV of each experiment must carry, in order
VALUE_KEYS = {
    "power-compare": ("power_proposed_w", "power_centralized_w"),
    "fu-outage": ("outage_nonrobust", "outage_proposed", "outage_young",
                  "power_nonrobust_w", "power_proposed_w", "power_young_w",
                  "feas_nonrobust", "feas_proposed", "feas_young"),
}

WORKLOADS = {
    "nominal-sweep": Workload("power-compare", {}, 6, 645, {}),
    "nominal-point": Workload("power-compare", DEFAULT_POINT, 20, 645,
                              DEFAULT_POINT),
    "robust-outage": Workload("fu-outage", {}, 4, 12345,
                              {"psi": (0.04,), "gamma_f_db": (-6.0,)}),
}


def load_program():
    """Import hetnet_tr from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hetnet_tr" / "__init__.py").is_file() or \
            not (ROOT / "configs" / "default.ini").is_file():
        sys.exit(f"perfbench: no hetnet_tr sources under {ROOT}")
    sys.path.insert(0, str(src))
    import hetnet_tr
    if Path(hetnet_tr.__file__).resolve().parent != src / "hetnet_tr":
        sys.exit(f"perfbench: imported hetnet_tr from {hetnet_tr.__file__}")


class FreshStarts:
    """Fresh program starts, each timed from spawn to its ready line.

    A run spreads them over its rounds, so that a burst of load on the
    shared host does not sit under all of them.
    """

    def __init__(self):
        self.walls, self.imports, self.configs = [], [], []

    def take(self):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "startup.py"), str(ROOT)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            self.walls.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            sys.exit(f"perfbench: fresh start exited {proc.returncode}")
        parts = json.loads(line)
        self.imports.append(parts["import_s"])
        self.configs.append(parts["config_ms"])

    def keep_pace(self, done):
        """The starts due once the share `done` of the run has gone by."""
        due = min(SETUP_STARTS, int(SETUP_STARTS * done) + 1)
        while len(self.walls) < due:
            self.take()


class HostGauge:
    """Fixed reference work, timed after every round: the host's speed.

    On this shared 2-core VM the host's speed drifts by 10-20% over
    minutes, and CPU time drifts with wall time. One pass is a
    pure-Python loop plus numpy work shaped like the program's kernels
    (6 x 6 power-iteration steps, an error-draw einsum). Over 6-12 s
    windows such work tracked a fixed nominal-point round at correlation
    0.97-0.98 and a fixed fu-outage round at 0.92-0.96.
    """

    # one pass at the reference speed: a typical in-run pass on the 2-core
    # VM the bounds were set on (runs there averaged 2.9-4.5 ms)
    PASS_S = 0.0040

    def __init__(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.gram = h @ h.conj().T
        self.draws = rng.standard_normal((500, 4, 6)) \
            + 1j * rng.standard_normal((500, 4, 6))
        self.mats = rng.standard_normal((2, 4, 11, 6)) \
            + 1j * rng.standard_normal((2, 4, 11, 6))
        self.seconds = 0.0
        self.passes = 0

    def one_pass(self):
        start = time.perf_counter()
        x = 0
        for i in range(10_000):
            x += i * i % 7
        v = np.ones(6, dtype=complex)
        for _ in range(250):
            w = self.gram @ v
            v = w / np.linalg.norm(w)
        np.einsum("jikl,pil->pjk", self.mats, self.draws)
        self.seconds += time.perf_counter() - start
        self.passes += 1

    def measure(self, budget_s):
        """At least one pass, and passes until budget_s is spent."""
        spent = self.seconds
        self.one_pass()
        while self.seconds - spent < budget_s:
            self.one_pass()

    def scale(self):
        """Factor that takes this run's wall times to the reference speed."""
        return self.PASS_S * self.passes / self.seconds


def round_seed(seed, index):
    state = np.random.SeedSequence([ROUND_SALT, seed, index]).generate_state(1)
    return int(state[0])


# program faults that abort a whole run_experiment on some draws:
# name -> (exception class name, message fragment)
KNOWN_FAULTS = {
    # power.macro_coefficients rounds own-ISI below zero on exact ZF beams
    "macro-delta": ("ValueError", "delta must be >= 0"),
    # power.macro_dual_solve stalls when a cross-tier cap nearly binds
    "macro-dual": ("NumericalError", "macro dual did not converge"),
}


def known_fault(exc):
    """Name of the known fault exc is, or None."""
    for name, (kind, fragment) in KNOWN_FAULTS.items():
        if type(exc).__name__ == kind and fragment in str(exc):
            return name
    return None


class Runner:
    """Runs rounds of one workload and checks every round's output."""

    def __init__(self, name, seed, out_dir, tracer):
        from hetnet_tr import config, harness

        self.harness = harness
        self.work = WORKLOADS[name]
        self.seed = seed
        self.settings = config.load_config(str(ROOT / "configs/default.ini"))
        self.cfg = self.settings.scenario
        self.csv_path = str(out_dir / f"{name}-{seed}.csv")
        self.tracer = tracer
        self.timed_s = 0.0
        self.gauge = HostGauge()
        self.starts = FreshStarts()
        self.trials = 0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        # seeded occurrences of known faults: rounds aborted, the rows
        # those rounds lost, and robust designs put to the error ball
        self.aborted = dict.fromkeys(KNOWN_FAULTS, 0)
        self.rows_lost = 0
        self.ball = {"proposed": [0, 0], "young": [0, 0]}
        # the probe's last CSV, checked in full, and its failed rows
        self.probe_output = None
        self.probe_failed = 0
        # seeded rows: feasible ones, and ones recomputed in full
        self.feasible = 0
        self.checked = 0

    def spec(self, seed, trials, sweep):
        return self.harness.ExperimentSpec(
            name=self.work.experiment, trials=trials, sweep=dict(sweep),
            seed=seed, output_path=self.csv_path)

    def run(self, seconds):
        index = 0
        while self.timed_s < seconds:
            self.starts.keep_pace(self.timed_s / seconds)
            seed = round_seed(self.seed, index)
            index += 1
            spec = self.spec(seed, self.work.trials_per_round, self.work.sweep)
            points = spec.sweep_points()
            fault = None
            if self.tracer:
                self.tracer.enabled = True
            start = time.perf_counter()
            try:
                self.harness.run_experiment(
                    spec, self.cfg, error_draws=self.settings.error_draws)
            except (ValueError, RuntimeError) as exc:
                fault = known_fault(exc)
                if fault is None:
                    raise
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.enabled = False
            self.timed_s += elapsed
            self.gauge.measure(GAUGE_SHARE * elapsed)
            if fault:
                self.abort(spec, points, fault)
                continue
            self.trials += spec.trials
            self.rounds += 1
            self.attempted += spec.trials * len(points)
            self.check(spec, points, probe=False, index=index)
            self.probe()
        self.starts.keep_pace(1.0)
        self.gate()

    def abort(self, spec, points, fault):
        """A seeded round that a known fault aborted.

        Its time stays in the timed part, with the trials up to and
        including the one the fault hit. Its rows never reach a CSV: they
        are tallied in rows_lost and not in attempted, since a fault that
        fires on some draws only would make failed / attempted differ
        between runs.
        """
        try:
            self.trials += locate_fault(self, spec, points, fault) + 1
        except checks.CheckFailed as exc:
            self.errors.append(f"seed {spec.seed}: {exc}")
            self.trials += spec.trials
        self.aborted[fault] += 1
        self.rows_lost += spec.trials * len(points)

    def gate(self):
        """Fail the run when a known fault fires far more often than measured."""
        if self.rounds == 0:
            self.errors.append("no round completed")
        for fault, rounds in self.aborted.items():
            if rounds > max(FAULT_FLOOR, ABORT_SHARE * self.trials):
                self.errors.append(f"{fault} aborted {rounds} rounds in "
                                   f"{self.trials} trials")
        rows, missed = self.ball["young"]
        if missed > max(FAULT_FLOOR, YOUNG_MISS_SHARE * rows):
            self.errors.append(f"young robust design missed in the error "
                               f"ball on {missed} of {rows} rows")

    def probe(self):
        """The workload's known fault on fixed inputs, once per round."""
        spec = self.spec(self.work.probe_seed, 1, self.work.probe_sweep)
        points = spec.sweep_points()
        self.attempted += len(points)
        try:
            self.harness.run_experiment(
                spec, self.cfg, error_draws=self.settings.error_draws)
        except ValueError as exc:
            if known_fault(exc) != "macro-delta":
                raise
            self.failed += len(points)
            return
        # same inputs, same output: only a changed CSV is checked again
        output = Path(self.csv_path).read_bytes()
        if output != self.probe_output:
            self.probe_output = output
            self.probe_failed = self.check(spec, points, probe=True)
        self.failed += self.probe_failed

    def check(self, spec, points, probe, index=0):
        """Run the checks on the CSV just written; returns rows failed.

        index (the round number) picks which sweep points of trial 0 get
        the costly nominal checks: a third of the grid, or its one point.
        """
        sweep_keys = list(points[0])
        try:
            keyed = checks.check_csv(
                self.csv_path, sweep_keys, VALUE_KEYS[spec.name], points,
                spec.trials)
            if not probe:
                self.feasible += sum(r["feasible"] == 1.0
                                     for r in keyed.values())
            if spec.name == "power-compare":
                # trial 0 in depth: beams, both allocations, targets, caps
                nominal_trial(self, spec.seed, 0,
                              points[index % 3::3] or points, keyed,
                              sweep_keys)
                return 0
            missed_rows = 0
            for trial in range(spec.trials):
                ball, missed = robust_trial(self, spec.seed, trial, points,
                                            keyed, sweep_keys)
                missed_rows += missed
                if not probe:
                    for label, (rows, misses) in ball.items():
                        self.ball[label][0] += rows
                        self.ball[label][1] += misses
            return missed_rows
        except checks.CheckFailed as exc:
            self.errors.append(f"seed {spec.seed}: {exc}")
            return 0


def channels_of(runner, seed, trial):
    """The trial's inputs, drawn as the harness draws them."""
    from hetnet_tr.channel import draw_channel_set, place_nodes

    rng = np.random.default_rng([seed, trial])
    return draw_channel_set(runner.cfg, place_nodes(runner.cfg, rng), rng)


def db(x):
    return 10.0 ** (float(x) / 10.0)


def locate_fault(runner, spec, points, fault):
    """First trial of an aborted power-compare round that the fault hits.

    Replays the round's draws through solve_proposed, point by point, as
    the harness calls it; the fault must recur there.
    """
    from hetnet_tr.errors import InfeasibleError
    from hetnet_tr.power import solve_proposed

    cfg = runner.cfg
    for trial in range(spec.trials):
        ch = channels_of(runner, spec.seed, trial)
        for pt in points:
            try:
                solve_proposed(ch, db(pt["gamma_m_db"]), db(pt["gamma_f_db"]),
                               cfg.p_tol, cfg.noise_power)
            except InfeasibleError:
                pass
            except (ValueError, RuntimeError) as exc:
                if known_fault(exc) != fault:
                    raise
                return trial
    raise checks.CheckFailed(f"{fault} aborted the round but recurs on none "
                             f"of its {spec.trials} trials")


def nominal_trial(runner, seed, trial, points, keyed, sweep_keys):
    from hetnet_tr.beamform import design_beamformers
    from hetnet_tr.power import solve_proposed

    cfg = runner.cfg
    ch = channels_of(runner, seed, trial)
    beams = design_beamformers(ch)
    checks.check_tr(ch.h1, beams.g)
    checks.check_zf(ch.h0, beams.u, beams.alpha)
    for pt in points:
        row = keyed[(trial, tuple(pt[k] for k in sweep_keys))]
        gm, gf = db(pt["gamma_m_db"]), db(pt["gamma_f_db"])
        prop, prop_judged = checks.proposed_total(
            ch, beams, gm, gf, cfg.p_tol, cfg.noise_power)
        cent, cent_judged = checks.centralized_total(
            ch, beams, gm, gf, cfg.noise_power)
        if not (prop_judged and cent_judged):
            continue
        feasible = prop is not None and cent is not None
        if feasible != (row["feasible"] == 1.0):
            raise checks.CheckFailed(
                f"trial {trial} at {pt}: CSV feasible={row['feasible']}, "
                f"recomputed proposed={prop} centralized={cent}")
        if not feasible:
            runner.checked += 1
            continue
        if not checks.close(row["power_centralized_w"], cent,
                            checks.SOLVE_RTOL):
            raise checks.CheckFailed(
                f"power_centralized_w {row['power_centralized_w']} != "
                f"recomputed {cent} at {pt}")
        if not checks.close(row["power_proposed_w"], prop, checks.MACRO_SLACK):
            raise checks.CheckFailed(
                f"power_proposed_w {row['power_proposed_w']} != "
                f"closed form {prop} at {pt}")
        alloc = solve_proposed(ch, gm, gf, cfg.p_tol, cfg.noise_power)
        if not checks.close(alloc.total_power, row["power_proposed_w"], 1e-12):
            raise checks.CheckFailed(f"allocation total {alloc.total_power} "
                                     f"is not the CSV's at {pt}")
        checks.check_allocation(ch, beams, alloc, gm, gf, cfg.p_tol,
                                cfg.noise_power)
        runner.checked += 1


def robust_bounds(runner, ch, g, psi, variant):
    """The program's worst-case coefficient stack, as the harness builds it."""
    from hetnet_tr.robust import assemble_bounds

    cfg = runner.cfg
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return assemble_bounds(ch, g, psi, cfg.p_tol, cfg.noise_power,
                               variant=variant)


def robust_trial(runner, seed, trial, points, keyed, sweep_keys):
    """Checks of one fu-outage trial.

    Every row: the cells agree with each other, the non-robust power
    equals this file's own (I - DB)^-1 Dz, each robust design equals this
    file's own fixed point over the program's bound stack, and each
    robust design the program reports feasible is put to this file's own
    error-ball draws. Both robust stacks share a signal floor that sits
    above the nominal signal (fault 2), so a design that misses in the
    ball is tallied, not raised.

    Returns ({design: [rows put to the ball, rows that missed]}, rows on
    which any robust design missed).
    """
    from hetnet_tr.beamform import tr_beamformer_cirs

    cfg = runner.cfg
    ch = channels_of(runner, seed, trial)
    g = tr_beamformer_cirs(ch.h1)
    checks.check_tr(ch.h1, g)
    floor = cfg.p_tol + cfg.noise_power
    # the bound stacks and the error-ball draws depend on psi, not on
    # gamma_f: one of each per psi serves every row of the trial
    stacks = {}
    balls = {}
    ball = {"proposed": [0, 0], "young": [0, 0]}
    missed_rows = 0
    for pt in points:
        row = keyed[(trial, tuple(pt[k] for k in sweep_keys))]
        psi, gf = float(pt["psi"]), db(pt["gamma_f_db"])
        flags = {}
        for label in ("nonrobust", "proposed", "young"):
            flag = row[f"feas_{label}"]
            power = row[f"power_{label}_w"]
            outage = row[f"outage_{label}"]
            if flag not in (0.0, 1.0) or (flag == 1.0) == np.isnan(power) \
                    or (flag == 1.0) == np.isnan(outage) \
                    or (flag == 1.0 and not 0.0 <= outage <= 1.0):
                raise checks.CheckFailed(
                    f"{label} cells {flag}, {power}, {outage} disagree")
            flags[label] = flag == 1.0
        if row["feasible"] != float(all(flags.values())):
            raise checks.CheckFailed(f"row feasible {row['feasible']} with "
                                     f"designs {flags}")
        designs = {"nonrobust": checks.femto_fixed_point(
            ch.h1, g, gf, cfg.p_tol, cfg.noise_power)}
        for label in ("proposed", "young"):
            if (psi, label) not in stacks:
                stacks[psi, label] = robust_bounds(runner, ch, g, psi, label)
            designs[label] = checks.robust_fixed_point(
                stacks[psi, label], gf, cfg.p_tol, cfg.noise_power)
        row_missed = False
        for label, (p1, judged) in designs.items():
            if not judged:
                continue
            if (p1 is not None) != flags[label]:
                raise checks.CheckFailed(f"{label} feasibility {flags} but "
                                         f"recomputed {p1} at {pt}")
            if p1 is not None and not checks.close(
                    row[f"power_{label}_w"], float(np.sum(p1)),
                    checks.SOLVE_RTOL):
                raise checks.CheckFailed(
                    f"power_{label}_w {row[f'power_{label}_w']} != "
                    f"recomputed {float(np.sum(p1))} at {pt}")
            runner.checked += 1
            if label == "nonrobust" or p1 is None:
                continue
            if psi not in balls:
                rng = np.random.default_rng(
                    [checks.BALL_SALT, seed, trial, len(balls)])
                balls[psi] = checks.ball_responses(ch.h1, g, psi, rng)
            ball[label][0] += 1
            if not checks.covers(balls[psi], p1, gf, floor):
                ball[label][1] += 1
                row_missed = True
        missed_rows += row_missed
    return ball, missed_rows


def raw_ms_per_trial(runner):
    return runner.timed_s * 1e3 / runner.trials


def scaled_ms_per_trial(runner):
    """Wall ms per trial at the reference host speed."""
    return raw_ms_per_trial(runner) * runner.gauge.scale()


def end_to_end(runner, walls):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ms_per_trial": (scaled_ms_per_trial(runner), "ms"),
        "setup_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def fault_metrics(runner):
    """Seeded occurrences of the known faults; they vary with the seed."""
    out = {}
    for fault, rounds in runner.aborted.items():
        out[f"faults.{fault.replace('-', '_')}.aborts_per_ktrial"] = (
            1e3 * rounds / runner.trials, "1/ktrial")
    for label, (rows, missed) in runner.ball.items():
        out[f"faults.robust_floor.{label}_miss_pct"] = (
            100.0 * missed / rows if rows else 0.0, "%")
    return out


def run_one(args):
    load_program()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    runner = Runner(args.workload, args.seed, out_dir, tracer)
    runner.run(args.seconds)
    if args.trace:
        tracer.uninstall()
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
        metrics = spans.layer_metrics(tracer.totals(), runner.trials,
                                      tracer.dual_iterations,
                                      tracer.clamp_warnings)
        metrics["trace.ms_per_trial"] = (scaled_ms_per_trial(runner),
                                         "ms/trial")
        metrics["startup.import_s"] = (
            statistics.median(runner.starts.imports), "s")
        metrics["config.load_ms"] = (
            statistics.median(runner.starts.configs), "ms")
        metrics.update(fault_metrics(runner))
    else:
        metrics = end_to_end(runner, runner.starts.walls)
    for msg in runner.errors:
        print(f"perfbench: CHECK FAILED: {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={runner.rounds} "
          f"trials={runner.trials} timed_s={runner.timed_s:.3f} "
          f"raw_ms_per_trial={raw_ms_per_trial(runner):.4f} "
          f"gauge_pass_ms="
          f"{runner.gauge.seconds * 1e3 / runner.gauge.passes:.4f} "
          f"aborted_rounds={json.dumps(runner.aborted)} "
          f"rows_lost={runner.rows_lost} "
          f"ball_rows_missed={json.dumps(runner.ball)} "
          f"feasible_rows={runner.feasible} checked_rows={runner.checked}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results[f"{name}/trace{trace}"] = result
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
