"""Experiment harness: experiment registry, trial runners, CSV output.

Experiments are trial-parallel. Every trial derives its own generator
from (seed, trial id), so output bytes depend only on (spec, config) and
never on worker count or scheduling; HETNET_TR_THREADS sets the worker
count (default 1, at most os.cpu_count()).
"""

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beamform import design_beamformers, tr_beamformer_cirs, zf_select_cirs
from .channel import draw_channel_set, place_nodes
from .errors import ConfigError, InfeasibleError
from .linops import responses
from .power import solve_centralized, solve_proposed
from .robust import (
    assemble_bounds,
    proposed_upper,
    sample_true_channels,
    solve_robust,
    worst_case_oracle,
    worst_signal_lower,
    young_upper,
)
from .sinr import Coupling, couple, coupling_terms, victim_sinrs


# ---------------------------------------------------------------------------
# experiment definitions

# value columns per experiment, in CSV order
_VALUE_KEYS = {
    "power-compare": ("power_proposed_w", "power_centralized_w"),
    "mu-outage": ("outage_rate", "power_total_w"),
    "tr-vs-zf": ("sinr_tr_db", "sinr_zf_db"),
    "bound-tightness": ("young_w", "proposed_w", "oracle_max_w",
                        "floor_w", "oracle_min_w", "gap_db"),
    "fu-outage": ("outage_nonrobust", "outage_proposed", "outage_young",
                  "power_nonrobust_w", "power_proposed_w", "power_young_w",
                  "feas_nonrobust", "feas_proposed", "feas_young"),
    "robust-power": ("power_nonrobust_w", "power_proposed_w",
                     "power_young_w", "feas_nonrobust", "feas_proposed",
                     "feas_young"),
}

_SWEEP_ORDER = {
    "power-compare": ("gamma_m_db", "gamma_f_db"),
    "mu-outage": ("gamma_m_db",),
    "tr-vs-zf": ("p_dbm",),
    "bound-tightness": ("psi",),
    "fu-outage": ("psi", "gamma_f_db"),
    "robust-power": ("psi", "gamma_f_db"),
}

_DEFAULT_SWEEPS = {
    "power-compare": {"gamma_m_db": (-3.0, -1.0, 1.0),
                      "gamma_f_db": tuple(float(v) for v in range(-4, 5))},
    "mu-outage": {"gamma_m_db": tuple(float(v) for v in range(-4, 5))},
    "tr-vs-zf": {"p_dbm": tuple(float(v) for v in range(10, 41, 2))},
    "bound-tightness": {"psi": (0.05, 0.1)},
    "fu-outage": {"psi": (0.04,),
                  "gamma_f_db": (-6.0, -4.0, -2.0, 0.0, 2.0)},
    "robust-power": {"psi": (0.0, 0.01, 0.02, 0.04, 0.08)},
}

_SWEEP_RANGES = {
    "gamma_m_db": (-30.0, 30.0),
    "gamma_f_db": (-30.0, 30.0),
    "p_dbm": (-30.0, 60.0),
    "psi": (0.0, 0.999),
}

EXPERIMENTS = tuple(_VALUE_KEYS)

# femto designs of the robust experiments, in CSV column order
_DESIGNS = ("nonrobust", "proposed", "young")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment request: what to run, at what scale, where to write.

    sweep maps parameter names to value tuples; omitted parameters fall
    back to the experiment's default grid, and parameters outside both the
    sweep and the defaults come from the scenario config.
    """

    name: str
    trials: int
    sweep: dict
    seed: int
    output_path: str

    def validate(self):
        if self.name not in _VALUE_KEYS:
            raise ConfigError(f"unknown experiment {self.name!r}; "
                              f"expected one of {', '.join(EXPERIMENTS)}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.output_path:
            raise ConfigError("output path must be non-empty")
        allowed = set(_SWEEP_ORDER[self.name])
        for key, values in self.sweep.items():
            if key not in allowed:
                raise ConfigError(
                    f"experiment {self.name!r} does not sweep {key!r}; "
                    f"allowed: {', '.join(sorted(allowed))}")
            if not values:
                raise ConfigError(f"sweep {key!r} needs at least one value")
            lo, hi = _SWEEP_RANGES[key]
            for v in values:
                if not lo <= float(v) <= hi:
                    raise ConfigError(
                        f"sweep {key}={v} outside [{lo}, {hi}]")
        return self

    def sweep_points(self):
        """Ordered grid of sweep-point dicts (cartesian product)."""
        merged = dict(_DEFAULT_SWEEPS[self.name])
        for key, values in self.sweep.items():
            merged[key] = tuple(float(v) for v in values)
        keys = [k for k in _SWEEP_ORDER[self.name] if k in merged]
        return [dict(zip(keys, combo))
                for combo in itertools.product(*(merged[k] for k in keys))]


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (trial, sweep point): ordered key/value pairs."""

    trial: int
    sweep: tuple
    values: tuple
    feasible: bool


def _db(x):
    return 10.0 ** (float(x) / 10.0)


def _dbm(x):
    return 10.0 ** ((float(x) - 30.0) / 10.0)


def _draw_scenario(cfg, seed, trial):
    """Placement and channels for one trial, plus the continuing generator."""
    rng = np.random.default_rng([seed, trial])
    geometry = place_nodes(cfg, rng)
    channels = draw_channel_set(cfg, geometry, rng)
    return channels, rng


def _record(trial, point, keys, values, feasible):
    return TrialRecord(trial=trial, sweep=tuple(point.items()),
                       values=tuple(zip(keys, values)), feasible=feasible)


def _trial_coupling(channels):
    """Beams and their full coupling, shared by every sweep point of a trial.

    Neither depends on the SINR targets. None when the ZF design has no
    reachable tap for some MU: every point of the trial is then infeasible.
    """
    try:
        return couple(channels, design_beamformers(channels))
    except InfeasibleError:
        return None


def _power_compare_trial(trial, cfg, points, extra, seed):
    channels, _ = _draw_scenario(cfg, seed, trial)
    coupling = _trial_coupling(channels)
    keys = _VALUE_KEYS["power-compare"]
    if coupling is None:
        return [_record(trial, pt, keys, (float("nan"), float("nan")), False)
                for pt in points]
    rows = []
    for pt in points:
        gm = _db(pt["gamma_m_db"])
        gf = _db(pt["gamma_f_db"])
        try:
            prop = solve_proposed(channels, gm, gf, cfg.p_tol,
                                  cfg.noise_power, coupling=coupling)
            cent = solve_centralized(coupling, gm, gf, cfg.noise_power)
            rows.append(_record(trial, pt, keys,
                                (float(prop.total_power),
                                 float(cent.total_power)), True))
        except InfeasibleError:
            rows.append(_record(trial, pt, keys,
                                (float("nan"), float("nan")), False))
    return rows


def _mu_outage_trial(trial, cfg, points, extra, seed):
    channels, _ = _draw_scenario(cfg, seed, trial)
    coupling = _trial_coupling(channels)
    keys = _VALUE_KEYS["mu-outage"]
    if coupling is None:
        return [_record(trial, pt, keys, (1.0, float("nan")), False)
                for pt in points]
    rows = []
    for pt in points:
        gm = _db(pt["gamma_m_db"])
        try:
            prop = solve_proposed(channels, gm, cfg.gamma_f, cfg.p_tol,
                                  cfg.noise_power, coupling=coupling)
            # the slack absorbs rounding: solved SINRs meet their target
            # with equality
            outage = float(np.mean(prop.sinr_mu < gm * (1.0 - 1e-6)))
            rows.append(_record(trial, pt, keys,
                                (outage, float(prop.total_power)), True))
        except InfeasibleError:
            rows.append(_record(trial, pt, keys, (1.0, float("nan")), False))
    return rows


def _tr_vs_zf_trial(trial, cfg, points, extra, seed):
    channels, _ = _draw_scenario(cfg, seed, trial)
    h1 = channels.h1
    n1 = h1.shape[1]
    tr = Coupling(0, *coupling_terms(tr_beamformer_cirs(h1), h1, cfg.taps))
    u_zf, taps_zf = zf_select_cirs(h1, strict=False)
    zf = Coupling(0, *coupling_terms(u_zf, h1, taps_zf))
    keys = _VALUE_KEYS["tr-vs-zf"]
    rows = []
    for pt in points:
        powers = np.full(n1, _dbm(pt["p_dbm"]))
        # one tier alone, against the tolerated cross-tier floor
        s_tr = victim_sinrs(tr, powers, cfg.noise_power, cfg.p_tol)
        s_zf = victim_sinrs(zf, powers, cfg.noise_power, cfg.p_tol)
        # dB per trial so the summary mean is tail-robust (geometric)
        rows.append(_record(trial, pt, keys,
                            (float(10.0 * np.log10(np.mean(s_tr))),
                             float(10.0 * np.log10(np.mean(s_zf)))),
                            True))
    return rows


def _bound_tightness_trial(trial, cfg, points, extra, seed):
    channels, rng = _draw_scenario(cfg, seed, trial)
    g = tr_beamformer_cirs(channels.h1)[:, 0, :]
    h = channels.h1[:, 0, :]
    keys = _VALUE_KEYS["bound-tightness"]
    rows = []
    for pt in points:
        psi = float(pt["psi"])
        young = young_upper(g, h, psi)
        prop = proposed_upper(g, h, psi)
        floor = worst_signal_lower(g, h, psi)
        wc = worst_case_oracle(g, h, psi, rng=rng)
        gap_db = float(10.0 * np.log10(young / prop))
        rows.append(_record(trial, pt, keys,
                            (young, prop, wc.max_energy, floor,
                             wc.min_central, gap_db), True))
    return rows


def _robust_stacks(channels, g, psi, cfg):
    """Both worst-case coefficient stacks at one error fraction.

    They depend on psi but not on the SINR target, so a trial builds them
    once per psi and every gamma_f reuses them.
    """
    return {variant: assemble_bounds(channels, g, psi, cfg.p_tol,
                                     cfg.noise_power, variant=variant)
            for variant in ("proposed", "young")}


def _robust_designs(nominal, stacks, gamma_f, cfg):
    """Non-robust and both robust allocations; None marks infeasibility.

    nominal is the trial's psi = 0 stack, the exact-CSI coefficients of
    its TR beams, and stacks the _robust_stacks of those beams at the
    row's psi; one solve serves all three.
    """
    designs = {}
    for label, bounds in (("nonrobust", nominal), *stacks.items()):
        try:
            designs[label] = solve_robust(bounds, gamma_f, cfg.p_tol,
                                          cfg.noise_power)
        except InfeasibleError:
            designs[label] = None
    return designs


def _design_row(designs):
    """(powers, flags, feasible) over the three designs.

    A row is feasible only when all three designs solve.
    """
    solved = [designs[k] is not None for k in _DESIGNS]
    powers = [float(np.sum(designs[k])) if ok else float("nan")
              for k, ok in zip(_DESIGNS, solved)]
    return powers, [1.0 if ok else 0.0 for ok in solved], all(solved)


def _ball_statistics(h1, g, psi, rng, draws):
    """(tot, main) of every TR beam over each FU's sampled true channels.

    Each draw is one victim of linops.responses, so one product per FU
    gives every beam's response on every draw of that FU. tot[j, p, k] is
    beam k's response energy on FU j's draw p and main[j, p] the power of
    FU j's own beam at the central tap there.
    """
    _, n1, taps = g.shape
    tot = np.empty((n1, draws, n1))
    main = np.empty((n1, draws))
    for j in range(n1):
        truths = sample_true_channels(h1[:, j, :], psi, rng, count=draws)
        resp = responses(g, truths.transpose(1, 0, 2))
        tot[j] = np.sum(np.abs(resp) ** 2, axis=2)
        main[j] = np.abs(resp[:, j, taps - 1]) ** 2
    return tot, main


def _ball_outages(tot, main, designs, gamma_f, floor):
    """Each design's fraction of (FU, draw) pairs below the SINR target.

    tot and main are _ball_statistics; a design that did not solve scores
    nan. Every solved design, FU and draw is scored in one array
    expression.
    """
    n1, draws = main.shape
    solved = [k for k in _DESIGNS if designs[k] is not None]
    p = np.array([designs[k] for k in solved]).reshape(len(solved), n1)
    fu = np.arange(n1)
    own = tot[fu, :, fu]
    p_own = p[:, :, None]
    sig = p_own * main
    isi = p_own * (own - main)
    co = np.matmul(tot, p[:, None, :, None])[..., 0] - p_own * own
    achieved = sig / (isi + co + floor)
    miss = np.count_nonzero(achieved < gamma_f * (1.0 - 1e-6), axis=(1, 2))
    outage = {k: int(m) / float(draws * n1) for k, m in zip(solved, miss)}
    return [outage.get(k, float("nan")) for k in _DESIGNS]


def _fu_outage_trial(trial, cfg, points, extra, seed):
    channels, rng = _draw_scenario(cfg, seed, trial)
    g = tr_beamformer_cirs(channels.h1)
    nominal = assemble_bounds(channels, g, 0.0, cfg.p_tol, cfg.noise_power)
    draws = int(extra["error_draws"])
    keys = _VALUE_KEYS["fu-outage"]
    floor = cfg.p_tol + cfg.noise_power
    per_psi = {}
    rows = []
    for pt in points:
        psi = float(pt["psi"])
        gf = _db(pt["gamma_f_db"])
        if psi not in per_psi:
            per_psi[psi] = (
                _ball_statistics(channels.h1, g, psi, rng, draws),
                _robust_stacks(channels, g, psi, cfg))
        (tot, main), stacks = per_psi[psi]
        designs = _robust_designs(nominal, stacks, gf, cfg)
        outages = _ball_outages(tot, main, designs, gf, floor)
        powers, flags, feasible = _design_row(designs)
        rows.append(_record(trial, pt, keys,
                            (*outages, *powers, *flags), feasible))
    return rows


def _robust_power_trial(trial, cfg, points, extra, seed):
    channels, _ = _draw_scenario(cfg, seed, trial)
    g = tr_beamformer_cirs(channels.h1)
    nominal = assemble_bounds(channels, g, 0.0, cfg.p_tol, cfg.noise_power)
    keys = _VALUE_KEYS["robust-power"]
    per_psi = {}
    rows = []
    for pt in points:
        psi = float(pt["psi"])
        gf = _db(pt.get("gamma_f_db", cfg.gamma_f_db))
        if psi not in per_psi:
            per_psi[psi] = _robust_stacks(channels, g, psi, cfg)
        designs = _robust_designs(nominal, per_psi[psi], gf, cfg)
        powers, flags, feasible = _design_row(designs)
        rows.append(_record(trial, pt, keys, (*powers, *flags), feasible))
    return rows


_TRIAL_FUNCS = {
    "power-compare": _power_compare_trial,
    "mu-outage": _mu_outage_trial,
    "tr-vs-zf": _tr_vs_zf_trial,
    "bound-tightness": _bound_tightness_trial,
    "fu-outage": _fu_outage_trial,
    "robust-power": _robust_power_trial,
}


# ---------------------------------------------------------------------------
# runner and CSV emission

def _trial_worker(payload):
    name, trial, cfg, points, extra, seed = payload
    return _TRIAL_FUNCS[name](trial, cfg, points, extra, seed)


def _worker_count():
    raw = os.environ.get("HETNET_TR_THREADS")
    if raw is None or raw == "":
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(
            f"HETNET_TR_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError("HETNET_TR_THREADS must be >= 1")
    return min(n, os.cpu_count() or 1)


def _format_cell(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit_csv(path, name, points, rows):
    """Trial rows then per-point summary rows; floats via repr for exactness.

    Summary rows average each value column over the point's feasible
    trials (nan when none) and carry the feasible fraction in the
    feasible column; their trial column is -1.
    """
    sweep_keys = list(points[0].keys()) if points else []
    value_keys = list(_VALUE_KEYS[name])
    lines = [",".join(["row", "trial", *sweep_keys, *value_keys,
                       "feasible"])]
    groups = {}
    for r in rows:
        cells = ["trial", str(r.trial)]
        sweep = dict(r.sweep)
        vals = dict(r.values)
        cells += [_format_cell(float(sweep[k])) for k in sweep_keys]
        cells += [_format_cell(float(vals[k])) for k in value_keys]
        cells.append("1" if r.feasible else "0")
        lines.append(",".join(cells))
        groups.setdefault(r.sweep, []).append(r)
    for pt in points:
        group = groups.get(tuple(pt.items()), [])
        feas = [r for r in group if r.feasible]
        cells = ["summary", "-1"]
        cells += [_format_cell(float(pt[k])) for k in sweep_keys]
        for k in value_keys:
            if feas:
                mean = float(np.mean([dict(r.values)[k] for r in feas]))
            else:
                mean = float("nan")
            cells.append(_format_cell(mean))
        rate = len(feas) / len(group) if group else float("nan")
        cells.append(_format_cell(float(rate)))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(spec, config, error_draws=10_000):
    """Run all trials of an experiment and write its CSV.

    Deterministic given (spec, config): trial t draws its generator from
    (spec.seed, t) regardless of how trials are spread over workers.
    Returns the trial records; summary rows exist only in the file.
    """
    spec.validate()
    config.validate()
    points = spec.sweep_points()
    extra = {"error_draws": int(error_draws)}
    payloads = [(spec.name, t, config, points, extra, spec.seed)
                for t in range(spec.trials)]
    workers = min(_worker_count(), spec.trials)
    if workers == 1:
        batches = [_trial_worker(p) for p in payloads]
    else:
        chunk = max(1, spec.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_trial_worker, payloads,
                                    chunksize=chunk))
    rows = [r for batch in batches for r in batch]
    _emit_csv(spec.output_path, spec.name, points, rows)
    return rows
