"""Experiment harness: experiment registry, trial runner, CSV output.

Each experiment is one _REGISTRY entry, and one loop, _run_stack, runs a
stack of consecutive trials of any of them: every trial of the stack
draws its own scenario, one setup builds the beams and couplings of all
of them with the kernels' leading trial axis, and then each trial's
sweep points run one by one.

Every trial derives its own generator from (seed, trial id), and a
trial's bits do not depend on the stack it runs in, so output bytes
depend only on (spec, config) and never on worker count or scheduling.
HETNET_TR_THREADS sets the worker count (default 1, at most
os.cpu_count()); with more than one, each stack is one task of a pool of
spawned workers, which import the package afresh, so a script that runs
an experiment on more than one worker needs an
`if __name__ == "__main__":` guard.
"""

import functools
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beamform import BeamformerSet, tr_beamformer_cirs, zf_select_cirs
from .channel import ChannelSet, draw_channel_set, place_nodes
from .errors import ConfigError, InfeasibleError
from .linops import real_response_map
from .power import solve_centralized, solve_proposed
from .robust import (
    _ball,
    _ball_steps,
    assemble_bounds,
    link_bounds,
    solve_robust,
    worst_case_oracle,
)
from .sinr import Coupling, couple, coupling_terms, victim_terms


_SWEEP_RANGES = {
    "gamma_m_db": (-30.0, 30.0),
    "gamma_f_db": (-30.0, 30.0),
    "p_dbm": (-30.0, 60.0),
    "psi": (0.0, 0.999),
}

# femto designs of the robust experiments, in CSV column order; every
# design after the first is an assemble_bounds variant
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
        if self.name not in _REGISTRY:
            raise ConfigError(f"unknown experiment {self.name!r}; "
                              f"expected one of {', '.join(EXPERIMENTS)}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.output_path:
            raise ConfigError("output path must be non-empty")
        # checked before any trial runs, not when the CSV is written
        folder = os.path.dirname(self.output_path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write output: no directory {folder!r}")
        if os.path.isdir(self.output_path):
            raise ConfigError(f"cannot write output: {self.output_path!r} "
                              "is a directory")
        allowed = set(_REGISTRY[self.name].axes)
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
        axes = _REGISTRY[self.name].axes
        merged = {k: v for k, v in axes.items() if v is not None}
        for key, values in self.sweep.items():
            merged[key] = tuple(float(v) for v in values)
        keys = [k for k in axes if k in merged]
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


def _draw_scenario(cfg, seed, trial):
    """Placement and channels for one trial, plus the continuing generator."""
    rng = np.random.default_rng([seed, trial])
    geometry = place_nodes(cfg, rng)
    channels = draw_channel_set(cfg, geometry, rng)
    return channels, rng


# trials whose setups run as one: large enough to share the kernels' call
# overhead, small enough that a stack's arrays stay a few kilobytes
_STACK = 8


# ---------------------------------------------------------------------------
# experiments: per-stack setups, per-point steps and the registry

def _nominal_setup(channels, rngs, cfg, extra):
    """Beams and their full coupling; neither depends on the SINR targets.

    A trial whose ZF selection leaves a MU without a reachable tap gets
    None.
    """
    stack = ChannelSet.stack(channels)
    u, alpha, reachable = zf_select_cirs(stack.h0)
    beams = BeamformerSet(u=u, alpha=alpha, g=tr_beamformer_cirs(stack.h1),
                          beta=stack.taps)
    return [(ch, coupling) if ok else None for ch, coupling, ok in zip(
        channels, couple(stack, beams).unstack(), reachable)]


def _power_compare_step(state, pt, cfg):
    channels, coupling = state
    gm = _db(pt["gamma_m_db"])
    gf = _db(pt["gamma_f_db"])
    prop = solve_proposed(channels, gm, gf, cfg.p_tol, cfg.noise_power,
                          coupling=coupling)
    cent = solve_centralized(coupling, gm, gf, cfg.noise_power)
    return (float(prop.total_power), float(cent.total_power)), True


def _mu_outage_step(state, pt, cfg):
    channels, coupling = state
    gm = _db(pt["gamma_m_db"])
    prop = solve_proposed(channels, gm, cfg.gamma_f, cfg.p_tol,
                          cfg.noise_power, coupling=coupling)
    # the slack absorbs rounding: solved SINRs meet their target with equality
    outage = float(np.mean(prop.sinr_mu < gm * (1.0 - 1e-6)))
    return (outage, float(prop.total_power)), True


def _tr_vs_zf_setup(channels, rngs, cfg, extra):
    """Single-tier couplings of the TR and the (non-strict) ZF beams."""
    h1 = ChannelSet.stack(channels).h1
    tr = Coupling.from_energy(
        *coupling_terms(tr_beamformer_cirs(h1), h1, cfg.taps))
    u_zf, taps_zf, reachable = zf_select_cirs(h1, strict=False)
    zf = Coupling.from_energy(*coupling_terms(u_zf, h1, taps_zf))
    return [(t, z) if ok else None
            for t, z, ok in zip(tr.unstack(), zf.unstack(), reachable)]


def _mean_sinr_db(coupling, powers, cfg):
    """10 log10 of the mean SINR over a single tier's victims, against the
    tolerated cross-tier floor.

    Each SINR is split exactly into a mantissa ratio and a power of two,
    signal/rest = (ms/mr) 2^e (np.frexp). While every |e| <= 1000 that is
    the plain mean of the SINRs. Beyond, the SINRs are scaled by 2^-max(e)
    and the shift is added back in dB, so an SINR outside the double range
    keeps a finite cell instead of -inf.
    """
    signal, rest = victim_terms(coupling, powers, cfg.noise_power, cfg.p_tol)
    (ms, es), (mr, er) = np.frexp(signal), np.frexp(rest)
    exp = es - er
    shift = int(exp.max()) if np.abs(exp).max() > 1000 else 0
    mean = np.mean(np.ldexp(ms / mr, exp - shift))
    return float(10.0 * (np.log10(mean) + shift * np.log10(2.0)))


def _tr_vs_zf_step(state, pt, cfg):
    tr, zf = state
    powers = np.full(tr.n1, _db(pt["p_dbm"] - 30.0))  # dBm to W
    # dB per trial so the summary mean is tail-robust (geometric)
    return (_mean_sinr_db(tr, powers, cfg),
            _mean_sinr_db(zf, powers, cfg)), True


def _bound_tightness_setup(channels, rngs, cfg, extra):
    """FU 0's TR beam and estimated channel, and the oracle's generator."""
    g = tr_beamformer_cirs(ChannelSet.stack(channels).h1)[..., 0, :]
    return [(g_t, ch.h1[:, 0, :], rng)
            for g_t, ch, rng in zip(g, channels, rngs)]


def _bound_tightness_step(state, pt, cfg):
    g, h, rng = state
    psi = float(pt["psi"])
    young, prop, floor = link_bounds(g, h, psi)
    wc = worst_case_oracle(g, h, psi, rng=rng)
    gap_db = float(10.0 * np.log10(young / prop))
    return (young, prop, wc.max_energy, floor, wc.min_central, gap_db), True


def _robust_setup(channels, rngs, cfg, extra):
    """TR beams, their exact-CSI (psi = 0) stack and a per-psi cache."""
    g = tr_beamformer_cirs(ChannelSet.stack(channels).h1)
    return [(ch, g_t, assemble_bounds(ch, g_t, 0.0, cfg.p_tol,
                                      cfg.noise_power), rng, extra, {})
            for ch, g_t, rng in zip(channels, g, rngs)]


def _robust_point(state, pt, cfg, ball):
    """(error-ball statistics or None, designs, gamma_f) of one row.

    The statistics and the worst-case stacks depend on psi but not on the
    SINR target, so a trial builds them once per psi, the statistics
    first, and every gamma_f reuses them.
    """
    channels, g, nominal, rng, extra, cache = state
    psi = float(pt["psi"])
    if psi not in cache:
        stats = None
        if ball:
            stats = _ball_statistics(channels.h1, g, psi, rng,
                                     int(extra["error_draws"]))
        cache[psi] = stats, {
            variant: assemble_bounds(channels, g, psi, cfg.p_tol,
                                     cfg.noise_power, variant=variant)
            for variant in _DESIGNS[1:]}
    stats, stacks = cache[psi]
    gf = _db(pt.get("gamma_f_db", cfg.gamma_f_db))
    return stats, _robust_designs(nominal, stacks, gf, cfg), gf


def _robust_designs(nominal, stacks, gamma_f, cfg):
    """Every design's allocation; None marks infeasibility.

    nominal is the trial's psi = 0 stack, the exact-CSI coefficients of
    its TR beams, and stacks the robust variants' stacks of those beams
    at the row's psi; one solve serves every design.
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
    """(power then flag cells, feasible); feasible if every design solves."""
    solved = [designs[k] is not None for k in _DESIGNS]
    powers = [float(np.sum(designs[k])) if ok else float("nan")
              for k, ok in zip(_DESIGNS, solved)]
    return (*powers, *(1.0 if ok else 0.0 for ok in solved)), all(solved)


def _ball_statistics(h1, g, psi, rng, draws):
    """(tot, main) of every TR beam over each FU's sampled true channels.

    Responses are linear in the channel: on a draw they are the responses
    at the ball center minus the draw's real step (robust._ball_steps)
    times linops.real_response_map. So one real product per FU gives every
    beam's response on every draw, and no complex true channel is formed.
    tot[j, p, k] is beam k's response energy on FU j's draw p and
    main[j, p] the power of FU j's own beam at the central tap there.
    """
    _, n1, taps = g.shape
    conv = real_response_map(g)
    centers, _ = _ball(h1, psi)
    at_center = np.concatenate([centers.real, centers.imag], axis=-1)
    at_center = at_center.transpose(1, 0, 2).reshape(n1, -1) @ conv
    tot = np.empty((n1, draws, n1))
    main = np.empty((n1, draws))
    for j in range(n1):
        steps = _ball_steps(h1[:, j, :], psi, rng, draws)
        energy = steps.reshape(draws, -1) @ conv
        energy -= at_center[j]  # the negated responses: squared alike
        np.square(energy, out=energy)
        energy = energy.reshape(draws, n1, -1)
        np.einsum("pkt->pk", energy, out=tot[j])
        np.add(energy[:, j, 2 * taps - 2], energy[:, j, 2 * taps - 1],
               out=main[j])
    return tot, main


def _ball_outages(tot, main, designs, gamma_f, floor):
    """Each design's fraction of (FU, draw) pairs below the SINR target.

    tot and main are _ball_statistics; a design that did not solve scores
    nan. Every solved design, FU and draw is scored in one array
    expression, with powers in units of the floor. That leaves every SINR
    unchanged and keeps powers near the top of the double range from
    overflowing when multiplied by an energy.
    """
    n1, draws = main.shape
    solved = [k for k in _DESIGNS if designs[k] is not None]
    p = np.array([designs[k] for k in solved]).reshape(len(solved), n1)
    p = p / floor
    fu = np.arange(n1)
    own = tot[fu, :, fu]
    p_own = p[:, :, None]
    sig = p_own * main
    isi = p_own * (own - main)
    co = np.matmul(tot, p[:, None, :, None])[..., 0] - p_own * own
    achieved = sig / (isi + co + 1.0)
    miss = np.count_nonzero(achieved < gamma_f * (1.0 - 1e-6), axis=(1, 2))
    outage = {k: int(m) / float(draws * n1) for k, m in zip(solved, miss)}
    return [outage.get(k, float("nan")) for k in _DESIGNS]


def _fu_outage_step(state, pt, cfg):
    (tot, main), designs, gf = _robust_point(state, pt, cfg, True)
    outages = _ball_outages(tot, main, designs, gf,
                            cfg.p_tol + cfg.noise_power)
    cells, feasible = _design_row(designs)
    return (*outages, *cells), feasible


def _robust_power_step(state, pt, cfg):
    return _design_row(_robust_point(state, pt, cfg, False)[1])


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its CSV columns, sweep axes and per-trial work.

    values and axes are in CSV order; axes maps each sweep key to its
    default grid, and a None grid leaves the axis out unless swept (the
    step then reads the config value). setup(channels, rngs, cfg, extra)
    builds what each trial of a stack shares across its points, from the
    stack's ChannelSets and generators, and returns one state per trial,
    None for a trial that is infeasible at every point. step(state,
    point, cfg) returns a point's (values, feasible); if it raises
    InfeasibleError, or the state is None, the point gets the infeasible
    row. Both must be this module's own functions, so that they reach the
    kernels and solvers through its module-level names, which tracing
    rebinds.
    """

    values: tuple
    infeasible: tuple
    axes: dict
    setup: object
    step: object


_NAN = float("nan")
_POWERS = tuple(f"power_{k}_w" for k in _DESIGNS)
_FLAGS = tuple(f"feas_{k}" for k in _DESIGNS)
_OUTAGES = tuple(f"outage_{k}" for k in _DESIGNS)

_REGISTRY = {
    "power-compare": _Experiment(
        values=("power_proposed_w", "power_centralized_w"),
        infeasible=(_NAN, _NAN),
        axes={"gamma_m_db": (-3.0, -1.0, 1.0),
              "gamma_f_db": tuple(float(v) for v in range(-4, 5))},
        setup=_nominal_setup, step=_power_compare_step),
    "mu-outage": _Experiment(
        values=("outage_rate", "power_total_w"),
        infeasible=(1.0, _NAN),
        axes={"gamma_m_db": tuple(float(v) for v in range(-4, 5))},
        setup=_nominal_setup, step=_mu_outage_step),
    "tr-vs-zf": _Experiment(
        values=("sinr_tr_db", "sinr_zf_db"),
        infeasible=(_NAN, _NAN),
        axes={"p_dbm": tuple(float(v) for v in range(10, 41, 2))},
        setup=_tr_vs_zf_setup, step=_tr_vs_zf_step),
    "bound-tightness": _Experiment(
        values=("young_w", "proposed_w", "oracle_max_w", "floor_w",
                "oracle_min_w", "gap_db"),
        infeasible=(_NAN,) * 6,
        axes={"psi": (0.05, 0.1)},
        setup=_bound_tightness_setup, step=_bound_tightness_step),
    "fu-outage": _Experiment(
        values=(*_OUTAGES, *_POWERS, *_FLAGS),
        infeasible=(_NAN,) * (2 * len(_DESIGNS)) + (0.0,) * len(_DESIGNS),
        axes={"psi": (0.04,), "gamma_f_db": (-6.0, -4.0, -2.0, 0.0, 2.0)},
        setup=_robust_setup, step=_fu_outage_step),
    "robust-power": _Experiment(
        values=(*_POWERS, *_FLAGS),
        infeasible=(_NAN,) * len(_DESIGNS) + (0.0,) * len(_DESIGNS),
        axes={"psi": (0.0, 0.01, 0.02, 0.04, 0.08), "gamma_f_db": None},
        setup=_robust_setup, step=_robust_power_step),
}

EXPERIMENTS = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# runner and CSV emission

def _run_stack(name, trials, cfg, points, extra, seed):
    """Every TrialRecord of a stack of trials, in trial then point order.

    Each trial draws its scenario, the experiment's setup runs once for
    the stack, and its step once per trial and point. Only here does an
    InfeasibleError become the infeasible row of its point, and a None
    state that of every point of its trial. Each trial's state is dropped
    once its rows are built, so per-trial caches do not pile up.
    """
    exp = _REGISTRY[name]
    channels, rngs = zip(*(_draw_scenario(cfg, seed, t) for t in trials))
    states = exp.setup(channels, rngs, cfg, extra)
    rows = []
    for i, trial in enumerate(trials):
        state, states[i] = states[i], None
        for pt in points:
            values, feasible = exp.infeasible, False
            if state is not None:
                try:
                    values, feasible = exp.step(state, pt, cfg)
                except InfeasibleError:
                    pass
            rows.append(TrialRecord(trial=trial, sweep=tuple(pt.items()),
                                    values=tuple(zip(exp.values, values)),
                                    feasible=feasible))
    return rows


def _worker_count():
    raw = os.environ.get("HETNET_TR_THREADS") or "1"
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(
            f"HETNET_TR_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError("HETNET_TR_THREADS must be >= 1")
    return min(n, os.cpu_count() or 1)


def _mean(cells):
    """np.mean of a summary column, nan when empty; where the sum of finite
    cells overflows, each cell is divided by the count before adding."""
    if not cells:
        return float("nan")
    cells = np.asarray(cells)
    with np.errstate(over="ignore"):
        mean = np.mean(cells)
    if np.isinf(mean) and np.isfinite(cells).all():
        mean = np.sum(cells / cells.size)
    return float(mean)


def _emit_csv(path, name, points, rows):
    """Trial rows then per-point summary rows; floats via repr for exactness.

    Summary rows average each value column over the point's feasible
    trials (nan when none) and carry the feasible fraction in the
    feasible column; their trial column is -1.
    """
    sweep_keys = list(points[0].keys()) if points else []
    value_keys = list(_REGISTRY[name].values)
    lines = [",".join(["row", "trial", *sweep_keys, *value_keys,
                       "feasible"])]
    groups = {}
    for r in rows:
        cells = ["trial", str(r.trial)]
        sweep = dict(r.sweep)
        vals = dict(r.values)
        cells += [repr(float(sweep[k])) for k in sweep_keys]
        cells += [repr(float(vals[k])) for k in value_keys]
        cells.append("1" if r.feasible else "0")
        lines.append(",".join(cells))
        groups.setdefault(r.sweep, []).append(r)
    for pt in points:
        group = groups.get(tuple(pt.items()), [])
        feas = [r for r in group if r.feasible]
        cells = ["summary", "-1"]
        cells += [repr(float(pt[k])) for k in sweep_keys]
        for k in value_keys:
            mean = _mean([dict(r.values)[k] for r in feas])
            cells.append(repr(mean))
        rate = len(feas) / len(group) if group else float("nan")
        cells.append(repr(float(rate)))
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
    run = functools.partial(_run_stack, spec.name, cfg=config, points=points,
                            extra={"error_draws": int(error_draws)},
                            seed=spec.seed)
    # consecutive trials in stacks of _STACK, the last one shorter
    stacks = [range(first, min(first + _STACK, spec.trials))
              for first in range(0, spec.trials, _STACK)]
    workers = min(_worker_count(), spec.trials)
    if workers == 1:
        batches = map(run, stacks)
    else:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(workers, len(stacks)),
                                 mp_context=spawn) as pool:
            batches = list(pool.map(run, stacks))
    rows = [r for batch in batches for r in batch]
    _emit_csv(spec.output_path, spec.name, points, rows)
    return rows
