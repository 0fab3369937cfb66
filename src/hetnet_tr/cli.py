"""Command line front end.

Two subcommands: `run` executes one experiment from a scenario config and
writes its CSV; `validate` loads a config, draws one scenario at the
configured seed, and solves the nominal allocation as a smoke check.

Exit codes: 0 success, 2 config or output error, 3 infeasible everywhere,
4 numerical failure.
"""

import argparse
import sys

import numpy as np

from .beamform import design_beamformers
from .channel import draw_channel_set, place_nodes
from .config import load_config
from .errors import ConfigError, InfeasibleError, NumericalError
from .harness import EXPERIMENTS, ExperimentSpec, run_experiment
from .power import solve_proposed
from .sinr import couple, victim_sinrs


def _parse_sweep(items):
    """Turn repeated KEY=V1,V2,... options into a sweep dict."""
    sweep = {}
    for item in items or ():
        key, sep, rest = item.partition("=")
        key = key.strip()
        if not sep or not key or not rest.strip():
            raise ConfigError(f"sweep option must look like KEY=V1,V2,... "
                              f"got {item!r}")
        try:
            values = tuple(float(tok) for tok in rest.split(","))
        except ValueError:
            raise ConfigError(f"sweep {key!r} has a non-numeric value "
                              f"in {rest!r}") from None
        sweep[key] = values
    return sweep


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hetnet-tr",
        description="Two-tier downlink power control experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write a CSV")
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--config", required=True, help="scenario INI file")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--trials", type=int, default=None,
                     help="override the configured trial count")
    run.add_argument("--seed", type=int, default=None,
                     help="override the configured base seed")
    run.add_argument("--sweep", action="append", metavar="KEY=V1,V2,...",
                     help="override one sweep axis; repeatable")

    val = sub.add_parser("validate",
                         help="load a config and solve one nominal scenario")
    val.add_argument("--config", required=True, help="scenario INI file")
    return parser


def _cmd_run(args):
    settings = load_config(args.config)
    cfg = settings.scenario
    spec = ExperimentSpec(
        name=args.experiment,
        trials=args.trials if args.trials is not None else settings.trials,
        sweep=_parse_sweep(args.sweep),
        seed=args.seed if args.seed is not None else cfg.seed,
        output_path=args.out,
    )
    rows = run_experiment(spec, cfg, error_draws=settings.error_draws)
    feasible = sum(1 for r in rows if r.feasible)
    print(f"{spec.name}: {len(rows)} rows ({spec.trials} trials x "
          f"{len(rows) // spec.trials} points) -> {spec.output_path}")
    if feasible == 0:
        print("no feasible trial at any sweep point", file=sys.stderr)
        return 3
    print(f"feasible rows: {feasible}/{len(rows)}")
    return 0


def _cmd_validate(args):
    settings = load_config(args.config)
    cfg = settings.scenario
    rng = np.random.default_rng(cfg.seed)
    geometry = place_nodes(cfg, rng)
    channels = draw_channel_set(cfg, geometry, rng)
    coupling = couple(channels, design_beamformers(channels))
    result = solve_proposed(channels, cfg.gamma_m, cfg.gamma_f, cfg.p_tol,
                            cfg.noise_power, coupling=coupling)
    sinrs = victim_sinrs(coupling, np.concatenate([result.p0, result.p1]),
                         cfg.noise_power, cross_override=cfg.p_tol)
    print(f"config ok: scenario {cfg.m0}x{cfg.n0} macro / {cfg.m1}x{cfg.n1} "
          f"femto, seed {cfg.seed}")
    print(f"nominal allocation: total power {float(result.total_power):.6e} W, "
          f"min MU SINR {float(np.min(sinrs[coupling.macro])):.4f}, "
          f"min FU SINR {float(np.min(sinrs[coupling.femto])):.4f}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
