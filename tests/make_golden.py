"""The golden corpus: every experiment's CSV at five scenario shapes.

Each case runs one experiment on its default grid with seed 12345, 2
trials and ERROR_DRAWS error draws, at one shape of SHAPES, and its CSV is
tests/golden/<experiment>@<shape>.csv. test_golden.py reruns every case
against these files. Regenerate the corpus, after a change that moves a
value on purpose, with

    PYTHONPATH=src python tests/make_golden.py
"""

import sys
from pathlib import Path

from hetnet_tr.channel import ScenarioConfig
from hetnet_tr.harness import EXPERIMENTS, ExperimentSpec, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 12345
TRIALS = 2
ERROR_DRAWS = 200
SHAPES = {
    "default": {},
    "n1=1": {"n1": 1},
    "n0=1,m0=2": {"n0": 1, "m0": 2},
    "m0=2,n0=1,n1=3,m1=1": {"m0": 2, "n0": 1, "n1": 3, "m1": 1},
    "taps=9": {"taps": 9},
}
CASES = [(name, shape) for shape in SHAPES for name in EXPERIMENTS]


def case_file(name, shape):
    return f"{name}@{shape}.csv"


def run_case(name, shape, path):
    """Write one case's CSV to path; its trials are one stack, which runs
    in-process at any worker count."""
    spec = ExperimentSpec(name=name, trials=TRIALS, sweep={}, seed=SEED,
                          output_path=str(path))
    run_experiment(spec, ScenarioConfig(**SHAPES[shape]),
                   error_draws=ERROR_DRAWS)


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name, shape in CASES:
        run_case(name, shape, GOLDEN / case_file(name, shape))
    print(f"wrote {len(CASES)} CSVs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
