"""Every experiment at five shapes reproduces the golden corpus.

The row order, every flag, every nan position and every outage cell
must match exactly, and every other value cell to 1e-12 relative: BLAS
kernels may round differently on another CPU. make_golden.py states the
cases and regenerates the corpus.
"""

import csv
import math

import pytest

from make_golden import CASES, GOLDEN, case_file, run_case

_RTOL = 1e-12


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# row keys, sweep values and flags, then the outage fractions
_EXACT = ("row", "trial", "psi", "gamma_m_db", "gamma_f_db", "p_dbm",
          "feasible")


def _exact(column):
    return column in _EXACT or column.startswith(("feas_", "outage"))


@pytest.mark.parametrize("name,shape", CASES,
                         ids=[f"{n}@{s}" for n, s in CASES])
def test_matches_golden_corpus(tmp_path, name, shape):
    path = tmp_path / "out.csv"
    run_case(name, shape, path)
    got = _read(path)
    want = _read(GOLDEN / case_file(name, shape))
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0]
    for line, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        for column, g, w in zip(header, g_row, w_row):
            where = f"line {line}, column {column}"
            if _exact(column):
                assert g == w, where
                continue
            g, w = float(g), float(w)
            assert math.isnan(g) == math.isnan(w), where
            if not math.isnan(w):
                assert abs(g - w) <= _RTOL * abs(w), where
