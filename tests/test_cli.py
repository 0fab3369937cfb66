"""Command line tests: exit codes and output files."""

import csv
import math
import warnings
from pathlib import Path

import pytest

from hetnet_tr import cli, harness
from hetnet_tr.cli import _parse_sweep, main
from hetnet_tr.errors import ConfigError

DEFAULT_INI = Path(__file__).resolve().parent.parent / "configs" / "default.ini"


class TestParseSweep:
    def test_single_axis(self):
        assert _parse_sweep(["p_dbm=10,20"]) == {"p_dbm": (10.0, 20.0)}

    def test_multiple_options(self):
        sweep = _parse_sweep(["psi=0.05", "gamma_f_db=-4,-2"])
        assert sweep == {"psi": (0.05,), "gamma_f_db": (-4.0, -2.0)}

    def test_none_is_empty(self):
        assert _parse_sweep(None) == {}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="KEY=V1"):
            _parse_sweep(["p_dbm 10"])

    def test_non_numeric(self):
        with pytest.raises(ConfigError, match="non-numeric"):
            _parse_sweep(["p_dbm=ten"])


class TestValidateCommand:
    def test_default_config_passes(self, capsys):
        assert main(["validate", "--config", str(DEFAULT_INI)]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "total power" in out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nbogus = 1\n", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_taps_below_profile_length_exits_2(self, tmp_path, capsys):
        short = tmp_path / "short.ini"
        short.write_text("[scenario]\ntaps = 4\n", encoding="utf-8")
        assert main(["validate", "--config", str(short)]) == 2
        assert main(["run", "--experiment", "power-compare",
                     "--config", str(short),
                     "--out", str(tmp_path / "r.csv"), "--trials", "1"]) == 2
        assert "longest channel profile" in capsys.readouterr().err

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.ini"
        bad.write_text("[scenario]\nexp_macro = nan\n", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["run", "--experiment", "power-compare",
                     "--config", str(bad),
                     "--out", str(tmp_path / "r.csv"), "--trials", "1"]) == 2
        assert "exp_macro must be finite" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "seed.ini"
        bad.write_text("[scenario]\nseed = -1\n", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["run", "--experiment", "power-compare",
                     "--config", str(DEFAULT_INI),
                     "--out", str(tmp_path / "r.csv"), "--trials", "1",
                     "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err
        assert "seed must be >= 0, got -3" in err

    @pytest.mark.parametrize("body", ["exp_femto = 1000", "d_femto = 1e200",
                                      "d_femto = 1e-200", "gamma_f_db = 4000",
                                      "p_tol_dbm = 4000", "gamma_m_db = -4000",
                                      "gamma_f_db = -4000"])
    def test_path_loss_overflow_exits_2(self, tmp_path, capsys, monkeypatch,
                                        body):
        """The exponent fails when channels are drawn. A radius or a dB
        value beyond double precision fails at load, before any node is
        placed (a radius whose square underflows would place forever, and
        a target that underflows to 0 has no certified least power)."""
        message = {"exp_femto = 1000": "tap variance zero or not finite",
                   "d_femto = 1e200": "d_femto = 1e+200 m puts the farthest "
                                      "link",
                   "d_femto = 1e-200": "d_femto = 1e-200 m is below double "
                                       "precision",
                   "gamma_f_db = 4000": "gamma_f_db must be finite in linear "
                                        "units",
                   "p_tol_dbm = 4000": "p_tol_dbm must be finite in linear "
                                       "units",
                   "gamma_m_db = -4000": "gamma_m_db must be positive in "
                                         "linear units",
                   "gamma_f_db = -4000": "gamma_f_db must be positive in "
                                         "linear units"}[body]
        if body != "exp_femto = 1000":
            def unreachable(*args):
                raise AssertionError("nodes placed for a rejected config")

            monkeypatch.setattr(cli, "place_nodes", unreachable)
            monkeypatch.setattr(harness, "place_nodes", unreachable)
        bad = tmp_path / "far.ini"
        bad.write_text(f"[scenario]\n{body}\n", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["run", "--experiment", "power-compare",
                     "--config", str(bad),
                     "--out", str(tmp_path / "r.csv"), "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2
        assert "inf m" not in err

    @pytest.mark.parametrize("noise, stage", [("1e305", "femto"),
                                              ("1e300", "macro")])
    def test_overflowing_power_exits_3(self, tmp_path, capsys, noise, stage):
        """A power requirement beyond double precision is infeasible as
        such, with no numpy warning, no inf power and no spectral-radius
        reason; a run over the same config reports nothing else."""
        big = tmp_path / "noise.ini"
        big.write_text(f"[scenario]\nnoise_power = {noise}\n",
                       encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", "--config", str(big)]) == 3
            assert main(["run", "--experiment", "power-compare",
                         "--config", str(big),
                         "--out", str(tmp_path / "r.csv"), "--trials", "1"]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert f"stage '{stage}'" in err and "overflows a double" in err
        for wrong in ("RuntimeWarning", "inf W", "spectral radius"):
            assert wrong not in err

    @pytest.mark.parametrize("experiment, body, trials", [
        ("robust-power", "[scenario]\nnoise_power = 3e304\n", "4"),
        ("fu-outage", "[scenario]\nnoise_power = 1e305\n"
                      "[experiment]\nerror_draws = 200\n", "2")],
        ids=["robust-power", "fu-outage"])
    def test_overflowing_total_power_is_unsolved(self, tmp_path, monkeypatch,
                                                 experiment, body, trials):
        """A design whose powers fit in a double but whose total does not
        counts as unsolved: no numpy warning, no inf cell, and no flag of 1
        beside a power or outage that is not finite."""
        monkeypatch.setenv("HETNET_TR_THREADS", "1")
        big = tmp_path / "noise.ini"
        big.write_text(body, encoding="utf-8")
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--experiment", experiment,
                         "--config", str(big), "--out", str(out),
                         "--trials", trials]) == 3
        text = out.read_text(encoding="utf-8")
        assert "inf" not in text
        for row in csv.DictReader(text.splitlines()):
            for k in harness._DESIGNS:
                if row[f"feas_{k}"] == "1.0":
                    assert math.isfinite(float(row[f"power_{k}_w"]))
                    assert math.isfinite(float(row.get(f"outage_{k}", 0)))

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "no.ini")]) == 2


class TestRunCommand:
    def test_small_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["run", "--experiment", "tr-vs-zf",
                     "--config", str(DEFAULT_INI), "--out", str(out),
                     "--trials", "2", "--seed", "5",
                     "--sweep", "p_dbm=20,24"])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("row,trial,p_dbm")
        assert len(lines) == 1 + 4 + 2  # header, trial rows, summaries
        assert "feasible rows: 4/4" in capsys.readouterr().out

    def test_foreign_sweep_key_exits_2(self, tmp_path, capsys):
        code = main(["run", "--experiment", "tr-vs-zf",
                     "--config", str(DEFAULT_INI),
                     "--out", str(tmp_path / "r.csv"),
                     "--trials", "1", "--sweep", "psi=0.1"])
        assert code == 2

    def test_malformed_sweep_exits_2(self, tmp_path):
        code = main(["run", "--experiment", "tr-vs-zf",
                     "--config", str(DEFAULT_INI),
                     "--out", str(tmp_path / "r.csv"),
                     "--trials", "1", "--sweep", "p_dbm="])
        assert code == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code = main(["run", "--experiment", "tr-vs-zf",
                     "--config", str(DEFAULT_INI),
                     "--out", str(tmp_path / "missing" / "r.csv"),
                     "--trials", "1", "--sweep", "p_dbm=20"])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["missing/r.csv", "."])
    def test_unusable_output_fails_before_any_trial(self, tmp_path, capsys,
                                                    monkeypatch, out):
        """A missing directory or a directory as --out exits 2 before the
        first scenario is drawn, not after every trial has run."""
        import hetnet_tr.harness as harness

        drawn = []
        monkeypatch.setattr(harness, "_draw_scenario",
                            lambda *args: drawn.append(args))
        code = main(["run", "--experiment", "fu-outage",
                     "--config", str(DEFAULT_INI),
                     "--out", str(tmp_path / out), "--trials", "200"])
        assert code == 2
        assert "cannot write output" in capsys.readouterr().err
        assert drawn == []

    def test_infeasible_everywhere_exits_3(self, tmp_path, capsys):
        # the wide-error robust family needs a far lower SINR target than
        # the default config carries, so every trial reports infeasible
        code = main(["run", "--experiment", "robust-power",
                     "--config", str(DEFAULT_INI),
                     "--out", str(tmp_path / "r.csv"),
                     "--trials", "2", "--seed", "5",
                     "--sweep", "psi=0.04"])
        assert code == 3
        assert "no feasible trial" in capsys.readouterr().err

    def test_unknown_experiment_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--experiment", "mystery",
                  "--config", str(DEFAULT_INI),
                  "--out", str(tmp_path / "r.csv")])
