"""Command line tests: exit codes and output files."""

from pathlib import Path

import pytest

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

    @pytest.mark.parametrize("body", ["exp_femto = 1000", "d_femto = 1e200"])
    def test_path_loss_overflow_exits_2(self, tmp_path, capsys, body):
        """The exponent fails when channels are drawn, the radius at load."""
        message = {"exp_femto = 1000": "tap variance zero or not finite",
                   "d_femto = 1e200": "d_femto = 1e+200 m puts the farthest "
                                      "link"}[body]
        bad = tmp_path / "far.ini"
        bad.write_text(f"[scenario]\n{body}\n", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["run", "--experiment", "power-compare",
                     "--config", str(bad),
                     "--out", str(tmp_path / "r.csv"), "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2
        assert "inf m" not in err

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
