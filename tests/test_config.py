"""INI loading tests: defaults, overrides, rejection of malformed input."""

from pathlib import Path

import numpy as np
import pytest

from hetnet_tr.channel import draw_channel_set, place_nodes
from hetnet_tr.config import Settings, load_config
from hetnet_tr.errors import ConfigError

DEFAULT_INI = Path(__file__).resolve().parent.parent / "configs" / "default.ini"


def write_ini(tmp_path, body):
    path = tmp_path / "scenario.ini"
    path.write_text(body, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_shipped_default(self):
        settings = load_config(DEFAULT_INI)
        assert isinstance(settings, Settings)
        cfg = settings.scenario
        assert (cfg.m0, cfg.m1, cfg.n0, cfg.n1) == (4, 4, 2, 2)
        assert cfg.taps == 6
        assert cfg.seed == 12345
        assert settings.trials == 1000
        assert settings.error_draws == 10_000

    def test_partial_override_keeps_defaults(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nn1 = 3\ngamma_f_db = -4.0\n")
        cfg = load_config(path).scenario
        assert cfg.n1 == 3
        assert cfg.gamma_f_db == -4.0
        assert cfg.m0 == 4

    def test_inline_comments_stripped(self, tmp_path):
        path = write_ini(tmp_path,
                         "[scenario]\nn1 = 4  # wide femto tier\n"
                         "[experiment]\ntrials = 7 ; small\n")
        settings = load_config(path)
        assert settings.scenario.n1 == 4
        assert settings.trials == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_malformed_file(self, tmp_path):
        path = write_ini(tmp_path, "n1 = 3\n")  # key before any section
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nn1 = 2\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config section"):
            load_config(path)

    def test_unknown_scenario_key(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nantennas = 4\n")
        with pytest.raises(ConfigError, match="antennas"):
            load_config(path)

    def test_retired_xi_key_rejected(self, tmp_path):
        """xi was never read; a config that still sets it is refused."""
        from hetnet_tr.cli import main

        path = write_ini(tmp_path, "[scenario]\nxi = 0.0\n")
        with pytest.raises(ConfigError, match=r"unknown \[scenario\] key 'xi'"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2

    def test_retired_psi_key_rejected(self, tmp_path):
        """Every experiment that reads psi sweeps it; a config that still
        sets psi is refused."""
        from hetnet_tr.cli import main

        path = write_ini(tmp_path, "[scenario]\npsi = 0.04\n")
        with pytest.raises(ConfigError,
                           match=r"unknown \[scenario\] key 'psi'"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2

    def test_negative_seed_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nseed = -1\n")
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            load_config(path)

    @pytest.mark.parametrize("key,raw", [("exp_femto", "1000"),
                                         ("d_femto", "1e200")])
    def test_path_loss_beyond_double_precision_rejected(self, tmp_path, key,
                                                        raw):
        """A radius whose link distances have no finite square fails at load
        time; an exponent whose path loss overflows loads, but its channels
        cannot be drawn."""
        path = write_ini(tmp_path, f"[scenario]\n{key} = {raw}\n")
        if key == "d_femto":
            with pytest.raises(ConfigError,
                               match=r"d_femto = 1e\+200 m .* not finite"):
                load_config(path)
            return
        cfg = load_config(path).scenario
        rng = np.random.default_rng(cfg.seed)
        with pytest.raises(ConfigError,
                           match="tap variance zero or not finite"):
            draw_channel_set(cfg, place_nodes(cfg, rng), rng)

    def test_unknown_experiment_key(self, tmp_path):
        path = write_ini(tmp_path, "[experiment]\nruns = 3\n")
        with pytest.raises(ConfigError, match="runs"):
            load_config(path)

    def test_non_numeric_value(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nm1 = four\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_int_field_rejects_float(self, tmp_path):
        path = write_ini(tmp_path, "[scenario]\nn0 = 2.5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("key,raw", [
        ("exp_macro", "nan"), ("noise_power", "nan"), ("p_tol_dbm", "nan"),
        ("d_femto", "nan"), ("d_macro", "inf"), ("gamma_f_db", "-inf")])
    def test_non_finite_float_rejected(self, tmp_path, key, raw):
        path = write_ini(tmp_path, f"[scenario]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(path)

    def test_scenario_validation_applied(self, tmp_path):
        # one macro antenna cannot zero-force two users over 11 taps
        path = write_ini(tmp_path, "[scenario]\nm0 = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_trials_bound(self, tmp_path):
        path = write_ini(tmp_path, "[experiment]\ntrials = 0\n")
        with pytest.raises(ConfigError, match="trials"):
            load_config(path)

    def test_error_draws_bound(self, tmp_path):
        path = write_ini(tmp_path, "[experiment]\nerror_draws = -5\n")
        with pytest.raises(ConfigError, match="error_draws"):
            load_config(path)
