"""Experiment harness tests: specs, sweeps, trial outputs, CSV determinism."""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnet_tr.beamform import (design_beamformers, tr_beamformer_cirs,
                               zf_select_cirs)
from hetnet_tr.channel import ScenarioConfig
from hetnet_tr.errors import ConfigError, InfeasibleError
from hetnet_tr import harness
from hetnet_tr.harness import (
    _DESIGNS,
    _REGISTRY,
    EXPERIMENTS,
    ExperimentSpec,
    _ball_statistics,
    _draw_scenario,
    _robust_designs,
    _run_stack,
    _worker_count,
    run_experiment,
)
from hetnet_tr.power import (
    macro_coefficients,
    solve_centralized,
    solve_proposed,
)
from hetnet_tr.robust import (
    assemble_bounds,
    sample_true_channels,
    solve_robust,
)
from hetnet_tr.sinr import couple

from helpers import crandn
from oracles import stack_system


def spec_for(name, tmp_path, trials=2, sweep=None, seed=5):
    return ExperimentSpec(name=name, trials=trials, sweep=sweep or {},
                          seed=seed, output_path=str(tmp_path / "out.csv"))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestExperimentSpec:
    def test_known_names(self):
        assert set(EXPERIMENTS) == {
            "power-compare", "mu-outage", "tr-vs-zf", "bound-tightness",
            "fu-outage", "robust-power"}

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            spec_for("power-comparison", tmp_path).validate()

    def test_trials_bound(self, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            spec_for("mu-outage", tmp_path, trials=0).validate()

    def test_empty_output(self):
        spec = ExperimentSpec(name="mu-outage", trials=1, sweep={}, seed=0,
                              output_path="")
        with pytest.raises(ConfigError, match="output"):
            spec.validate()

    def test_bare_file_name_writes_to_working_directory(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        ExperimentSpec(name="mu-outage", trials=1, sweep={}, seed=0,
                       output_path="out.csv").validate()

    def test_foreign_sweep_key(self, tmp_path):
        spec = spec_for("mu-outage", tmp_path, sweep={"psi": (0.1,)})
        with pytest.raises(ConfigError, match="does not sweep"):
            spec.validate()

    def test_empty_sweep_values(self, tmp_path):
        spec = spec_for("tr-vs-zf", tmp_path, sweep={"p_dbm": ()})
        with pytest.raises(ConfigError, match="at least one"):
            spec.validate()

    def test_out_of_range_value(self, tmp_path):
        spec = spec_for("bound-tightness", tmp_path, sweep={"psi": (1.5,)})
        with pytest.raises(ConfigError, match="outside"):
            spec.validate()

    def test_default_grids(self, tmp_path):
        assert len(spec_for("power-compare", tmp_path).sweep_points()) == 27
        assert len(spec_for("mu-outage", tmp_path).sweep_points()) == 9
        assert len(spec_for("robust-power", tmp_path).sweep_points()) == 5

    def test_override_merges_with_defaults(self, tmp_path):
        spec = spec_for("fu-outage", tmp_path,
                        sweep={"gamma_f_db": (-6.0, 2.0)})
        pts = spec.sweep_points()
        # psi keeps its default single value, order is psi-major
        assert pts == [{"psi": 0.04, "gamma_f_db": -6.0},
                       {"psi": 0.04, "gamma_f_db": 2.0}]

    def test_point_order_matches_declared_axes(self, tmp_path):
        spec = spec_for("power-compare", tmp_path,
                        sweep={"gamma_m_db": (0.0, 1.0),
                               "gamma_f_db": (2.0,)})
        pts = spec.sweep_points()
        assert [tuple(p.values()) for p in pts] == [(0.0, 2.0), (1.0, 2.0)]


class TestRegistry:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_default_grids_pass_as_explicit_sweeps(self, tmp_path, name):
        """Each default grid is a sweep validate accepts, giving the same
        points; the infeasible row has one cell per value column."""
        entry = _REGISTRY[name]
        sweep = {k: v for k, v in entry.axes.items() if v is not None}
        spec = spec_for(name, tmp_path, sweep=sweep).validate()
        assert spec.sweep_points() == spec_for(name, tmp_path).sweep_points()
        assert len(entry.infeasible) == len(entry.values)

    def test_robust_columns_follow_designs(self):
        def columns(*patterns):
            return tuple(p.format(k) for p in patterns for k in _DESIGNS)

        assert _REGISTRY["fu-outage"].values == columns(
            "outage_{}", "power_{}_w", "feas_{}")
        assert _REGISTRY["robust-power"].values == columns(
            "power_{}_w", "feas_{}")


class TestTrialFunctions:
    def test_power_compare_values(self):
        cfg = ScenarioConfig()
        rows = _run_stack("power-compare", [0], cfg,
                          [{"gamma_m_db": 1.0, "gamma_f_db": 2.0}], {}, 5)
        assert len(rows) == 1
        v = dict(rows[0].values)
        assert rows[0].feasible
        assert v["power_proposed_w"] > 0
        assert v["power_centralized_w"] > 0

    def test_power_compare_infeasible_is_nan(self):
        # gamma_f far above what any 4x2 femto draw supports
        cfg = ScenarioConfig()
        rows = _run_stack("power-compare", [0], cfg,
                          [{"gamma_m_db": 1.0, "gamma_f_db": 14.0}], {}, 5)
        assert not rows[0].feasible
        assert all(math.isnan(val) for _, val in rows[0].values)

    def test_mu_outage_zero_at_convergence(self):
        rows = _run_stack("mu-outage", [0], ScenarioConfig(),
                          [{"gamma_m_db": 1.0}], {}, 5)
        v = dict(rows[0].values)
        assert rows[0].feasible
        assert v["outage_rate"] == 0.0

    def test_tr_vs_zf_zf_slope_is_linear(self):
        """Exact interference nulling makes the ZF curve 1 dB per dBm."""
        cfg = ScenarioConfig()
        rows = _run_stack("tr-vs-zf", [0], cfg,
                          [{"p_dbm": 20.0}, {"p_dbm": 30.0}], {}, 5)
        zf20 = dict(rows[0].values)["sinr_zf_db"]
        zf30 = dict(rows[1].values)["sinr_zf_db"]
        assert zf30 - zf20 == pytest.approx(10.0, abs=1e-3)
        assert all(r.feasible for r in rows)

    def test_tr_vs_zf_tr_saturates(self):
        cfg = ScenarioConfig()
        rows = _run_stack("tr-vs-zf", [0], cfg,
                          [{"p_dbm": 30.0}, {"p_dbm": 60.0}], {}, 5)
        tr30 = dict(rows[0].values)["sinr_tr_db"]
        tr60 = dict(rows[1].values)["sinr_tr_db"]
        assert tr60 - tr30 < 10.0

    def test_bound_tightness_ordering(self):
        rows = _run_stack("bound-tightness", [0], ScenarioConfig(),
                          [{"psi": 0.05}, {"psi": 0.1}], {}, 7)
        for r in rows:
            v = dict(r.values)
            assert v["young_w"] >= v["proposed_w"]
            assert v["gap_db"] >= 0.0
            assert v["oracle_min_w"] >= v["floor_w"] * (1 - 1e-12)
            assert v["oracle_max_w"] <= v["proposed_w"]
            assert v["oracle_max_w"] > 0.0

    def test_fu_outage_columns(self):
        cfg = ScenarioConfig()
        rows = _run_stack("fu-outage", [0], cfg,
                          [{"psi": 0.04, "gamma_f_db": -6.0}],
                          {"error_draws": 40}, 5)
        v = dict(rows[0].values)
        for label in ("nonrobust", "proposed", "young"):
            flag = v[f"feas_{label}"]
            assert flag in (0.0, 1.0)
            if flag == 1.0:
                assert 0.0 <= v[f"outage_{label}"] <= 1.0
                assert v[f"power_{label}_w"] > 0
            else:
                assert math.isnan(v[f"outage_{label}"])
                assert math.isnan(v[f"power_{label}_w"])

    def test_robust_power_feasibility_flags(self):
        cfg = ScenarioConfig()
        rows = _run_stack("robust-power", [2], cfg,
                          [{"psi": 0.04, "gamma_f_db": -6.0}], {}, 5)
        v = dict(rows[0].values)
        assert rows[0].feasible == all(
            v[f"feas_{k}"] == 1.0 for k in ("nonrobust", "proposed", "young"))

    def test_robust_power_psi_zero_matches_nominal(self):
        cfg = ScenarioConfig()
        rows = _run_stack("robust-power", [0], cfg,
                          [{"psi": 0.0, "gamma_f_db": 2.0}], {}, 5)
        v = dict(rows[0].values)
        assert v["feas_nonrobust"] == 1.0 and v["feas_proposed"] == 1.0
        assert v["power_proposed_w"] == v["power_nonrobust_w"]


def fu_sinr_terms(filters, h1, taps, power, cfg):
    """(signal, rest) watts of each FU of a single tier at one power,
    against the tolerated cross-tier floor, every response by
    np.convolve."""
    M, n1, _ = h1.shape
    taps = np.broadcast_to(taps, (n1,))
    terms = []
    for j in range(n1):
        energy = []
        for k in range(n1):
            r = sum(np.convolve(filters[m, k], h1[m, j]) for m in range(M))
            energy.append(float(np.sum(np.abs(r) ** 2)))
            if k == j:
                signal = abs(r[taps[j] - 1]) ** 2
        rest = power * (sum(energy) - signal) + cfg.p_tol + cfg.noise_power
        terms.append((power * signal, rest))
    return terms


def log_mean_sinr_db(terms):
    """10 log10 of the mean of signal/rest, as a shifted log-sum-exp of
    natural logs."""
    logs = [math.log(signal) - math.log(rest) for signal, rest in terms]
    top = max(logs)
    mean = top + math.log(sum(math.exp(x - top) for x in logs) / len(logs))
    return 10.0 * mean / math.log(10.0)


class TestLogDomainSinr:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tr_vs_zf_sinr_below_the_double_range(self, tmp_path):
        """With 1e300 W of noise and a femto path-loss exponent of 20 every
        FU's SINR underflows a double; each cell is still the finite mean
        SINR in dB, taken in the log domain."""
        cfg = ScenarioConfig(noise_power=1e300, exp_femto=20.0)
        spec = spec_for("tr-vs-zf", tmp_path, trials=2,
                        sweep={"p_dbm": (10.0, 40.0)})
        rows = run_experiment(spec, cfg)
        assert all(r.feasible for r in rows)
        for row in rows:
            channels, _ = _draw_scenario(cfg, spec.seed, row.trial)
            h1 = channels.h1
            power = 10.0 ** ((dict(row.sweep)["p_dbm"] - 30.0) / 10.0)
            u_zf, taps_zf, _ = zf_select_cirs(h1, strict=False)
            v = dict(row.values)
            for key, filters, taps in (
                    ("sinr_tr_db", tr_beamformer_cirs(h1), cfg.taps),
                    ("sinr_zf_db", u_zf, taps_zf)):
                want = log_mean_sinr_db(
                    fu_sinr_terms(filters, h1, taps, power, cfg))
                assert v[key] < -3000.0
                assert v[key] == pytest.approx(want, rel=1e-12), key

    def test_default_cells_are_the_mean_sinr(self):
        """Where the SINRs are ordinary doubles each cell is 10 log10 of
        their plain mean, to 1e-12 relative or 1e-12 dB."""
        cfg = ScenarioConfig()
        points = [{"p_dbm": 10.0}, {"p_dbm": 40.0}]
        for row in _run_stack("tr-vs-zf", range(4), cfg, points, {}, 5):
            channels, _ = _draw_scenario(cfg, 5, row.trial)
            h1 = channels.h1
            power = 10.0 ** ((dict(row.sweep)["p_dbm"] - 30.0) / 10.0)
            terms = fu_sinr_terms(tr_beamformer_cirs(h1), h1, cfg.taps,
                                  power, cfg)
            want = 10.0 * math.log10(np.mean([s / r for s, r in terms]))
            assert dict(row.values)["sinr_tr_db"] == pytest.approx(
                want, rel=1e-12, abs=1e-12)


class TestRobustStacks:
    def test_harness_stacks_are_assemble_bounds(self, monkeypatch):
        """The rows use assemble_bounds of the trial's TR beams, bit for bit."""
        built = {}

        def recording(*args, variant="proposed"):
            built[args[2], variant] = assemble_bounds(*args, variant=variant)
            return built[args[2], variant]

        monkeypatch.setattr(harness, "assemble_bounds", recording)
        cfg = ScenarioConfig()
        channels, _ = _draw_scenario(cfg, 5, 1)
        g = tr_beamformer_cirs(channels.h1)
        points = [{"psi": psi, "gamma_f_db": -6.0} for psi in (0.0, 0.04)]
        rows = _run_stack("robust-power", [1], cfg, points, {}, 5)
        for pt, row in zip(points, rows):
            v = dict(row.values)
            for variant in ("proposed", "young"):
                ref = assemble_bounds(channels, g, pt["psi"], cfg.p_tol,
                                      cfg.noise_power, variant=variant)
                got = built[pt["psi"], variant]
                for field in ("pl_sig_coeff", "pu_isi_coeff", "pu_co_coeff"):
                    assert np.array_equal(getattr(got, field),
                                          getattr(ref, field))
                try:
                    want = float(np.sum(solve_robust(
                        ref, 10.0 ** -0.6, cfg.p_tol, cfg.noise_power)))
                except InfeasibleError:
                    want = float("nan")
                assert np.array_equal(v[f"power_{variant}_w"], want,
                                      equal_nan=True)

    def test_stacks_built_once_per_psi(self, monkeypatch):
        """Every gamma_f of a psi reuses that psi's two stacks."""
        calls = []

        def counting(*args, **kwargs):
            calls.append((args[2], kwargs.get("variant")))
            return assemble_bounds(*args, **kwargs)

        monkeypatch.setattr(harness, "assemble_bounds", counting)
        points = [{"psi": psi, "gamma_f_db": gf}
                  for psi in (0.02, 0.04) for gf in (-6.0, -4.0, -2.0)]
        _run_stack("fu-outage", [0], ScenarioConfig(), points,
                   {"error_draws": 5}, 5)
        # the non-robust design's psi = 0 stack is built once per trial
        assert sorted(calls) == [(0.0, None),
                                 (0.02, "proposed"), (0.02, "young"),
                                 (0.04, "proposed"), (0.04, "young")]

    def test_nonrobust_design_is_the_nominal_femto_design(self):
        """The psi = 0 stack of the TR beams alone and the FU block of the
        trial's full coupling give one femto design."""
        cfg = ScenarioConfig()
        compared = 0
        for trial in range(24):
            channels, _ = _draw_scenario(cfg, 12345, trial)
            coupling = couple(channels, design_beamformers(channels))
            nominal = assemble_bounds(channels,
                                      tr_beamformer_cirs(channels.h1), 0.0,
                                      cfg.p_tol, cfg.noise_power)
            for gf in (10.0 ** -0.6, 10.0 ** -0.2, 10.0 ** 0.2):
                robust = _robust_designs(nominal, {}, gf, cfg)["nonrobust"]
                try:
                    alloc = solve_proposed(channels, cfg.gamma_m, gf,
                                           cfg.p_tol, cfg.noise_power,
                                           coupling=coupling)
                except InfeasibleError as exc:
                    assert exc.stage == "femto" and robust is None
                    continue
                np.testing.assert_allclose(robust, alloc.p1, rtol=1e-12)
                compared += 1
        assert compared >= 60

    def test_ball_statistics_match_convolutions(self):
        """The one-product responses equal per-beam convolutions."""
        cfg = ScenarioConfig()
        channels, _ = _draw_scenario(cfg, 5, 0)
        g = tr_beamformer_cirs(channels.h1)
        M, n1, taps = g.shape
        tot, main = _ball_statistics(channels.h1, g, 0.04,
                                     np.random.default_rng(3), 4)
        rng = np.random.default_rng(3)
        for j in range(n1):
            truths = sample_true_channels(channels.h1[:, j, :], 0.04, rng,
                                          count=4)
            for p, truth in enumerate(truths):
                for k in range(n1):
                    r = sum(np.convolve(g[i, k], truth[i]) for i in range(M))
                    assert tot[j, p, k] == pytest.approx(
                        float(np.sum(np.abs(r) ** 2)), rel=1e-12)
                    if k == j:
                        assert main[j, p] == pytest.approx(
                            abs(r[taps - 1]) ** 2, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4),
           n1=st.integers(1, 3), taps=st.integers(1, 8),
           psi=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
           draws=st.integers(1, 6))
    def test_ball_statistics_read_the_sampler_draws(self, seed, m, n1, taps,
                                                    psi, draws):
        """The real-arithmetic statistics equal convolutions of the draws
        sample_true_channels makes from the same seed, and leave the
        generator where the sampler leaves it."""
        rng = np.random.default_rng(seed)
        g, h1 = crandn(rng, m, n1, taps), crandn(rng, m, n1, taps)
        got_rng = np.random.default_rng([seed, 1])
        tot, main = _ball_statistics(h1, g, psi, got_rng, draws)
        want_rng = np.random.default_rng([seed, 1])
        for j in range(n1):
            truths = sample_true_channels(h1[:, j, :], psi, want_rng, draws)
            for p, truth in enumerate(truths):
                r = [sum(np.convolve(g[i, k], truth[i]) for i in range(m))
                     for k in range(n1)]
                want = [float(np.sum(np.abs(rk) ** 2)) for rk in r]
                np.testing.assert_allclose(tot[j, p], want, rtol=1e-12)
                # the real form cancels where the central tap is small
                assert main[j, p] == pytest.approx(
                    abs(r[j][taps - 1]) ** 2, rel=0.0,
                    abs=1e-12 * tot[j, p, j])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestWorkerCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("HETNET_TR_THREADS", raising=False)
        assert _worker_count() == 1

    def test_explicit(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("HETNET_TR_THREADS", "3")
        assert _worker_count() == 3

    def test_clamped_to_cpu_count(self, monkeypatch):
        """A huge request is cut to the CPU count; no process is started."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HETNET_TR_THREADS", "1000")
        assert _worker_count() == 2

    def test_unknown_cpu_count_gives_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setenv("HETNET_TR_THREADS", "8")
        assert _worker_count() == 1

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("HETNET_TR_THREADS", "two")
        with pytest.raises(ConfigError, match="integer"):
            _worker_count()

    def test_zero_rejected(self, monkeypatch):
        monkeypatch.setenv("HETNET_TR_THREADS", "0")
        with pytest.raises(ConfigError):
            _worker_count()


class TestSummaryMean:
    def test_finite_cells_never_average_to_inf(self, tmp_path):
        """A column of finite cells whose sum overflows averages to a
        finite mean, with no overflow warning; a column whose plain mean is
        finite keeps its bytes."""
        big, ordinary = [1.5e308, 1.2e308], [0.1, 0.2]
        rows = [harness.TrialRecord(
            trial=t, sweep=(("gamma_m_db", 0.0), ("gamma_f_db", 0.0)),
            values=(("power_proposed_w", big[t]),
                    ("power_centralized_w", ordinary[t])), feasible=True)
            for t in range(2)]
        path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            harness._emit_csv(str(path), "power-compare",
                              [{"gamma_m_db": 0.0, "gamma_f_db": 0.0}], rows)
        summary = read_csv(path)[1][-1]
        assert summary["power_proposed_w"] == repr(1.35e308)
        assert summary["power_centralized_w"] == repr(
            float(np.mean(ordinary)))


class TestRunExperiment:
    def test_row_count_and_header(self, tmp_path):
        cfg = ScenarioConfig()
        spec = spec_for("tr-vs-zf", tmp_path, trials=3,
                        sweep={"p_dbm": (20.0, 30.0)})
        rows = run_experiment(spec, cfg)
        assert len(rows) == 6
        header, records = read_csv(tmp_path / "out.csv")
        assert header == ["row", "trial", "p_dbm", "sinr_tr_db",
                          "sinr_zf_db", "feasible"]
        assert sum(1 for r in records if r["row"] == "trial") == 6
        assert sum(1 for r in records if r["row"] == "summary") == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ScenarioConfig()
        spec = spec_for("robust-power", tmp_path, trials=2,
                        sweep={"psi": (0.0, 0.02), "gamma_f_db": (-4.0,)})
        run_experiment(spec, cfg)
        first = (tmp_path / "out.csv").read_bytes()
        run_experiment(spec, cfg)
        assert (tmp_path / "out.csv").read_bytes() == first

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_outage_scored_in_units_of_the_floor(self, tmp_path, monkeypatch):
        """Powers near the top of the double range score without overflow:
        a design that solves its worst-case constraints has no outage on
        the ball, where unscaled products overflowed into wrong cells."""
        monkeypatch.setenv("HETNET_TR_THREADS", "1")
        cfg = ScenarioConfig(noise_power=1.7e308, exp_femto=1e-320)
        rows = run_experiment(spec_for("fu-outage", tmp_path, seed=12345),
                              cfg, error_draws=50)
        solved = [dict(r.values) for r in rows
                  if dict(r.values)["feas_proposed"] == 1.0]
        assert solved
        assert all(v["outage_proposed"] == 0.0 for v in solved)

    # small runs per experiment: (trials, sweep)
    WORKER_RUNS = {
        "power-compare": (3, {"gamma_m_db": (-1.0, 1.0),
                              "gamma_f_db": (0.0, 2.0)}),
        "mu-outage": (3, {"gamma_m_db": (0.0, 2.0)}),
        "tr-vs-zf": (3, {"p_dbm": (20.0, 30.0)}),
        "bound-tightness": (3, {"psi": (0.05,)}),
        "fu-outage": (3, {"psi": (0.04,), "gamma_f_db": (-6.0, 0.0)}),
        "robust-power": (3, {"psi": (0.0, 0.04), "gamma_f_db": (-6.0,)}),
    }

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch,
                                                name):
        """Per-trial objects (beams, couplings, stacks, error draws) stay
        per-trial: one worker and two write the same bytes."""
        trials, sweep = self.WORKER_RUNS[name]
        cfg = ScenarioConfig()
        spec = spec_for(name, tmp_path, trials=trials, sweep=sweep,
                        seed=12345)
        monkeypatch.setenv("HETNET_TR_THREADS", "1")
        run_experiment(spec, cfg, error_draws=50)
        serial = (tmp_path / "out.csv").read_bytes()
        monkeypatch.setenv("HETNET_TR_THREADS", "2")
        run_experiment(spec, cfg, error_draws=50)
        assert (tmp_path / "out.csv").read_bytes() == serial

    def test_workers_start_from_a_fresh_import(self, tmp_path, monkeypatch):
        """A harness attribute patched in this process does not reach the
        workers: two workers write the unpatched bytes."""
        cfg = ScenarioConfig()
        spec = spec_for("mu-outage", tmp_path, trials=2,
                        sweep={"gamma_m_db": (0.0, 2.0)}, seed=12345)
        monkeypatch.setenv("HETNET_TR_THREADS", "1")
        run_experiment(spec, cfg)
        clean = (tmp_path / "out.csv").read_bytes()
        db = harness._db
        monkeypatch.setattr(harness, "_db", lambda x: 2.0 * db(x))
        run_experiment(spec, cfg)
        assert (tmp_path / "out.csv").read_bytes() != clean
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HETNET_TR_THREADS", "2")
        run_experiment(spec, cfg)
        assert (tmp_path / "out.csv").read_bytes() == clean

    def test_exact_zf_own_isi_rounding_does_not_abort(self, tmp_path):
        """Seed 645, trial 0: exact ZF beams leave own-ISI a few ulp below 0.

        The macro coefficients clamp it at zero instead of handing the macro
        solve a negative delta, so the whole default grid completes.
        """
        cfg = ScenarioConfig()
        spec = spec_for("power-compare", tmp_path, trials=1, seed=645)
        rows = run_experiment(spec, cfg)
        assert len(rows) == len(spec.sweep_points()) == 27

    def test_nearly_binding_macro_cap_does_not_abort(self, tmp_path,
                                                     monkeypatch):
        """Seed 3048651161, trial 0, at (-3, 2) dB: MU 0 needs about 222.26 W
        under a cross-tier cap of about 225.23 W.

        The whole default grid completes, and that point's row is infeasible
        only because the centralized coupling has spectral radius >= 1.
        """
        monkeypatch.setenv("HETNET_TR_THREADS", "1")
        cfg = ScenarioConfig()
        spec = spec_for("power-compare", tmp_path, trials=1, seed=3048651161)
        rows = run_experiment(spec, cfg)
        assert len(rows) == len(spec.sweep_points()) == 27
        point = (("gamma_m_db", -3.0), ("gamma_f_db", 2.0))
        (row,) = [r for r in rows if r.sweep == point]
        assert not row.feasible

        channels, _ = _draw_scenario(cfg, spec.seed, 0)
        gm, gf = 10 ** -0.3, 10 ** 0.2
        prop = solve_proposed(channels, gm, gf, cfg.p_tol, cfg.noise_power)
        assert prop.p0[0] == pytest.approx(222.26, abs=0.01)
        beams = design_beamformers(channels)
        coupling = couple(channels, beams)
        _, caps = macro_coefficients(coupling)
        assert prop.p0[0] * caps[0].max() <= cfg.p_tol
        F, _ = stack_system(coupling,
                            np.repeat([gm, gf], [coupling.n0, coupling.n1]),
                            cfg.noise_power)
        rho = float(np.max(np.abs(np.linalg.eigvals(F))))
        assert 1.0069 <= rho < 1.0070
        with pytest.raises(InfeasibleError) as exc:
            solve_centralized(coupling, gm, gf, cfg.noise_power)
        assert exc.value.stage == "centralized"

    @pytest.mark.parametrize("name", ["power-compare", "mu-outage"])
    def test_unreachable_zf_tap_gives_infeasible_rows(
            self, tmp_path, monkeypatch, name):
        """A ZF design without a reachable tap marks the trial's rows
        infeasible instead of losing the run."""
        import hetnet_tr.harness as harness

        def no_tap(h, strict=True):
            u, alpha, reachable = zf_select_cirs(h, strict)
            return u, alpha, np.zeros_like(reachable)

        monkeypatch.setattr(harness, "zf_select_cirs", no_tap)
        monkeypatch.setenv("HETNET_TR_THREADS", "1")
        cfg = ScenarioConfig()
        spec = spec_for(name, tmp_path, trials=2)
        rows = run_experiment(spec, cfg)
        assert len(rows) == 2 * len(spec.sweep_points())
        assert not any(r.feasible for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["power-compare", "mu-outage"])
    def test_overflowing_cross_report_gives_infeasible_rows(self, tmp_path,
                                                            name):
        """At p_tol = 3000 dBm the femto powers solve, but their cross-tier
        report overflows a double: the macro stage is infeasible, and
        every row says so without an overflow warning."""
        cfg = ScenarioConfig(p_tol_dbm=3000.0, exp_femto=-10.0,
                             exp_cross=-20.0)
        spec = spec_for(name, tmp_path)
        rows = run_experiment(spec, cfg)
        assert len(rows) == 2 * len(spec.sweep_points())
        assert not any(r.feasible for r in rows)
        channels, _ = _draw_scenario(cfg, spec.seed, 0)
        with pytest.raises(InfeasibleError, match="cross-tier") as exc:
            solve_proposed(channels, cfg.gamma_m, cfg.gamma_f, cfg.p_tol,
                           cfg.noise_power)
        assert exc.value.stage == "macro"

    def test_summary_recomputes_from_trial_rows(self, tmp_path):
        cfg = ScenarioConfig()
        spec = spec_for("power-compare", tmp_path, trials=6,
                        sweep={"gamma_m_db": (1.0,), "gamma_f_db": (4.0,)})
        run_experiment(spec, cfg)
        header, records = read_csv(tmp_path / "out.csv")
        trials = [r for r in records if r["row"] == "trial"]
        summary = [r for r in records if r["row"] == "summary"][0]
        feas = [r for r in trials if r["feasible"] == "1"]
        assert 0 < len(feas) < len(trials)  # the point mixes both outcomes
        for col in ("power_proposed_w", "power_centralized_w"):
            mean = np.mean([float(r[col]) for r in feas])
            assert float(summary[col]) == pytest.approx(mean, rel=1e-12)
        assert float(summary["feasible"]) == pytest.approx(
            len(feas) / len(trials), rel=1e-12)

    def test_summary_nan_when_nothing_feasible(self, tmp_path):
        cfg = ScenarioConfig()
        spec = spec_for("power-compare", tmp_path, trials=2,
                        sweep={"gamma_m_db": (1.0,), "gamma_f_db": (14.0,)})
        run_experiment(spec, cfg)
        _, records = read_csv(tmp_path / "out.csv")
        summary = [r for r in records if r["row"] == "summary"][0]
        assert summary["power_proposed_w"] == "nan"
        assert float(summary["feasible"]) == 0.0

    def test_infeasible_trial_rows_keep_sweep_cells(self, tmp_path):
        cfg = ScenarioConfig()
        spec = spec_for("power-compare", tmp_path, trials=2,
                        sweep={"gamma_m_db": (1.0,), "gamma_f_db": (14.0,)})
        run_experiment(spec, cfg)
        _, records = read_csv(tmp_path / "out.csv")
        for r in records:
            if r["row"] == "trial":
                assert r["feasible"] == "0"
                assert float(r["gamma_f_db"]) == 14.0

    def test_validates_before_running(self, tmp_path):
        cfg = ScenarioConfig()
        spec = spec_for("nope", tmp_path)
        with pytest.raises(ConfigError):
            run_experiment(spec, cfg)


# small sweeps per experiment for the stack properties
STACK_RUNS = {
    "power-compare": {"gamma_m_db": (-1.0, 1.0), "gamma_f_db": (0.0, 2.0)},
    "mu-outage": {"gamma_m_db": (0.0, 2.0)},
    "tr-vs-zf": {"p_dbm": (20.0, 30.0)},
    "bound-tightness": {"psi": (0.05,)},
    "fu-outage": {"psi": (0.04,), "gamma_f_db": (-6.0, 0.0)},
    "robust-power": {"psi": (0.0, 0.04), "gamma_f_db": (-6.0,)},
}


def stack_points(name):
    return ExperimentSpec(name=name, trials=1, sweep=STACK_RUNS[name],
                          seed=0, output_path="unused").sweep_points()


class TestStacks:
    _alone = {}

    def alone(self, name, trial):
        """The rows of a trial run as a one-trial stack."""
        key = name, trial
        if key not in self._alone:
            self._alone[key] = _run_stack(
                name, [trial], ScenarioConfig(), stack_points(name),
                {"error_draws": 20}, 12345)
        return self._alone[key]

    @pytest.mark.parametrize("name", EXPERIMENTS)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rows_do_not_depend_on_the_stacks(self, name, data):
        """Any run of consecutive trials, cut into stacks anywhere, gives
        every trial the rows of its one-trial stack, bit for bit."""
        first = data.draw(st.integers(0, 16), label="first")
        count = data.draw(st.integers(1, 11), label="trials")
        cuts = sorted(data.draw(st.sets(st.integers(1, count - 1))
                                if count > 1 else st.just(set()),
                                label="cuts"))
        bounds = [first, *(first + c for c in cuts), first + count]
        rows = []
        for lo, hi in zip(bounds, bounds[1:]):
            rows += _run_stack(name, range(lo, hi), ScenarioConfig(),
                               stack_points(name), {"error_draws": 20},
                               12345)
        want = [r for t in range(first, first + count)
                for r in self.alone(name, t)]
        assert repr(rows) == repr(want)

    @pytest.mark.parametrize("name", ["power-compare", "mu-outage"])
    def test_unreachable_zf_trial_inside_a_solving_stack(self, monkeypatch,
                                                         name):
        """Trial 2 of a four-trial stack gets an all-zero macro channel, so
        no MU tap is reachable: its rows are infeasible, and the other
        trials keep the feasible rows of their one-trial stacks."""
        alone = {t: self.alone(name, t) for t in (0, 1, 3)}
        assert all(r.feasible for t in alone for r in alone[t])
        draw = harness._draw_scenario

        def silent_macro(cfg, seed, trial):
            channels, rng = draw(cfg, seed, trial)
            if trial == 2:
                channels.h0[...] = 0.0
            return channels, rng

        monkeypatch.setattr(harness, "_draw_scenario", silent_macro)
        points = stack_points(name)
        rows = _run_stack(name, range(4), ScenarioConfig(), points,
                          {"error_draws": 20}, 12345)
        n = len(points)
        assert not any(r.feasible for r in rows[2 * n:3 * n])
        assert repr(rows[:2 * n] + rows[3 * n:]) == repr(
            alone[0] + alone[1] + alone[3])
