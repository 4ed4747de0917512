"""Experiment configuration, runners, and tabular output helpers."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import qbsim
from qbsim import (dynamics, environment, errors, floquet, ideal, markovian,
                   model, perturbation)
from qbsim.errors import ConfigError
from qbsim.experiments import (
    PRESETS,
    ExperimentConfig,
    config_to_dict,
    config_to_text,
    parse_config_text,
    parse_overrides,
    resolve_schedule,
    run_experiment,
    sweep_grid_values,
    validate_config,
)
from qbsim.output import format_float, write_csv, write_metadata


class TestConfigParsing:
    def test_round_trip(self):
        cfg = ExperimentConfig(kind="dynamics", label="demo", kappa=4.5,
                               n_side=12, route="volterra", dt=0.001)
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_comments_and_blanks(self):
        text = "# a demo\nkind = spectrum\n\nkappa = 8.0  # strong drive\n"
        cfg = parse_config_text(text)
        assert cfg.kind == "spectrum"
        assert cfg.kappa == 8.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key: kapa"):
            parse_config_text("kind = spectrum\nkapa = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("kind = spectrum\nkappa = 3\nkappa = 4\n")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config_text("kappa = 3\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("kind spectrum\n")

    def test_overrides(self):
        pairs = parse_overrides(["kappa=4.5", "label=sweep", "n_side=8"])
        assert pairs == {"kappa": 4.5, "label": "sweep", "n_side": 8}
        with pytest.raises(ConfigError):
            parse_overrides(["kappa:4.5"])
        with pytest.raises(ConfigError):
            parse_overrides(["bogus=1"])


class TestValidation:
    def test_enum_fields(self):
        with pytest.raises(ConfigError, match="kind"):
            validate_config(ExperimentConfig(kind="bogus"))
        with pytest.raises(ConfigError, match="route"):
            validate_config(ExperimentConfig(kind="dynamics", route="magic"))
        with pytest.raises(ConfigError, match="kernel"):
            validate_config(ExperimentConfig(kind="dynamics", kernel="magic"))

    def test_sweep_requirements(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(kind="kappa-sweep"))
        with pytest.raises(ConfigError, match="empty sweep"):
            validate_config(
                ExperimentConfig(kind="kappa-sweep", kappa_min=5.0,
                                 kappa_max=4.0, kappa_step=0.5)
            )

    def test_positivity(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(kind="spectrum", kappa=-1.0))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(kind="dynamics", n_side=0))
        # omega_0 <= |delta| would make a level splitting nonpositive
        with pytest.raises(ConfigError, match="omega_0"):
            validate_config(ExperimentConfig(kind="spectrum", omega_0=2.0,
                                             delta=3.0))
        with pytest.raises(ConfigError, match="omega_0"):
            validate_config(ExperimentConfig(kind="spectrum", omega_0=-1.0))
        with pytest.raises(ConfigError, match="kappa"):
            validate_config(ExperimentConfig(kind="spectrum",
                                             kappa=float("nan")))

    @pytest.mark.parametrize("keys", [
        dict(weight_threshold=0.0, gap_tolerance=-1.0),
        dict(weight_threshold=0.0), dict(weight_threshold=-0.1),
        dict(weight_threshold=1.5), dict(gap_tolerance=-1.0),
    ], ids=["both", "zero-threshold", "negative-threshold",
            "threshold-above-one", "negative-tolerance"])
    def test_classification_ranges(self, keys):
        # each of these flags dark or in-band modes as bound states
        cfg = dict(kind="asymptotic", n_side=4, kappa=8.0, t_max=1.0)
        validate_config(ExperimentConfig(weight_threshold=1.0,
                                         gap_tolerance=0.0, **cfg))
        with pytest.raises(ConfigError,
                           match="weight_threshold|gap_tolerance"):
            validate_config(ExperimentConfig(**cfg, **keys))

    def test_markov_requires_resonance(self):
        # the decay envelope uses the resonant sin^2(kappa F) population
        with pytest.raises(ConfigError, match="markov"):
            validate_config(ExperimentConfig(kind="markov", delta=0.5))

    @pytest.mark.parametrize("keys", [
        # T/24 sampling, or the default march step, cannot resolve
        # unequal segments
        dict(kind="asymptotic", tau_s=0.5),
        dict(kind="dynamics", tau_s=0.5),
        dict(kind="dynamics", tau_s=0.5, route="volterra"),
        # the perturbative formulas need equal segments and resonance
        dict(kind="perturbation", tau_s=0.3),
        dict(kind="nonresonant", delta=0.5, kappa=8.0, tau_s=0.5),
        dict(kind="perturbation", delta=0.5),
        dict(kind="dynamics", route="volterra-pm", delta=0.5),
    ], ids=["asymptotic", "dynamics-exact", "dynamics-volterra",
            "perturbation", "nonresonant", "perturbation-detuned",
            "volterra-pm-detuned"])
    def test_solver_protocol(self, keys):
        # each of these used to validate and then fail the run
        with pytest.raises(ConfigError, match="aligned|equal|delta = 0"):
            validate_config(ExperimentConfig(n_side=4, **keys))

    @pytest.mark.parametrize("keys, advice", [
        (dict(kind="asymptotic"), "multiples of T/24"),
        (dict(kind="dynamics"), "t_max/n_samples"),
        (dict(kind="dynamics", n_samples=100), "t_max/n_samples"),
        (dict(kind="dynamics", route="volterra"), "set dt"),
        # T/24 snaps to T/25 on these segments: the trace runs, but off the
        # modes' T/96 offsets
        (dict(kind="asymptotic", tau_c=0.4, tau_s=0.4, tau_d=0.2, t_max=2.0),
         "multiples of T/24"),
    ], ids=["asymptotic", "dynamics-exact", "dynamics-exact-samples",
            "dynamics-volterra", "asymptotic-snapped"])
    def test_alignment_names_step_source(self, keys, advice):
        # the message names what sets the step of that kind; asymptotic
        # and exact runs have no dt to pass
        with pytest.raises(ConfigError) as err:
            validate_config(ExperimentConfig(**{"n_side": 4, "tau_s": 0.5,
                                                **keys}))
        assert "aligned" in str(err.value)
        assert advice in str(err.value)
        if keys.get("route", "exact") == "exact":
            assert "dt" not in str(err.value).split(";")[-1]

    def test_unequal_spectrum_accepted(self):
        validate_config(ExperimentConfig(kind="spectrum", n_side=4, tau_s=0.3))

    def test_offset_granularity(self):
        with pytest.raises(ConfigError, match="n_offsets"):
            validate_config(ExperimentConfig(kind="asymptotic", n_offsets=50))
        for n in (0, -24):
            with pytest.raises(ConfigError, match="n_offsets"):
                validate_config(ExperimentConfig(kind="asymptotic",
                                                 n_offsets=n))

    def test_presets_all_valid(self):
        for name, bundle in PRESETS.items():
            for cfg in bundle:
                validate_config(cfg)

    def test_sweep_grid(self):
        cfg = ExperimentConfig(kind="kappa-sweep", kappa_min=3.0, kappa_max=6.0,
                               kappa_step=0.05)
        vals = sweep_grid_values(cfg)
        assert len(vals) == 61
        assert vals[0] == 3.0
        assert vals[-1] == pytest.approx(6.0)
        wide = replace(cfg, kappa_min=5.0, kappa_max=15.0, kappa_step=0.5)
        assert len(sweep_grid_values(wide)) == 21


class TestPackageSurface:
    def test_exports_and_single_process(self, tmp_path):
        union = ["__version__"]
        for module in (errors, model, ideal, environment, markovian, dynamics,
                       floquet, perturbation):
            union += module.__all__
        assert len(set(union)) == len(union)
        assert sorted(qbsim.__all__) == sorted(union)
        for name in qbsim.__all__:
            assert getattr(qbsim, name) is not None
        cfg = ExperimentConfig(kind="ideal-cycle", n_samples=12)
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(cfg, tmp_path, jobs=2)
        assert not list(tmp_path.iterdir())


class TestScheduleResolution:
    def test_quarter_swap_default(self):
        cfg = ExperimentConfig(kind="dynamics", kappa=4.0)
        sch = resolve_schedule(cfg)
        assert sch.tau_c == pytest.approx(np.pi / 8)
        assert sch.tau_s == pytest.approx(np.pi / 8)
        assert sch.tau_d == pytest.approx(np.pi / 8)

    def test_explicit_tau_wins(self):
        cfg = ExperimentConfig(kind="dynamics", kappa=4.0, tau_s=0.9)
        assert resolve_schedule(cfg).tau_s == 0.9

    def test_detuned_ideal_storage(self):
        cfg = ExperimentConfig(kind="ideal-cycle", omega_0=11.0, delta=10.0, kappa=15.0)
        assert resolve_schedule(cfg).tau_s == pytest.approx(np.pi / 10)


def _check_outputs(out_dir, files, names):
    """``files`` lists exactly ``names`` in order; the last is the one sidecar."""
    assert [os.path.relpath(f, out_dir) for f in files] == names
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)
    meta = json.loads((out_dir / names[-1]).read_text())
    assert {"config", "resolved", "version", "columns",
            "created_at"} <= set(meta)


class TestRunners:
    def test_ideal_cycle(self, tmp_path):
        cfg = ExperimentConfig(kind="ideal-cycle", label="pair", omega_0=11.0,
                               delta=10.0, kappa=15.0, n_samples=120)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, ["pair.csv", "pair.meta.json"])
        assert summary["peak_energy"] == pytest.approx(1.0 * 225 / 325, rel=1e-12)
        header = (tmp_path / "pair.csv").read_text().splitlines()[0]
        assert header == "t,energy"

    def test_markov_explicit_gamma(self, tmp_path):
        cfg = ExperimentConfig(kind="markov", label="mk", omega_0=1.0, kappa=15.0,
                               gamma=0.5, n_samples=60)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, ["mk.csv", "mk.meta.json"])
        assert summary["gamma"] == 0.5
        assert summary["lamb_shift"] is None
        rows = (tmp_path / "mk.csv").read_text().splitlines()
        assert len(rows) == 62  # header + n_samples + 1

    def test_markov_undefined_rates_rejected(self, tmp_path):
        # the band center has no rates and the band edge an infinite shift,
        # which strict JSON cannot carry: both fail validation, before any
        # file is written
        for omega_0 in (1.0, 3.0):
            cfg = ExperimentConfig(kind="markov", label="bad", omega_0=omega_0,
                                   kappa=15.0)
            with pytest.raises(ConfigError, match="set gamma"):
                run_experiment(cfg, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_dynamics_volterra(self, tmp_path):
        cfg = ExperimentConfig(kind="dynamics", label="dyn", kappa=3.0, n_side=3,
                               route="volterra", t_max=2 * np.pi / 2)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, ["dyn.csv", "dyn.meta.json"])
        assert summary["route"] == "volterra"
        assert 0.0 <= summary["final_period_mean"] <= 2.0
        meta = json.loads((tmp_path / "dyn.meta.json").read_text())
        assert meta["config"]["kind"] == "dynamics"
        assert "created_at" in meta

    def test_kappa_sweep(self, tmp_path):
        cfg = ExperimentConfig(kind="kappa-sweep", label="sw", n_side=3,
                               kappa_min=7.5, kappa_max=8.5, kappa_step=0.5)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, ["sw.csv", "sw.meta.json"])
        assert [p["kappa"] for p in summary["points"]] == [7.5, 8.0, 8.5]
        header = (tmp_path / "sw.csv").read_text().splitlines()[0]
        assert header == "kappa,index,quasienergy,system_weight,is_fbs"

    def test_spectrum(self, tmp_path):
        cfg = ExperimentConfig(kind="spectrum", label="sp", n_side=3,
                               kappa=8.0)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, ["sp.csv", "sp.meta.json"])
        assert summary["kind"] == "spectrum" and summary["label"] == "sp"
        assert summary["kappa"] == 8.0
        rows = (tmp_path / "sp.csv").read_text().splitlines()
        assert rows[0] == "index,quasienergy,system_weight,is_fbs"
        assert len(rows) == 1 + 2 + 2 * 3**2

    def test_asymptotic(self, tmp_path):
        t_per = 3 * 0.5 * np.pi / 8.0
        cfg = ExperimentConfig(kind="asymptotic", label="asy", kappa=8.0,
                               n_side=4, t_max=20 * t_per)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, ["asy.csv", "asy.meta.json"])
        assert summary["m_fbs"] == 2
        assert summary["tail_mean_abs_diff_over_omega0"] < 0.01
        header = (tmp_path / "asy.csv").read_text().splitlines()[0]
        assert header == "t,energy_exact,energy_asymptotic,diag_1,diag_2,interference"

    def test_nonresonant(self, tmp_path):
        t_per = 3 * 0.5 * np.pi / 8.0
        cfg = ExperimentConfig(kind="nonresonant", label="nr", kappa=8.0,
                               delta=0.5, n_side=4, t_max=10 * t_per)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, [
            "nr-modes.csv", "nr-distribution.csv", "nr-energy.csv",
            "nr.meta.json"])
        # one mode per system site, localized accordingly
        assert summary["weight_battery"][1] > 0.9
        assert summary["weight_charger"][0] > 0.9
        assert summary["c_initial_sq"][0] > 0.9

    def test_perturbation(self, tmp_path):
        cfg = ExperimentConfig(kind="perturbation", label="pt", n_side=4,
                               kappa_min=8.0, kappa_max=8.5, kappa_step=0.5)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files,
                       ["pt.csv", "pt-closed-form.csv", "pt.meta.json"])
        assert len(summary["points"]) == 2
        assert summary["points"][0]["relative_error"] < 0.05
        header = (tmp_path / "pt.csv").read_text().splitlines()[0]
        assert header.startswith("kappa,eps0,eps2_plus,eps2_minus")

    def test_deterministic_bytes(self, tmp_path):
        cfg = ExperimentConfig(kind="ideal-cycle", label="rep", omega_0=1.0,
                               delta=0.0, kappa=15.0, tau_s=np.pi / 5, n_samples=48)
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        run_experiment(cfg, a)
        run_experiment(cfg, b)
        assert (a / "rep.csv").read_bytes() == (b / "rep.csv").read_bytes()


class TestOutputHelpers:
    def test_format_float(self):
        assert format_float(True) == "1"
        assert format_float(3) == "3"
        assert format_float(0.5) == "0.5"
        # round-trip fidelity for doubles
        x = 0.1 + 0.2
        assert float(format_float(x)) == x

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert path.read_text() == "a,b\n1,3\n2,4\n"
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], [np.array([1.0]), np.array([1.0, 2.0])])

    def test_write_metadata(self, tmp_path):
        path = tmp_path / "t.meta.json"
        write_metadata(path, {"x": np.float64(1.5), "n": np.int64(3),
                              "arr": np.array([1.0, 2.0])})
        data = json.loads(path.read_text())
        assert data["x"] == 1.5
        assert data["n"] == 3
        assert data["arr"] == [1.0, 2.0]
        assert "created_at" in data
        bad = tmp_path / "nan.meta.json"
        with pytest.raises(ValueError):
            write_metadata(bad, {"x": float("nan")})
        assert not bad.exists()
