"""Experiment configuration, runners, and tabular output helpers."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

import qbsim
from qbsim import (dynamics, environment, errors, experiments, floquet, ideal,
                   markovian, model, perturbation)
from qbsim.cli import main
from qbsim.errors import ConfigError
from qbsim.experiments import (
    KINDS,
    PRESETS,
    ExperimentConfig,
    parse_config_text,
    parse_overrides,
    resolve_schedule,
    run_experiment,
    sweep_grid_values,
    validate_config,
)
from qbsim.output import format_float, write_csv, write_metadata

from oracles import bright_isometry


class TestConfigParsing:
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
        with pytest.raises(ConfigError, match="n_side must be an integer"):
            validate_config(ExperimentConfig(kind="spectrum", n_side=2.5))
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
        cfg = dict(kind="asymptotic", n_side=4, kappa=8.0,
                   t_max=2 * 3 * 0.5 * np.pi / 8.0)
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
        dict(kind="perturbation", tau_s=0.3, kappa_min=5.0, kappa_max=6.0,
             kappa_step=1.0),
        dict(kind="nonresonant", delta=0.5, kappa=8.0, tau_s=0.5),
        dict(kind="perturbation", delta=0.5),
    ], ids=["asymptotic", "dynamics-exact", "dynamics-volterra",
            "perturbation", "nonresonant", "perturbation-detuned"])
    def test_solver_protocol(self, keys):
        # each of these used to validate and then fail the run
        with pytest.raises(ConfigError, match="aligned|equal|delta = 0"):
            validate_config(ExperimentConfig(n_side=4, **keys))

    def test_volterra_pm_detuned_accepted(self, tmp_path):
        # route volterra-pm marches in the rotating frame at any detuning
        cfg = ExperimentConfig(kind="dynamics", route="volterra-pm",
                               delta=0.5, n_side=4, t_max=np.pi)
        validate_config(cfg)
        _, summary = run_experiment(cfg, tmp_path)
        assert summary["route"] == "volterra-pm"

    @pytest.mark.parametrize("label", ["../escaped", "a/b", "/abs", ".",
                                       ".."])
    def test_label_is_a_bare_file_name(self, label):
        with pytest.raises(ConfigError, match="config key label"):
            validate_config(ExperimentConfig(kind="ideal-cycle", label=label))

    def test_bare_labels_accepted(self):
        for label in ("", "x", "dynamics-k4.8", "..x", "asymptotic-trace",
                      "detuned-sweep", "continuum-memory"):
            validate_config(ExperimentConfig(kind="ideal-cycle", label=label))

    @pytest.mark.parametrize("keys, advice", [
        (dict(kind="asymptotic"), "multiples of T/24"),
        (dict(kind="dynamics"), "T/24; set dt"),
        (dict(kind="dynamics", dt=0.01), "the step is dt"),
        (dict(kind="dynamics", route="volterra"), "set dt"),
        # T/24 snaps to T/25 on these segments, off the T/24 grid that the
        # trace and the modes share
        (dict(kind="asymptotic", tau_c=0.4, tau_s=0.4, tau_d=0.2, t_max=2.0),
         "multiples of T/24"),
    ], ids=["asymptotic", "dynamics-exact", "dynamics-exact-dt",
            "dynamics-volterra", "asymptotic-snapped"])
    def test_alignment_names_step_source(self, keys, advice):
        # the message names what sets the step of that kind; asymptotic
        # runs have no dt to pass
        with pytest.raises(ConfigError) as err:
            validate_config(ExperimentConfig(**{"n_side": 4, "tau_s": 0.5,
                                                **keys}))
        assert "aligned" in str(err.value)
        assert advice in str(err.value)
        if keys["kind"] == "asymptotic":
            assert "dt" not in str(err.value).split(";")[-1]

    def test_unequal_spectrum_accepted(self):
        validate_config(ExperimentConfig(kind="spectrum", n_side=4, tau_s=0.3))

    @pytest.mark.parametrize("keys, key", [
        (dict(kind="kappa-sweep", kappa_min=1.0, kappa_max=2.0,
              kappa_step=1e-15), "kappa_step"),
        (dict(kind="perturbation", kappa_min=5.0, kappa_max=6.0,
              kappa_step=1e-15), "kappa_step"),
        (dict(kind="ideal-cycle", dt=1e-15), "dt"),
        (dict(kind="markov", gamma=0.5, dt=1e-15), "dt"),
        (dict(kind="ideal-cycle", t_max=1e15), "t_max"),
        (dict(kind="dynamics", t_max=1e15), "t_max"),
        (dict(kind="dynamics", dt=1e-15), "dt"),
        (dict(kind="dynamics", route="volterra", dt=1e-15), "dt"),
        (dict(kind="dynamics", route="volterra-pm", t_max=1e15), "t_max"),
        (dict(kind="asymptotic", t_max=1e15), "t_max"),
        (dict(kind="nonresonant", delta=0.5, kappa=15.0, t_max=1e15),
         "t_max"),
    ], ids=["kappa-sweep", "perturbation", "ideal-cycle", "markov",
            "ideal-cycle-t_max", "exact-t_max", "exact-dt", "volterra-dt",
            "volterra-t_max", "asymptotic", "nonresonant"])
    def test_row_count_cap(self, keys, key):
        # 1e15 rows or more: these used to die in numpy allocating
        # petabytes, or validate and then do so in the run; the plan now
        # counts the rows before anything is allocated
        with pytest.raises(ConfigError,
                           match=f"config key {key}: .* output rows"):
            validate_config(ExperimentConfig(n_side=4, **keys))

    def test_row_count_cap_boundary(self):
        # t_max / dt + 1 rows at _BYTES_PER_ROW each, against MEMORY_CAP
        rows = int(dynamics.MEMORY_CAP // experiments._BYTES_PER_ROW)
        unit = dict(kind="ideal-cycle", tau_c=1.0, tau_s=1.0, tau_d=1.0,
                    dt=1.0)
        validate_config(ExperimentConfig(t_max=rows - 1.0, **unit))
        with pytest.raises(ConfigError, match="config key dt"):
            validate_config(ExperimentConfig(t_max=float(rows), **unit))

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

    @pytest.mark.parametrize("keys, key", [
        # memory-route keys on a kind that traces on the exact route at
        # T/24: dt is the first run key checked
        (dict(kind="asymptotic", route="volterra", kernel="continuum",
              dt=0.001), "dt"),
        # dt steps the exact route, and 0.0123 divides no segment
        (dict(kind="dynamics", route="exact", dt=0.0123), "the step is dt"),
        # a partial grid used to run the 21 points from kappa = 5
        (dict(kind="perturbation", kappa_min=12.0), "set kappa_max, kappa_step"),
        (dict(kind="ideal-cycle", gamma=0.5), "gamma"),
        # dt steps the cycle kinds, and these divide no segment
        (dict(kind="markov", gamma=0.5, dt=0.01), "the step is dt"),
        (dict(kind="ideal-cycle", dt=0.0123), "the step is dt"),
        (dict(kind="dynamics", kernel="continuum"), "kernel"),
        (dict(kind="dynamics", route="volterra", weight_threshold=0.5),
         "weight_threshold"),
        (dict(kind="kappa-sweep", kappa_min=3.0, kappa_max=4.0,
              kappa_step=1.0, t_max=1.0), "t_max"),
        (dict(kind="spectrum", kappa_step=0.5), "kappa_step"),
        (dict(kind="asymptotic", gamma=0.5), "gamma"),
        (dict(kind="perturbation", kappa_min=5.0, kappa_max=6.0,
              kappa_step=1.0, route="volterra-pm"), "route"),
    ], ids=["asymptotic-memory-keys", "exact-unaligned-dt",
            "perturbation-partial-grid", "ideal-cycle-gamma", "markov-dt",
            "ideal-cycle-unaligned-dt", "exact-kernel", "dynamics-threshold",
            "kappa-sweep-t_max", "spectrum-grid", "asymptotic-gamma",
            "perturbation-route"])
    def test_run_key_read_or_rejected(self, keys, key):
        # each of these used to validate and run something other than what
        # the config says: a key the kind does not read, a step that did
        # not step the route, a grid filled in around a partial one
        with pytest.raises(ConfigError) as err:
            validate_config(ExperimentConfig(n_side=4, **keys))
        assert re.search(rf"\b{key}\b", str(err.value)), err.value
        assert f"kind {keys['kind']}" in str(err.value)

    def test_run_keys_at_default_accepted(self):
        # a run key set to its default means nothing to a kind that does not
        # read it, so it is not rejected
        validate_config(ExperimentConfig(
            kind="spectrum", n_side=4, route="exact", kernel="discrete",
            weight_threshold=0.05))


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
        cfg = ExperimentConfig(kind="ideal-cycle")
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(cfg, tmp_path, jobs=2)
        assert not list(tmp_path.iterdir())

    def test_readme_quick_start(self):
        # the README's Python quick start runs as written
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme) as fh:
            section = fh.read().split("## Python quick start\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        scope = {}
        exec(code, scope)
        assert len(scope["spec"].fbs_indices) == 2
        assert len(scope["modes"]) == 2

    @pytest.mark.parametrize("name", ["qbsim"] + sorted(
        f"qbsim.{m.name}" for m in pkgutil.iter_modules(qbsim.__path__)))
    def test_every_export_resolves_once(self, name):
        # a deletion cannot leave a stale or doubled public name behind
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", [])
        assert len(set(exports)) == len(exports)
        for export in exports:
            assert hasattr(module, export), export

    def test_runs_without_scipy_linalg(self, tmp_path):
        # only the full-basis Schur oracle needs scipy.linalg, so importing
        # the package and running every kind leaves it unloaded; the oracle
        # loads it on demand
        src = os.path.dirname(os.path.dirname(os.path.abspath(qbsim.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY_LINALG, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        loaded, dimension = json.loads(done.stdout.splitlines()[-1])
        oracle = loaded.pop("quasienergy_spectrum")
        assert len(loaded) == 3 + len(KINDS)
        assert not any(loaded.values()), loaded
        assert oracle and dimension == 2 + 2 * 2**2


# run in a fresh interpreter: every kind at n_side 4, one period (or a
# two-point sweep) each, then the full-basis oracle at n_side 2; prints
# whether scipy.linalg was loaded after each step
_WITHOUT_SCIPY_LINALG = """
import json, math, sys
loaded = {}
def step(name):
    loaded[name] = "scipy.linalg" in sys.modules
import qbsim
step("import qbsim")
import qbsim.cli
step("import qbsim.cli")
import qbsim.experiments as ex
step("import qbsim.experiments")
T = 0.5 * math.pi  # kappa = 3, half-swap segments
extra = {"ideal-cycle": {}, "markov": {}, "dynamics": dict(t_max=T),
         "kappa-sweep": dict(kappa_min=3.0, kappa_max=4.0, kappa_step=1.0),
         "spectrum": {}, "asymptotic": dict(t_max=T),
         "perturbation": dict(kappa_min=5.0, kappa_max=6.0, kappa_step=1.0),
         "nonresonant": dict(delta=0.5, t_max=T)}
assert sorted(extra) == sorted(ex.KINDS)
for kind in ex.KINDS:
    ex.run_experiment(ex.ExperimentConfig(kind=kind, n_side=4, **extra[kind]),
                      sys.argv[1])
    step(kind)
env = qbsim.LatticeEnvironment(n_side=2, varpi=1.0, q=0.5, g=0.5)
params = qbsim.SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=3.0)
sched = qbsim.ProtocolSchedule(tau_c=T / 3, tau_s=T / 3, tau_d=T / 3)
spec = qbsim.quasienergy_spectrum(
    qbsim.one_period_operator(params, env, sched), sched, env)
step("quasienergy_spectrum")
print(json.dumps([loaded, spec.dimension]))
"""


class TestRecordedConfigs:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_sidecar_config_is_the_loaded_config(self, tmp_path, preset):
        # every run records the config as loaded, with no key filled in,
        # and its sidecar and summary.json record the same one
        assert main(["run", "--preset", preset, "--set", "n_side=4",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["configs"] == [asdict(replace(cfg, n_side=4))
                                      for cfg in PRESETS[preset]]
        for cfg, result in zip(summary["configs"], summary["results"],
                               strict=True):
            meta = tmp_path / f"{result['label']}.meta.json"
            assert json.loads(meta.read_text())["config"] == cfg

    @pytest.mark.parametrize("cfg", [
        *(replace(cfg, n_side=4) for name in sorted(PRESETS)
          for cfg in PRESETS[name]),
        replace(PRESETS["fig3b"][0], n_side=4, kind="spectrum"),
        replace(PRESETS["fig2a"][0], n_side=4, route="volterra-pm",
                delta=0.5)],
        ids=lambda cfg: f"{cfg.kind}-{cfg.label}-{cfg.route}")
    def test_sidecar_describes_each_column_written(self, tmp_path, cfg):
        # the sidecar's columns name every CSV header of the run once,
        # with a description, and nothing the run did not write
        files, _ = run_experiment(cfg, tmp_path)
        written = set()
        for path in files[:-1]:
            with open(path) as fh:
                header = fh.readline().rstrip("\n").split(",")
            assert len(set(header)) == len(header)
            written.update(header)
        with open(files[-1]) as fh:
            described = json.load(fh)["columns"]
        assert set(described) == written
        assert all(isinstance(text, str) and text
                   for text in described.values())


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


def _check_point_schedules(out_dir, cfg):
    """The sidecar of ``cfg``, a sweep over kappa = 5 ... 15 on equal
    segments, lists the grid and each point's schedule in grid order."""
    files, _ = run_experiment(cfg, out_dir)
    with open(files[-1]) as fh:
        meta = json.load(fh)
    kappas = meta["sweep"]["kappa"]
    assert kappas == sweep_grid_values(cfg).tolist()
    assert len(meta["resolved"]) == len(kappas) == 21
    for kappa, resolved in zip(kappas, meta["resolved"], strict=True):
        assert resolved["period"] == pytest.approx(
            3 * np.pi / (2 * kappa), rel=1e-14)
        assert resolved["tau_c"] == resolved["tau_s"] == resolved["tau_d"]


class TestRunners:
    def test_ideal_cycle(self, tmp_path):
        cfg = ExperimentConfig(kind="ideal-cycle", label="pair", omega_0=11.0,
                               delta=10.0, kappa=15.0)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, ["pair.csv", "pair.meta.json"])
        assert summary["peak_energy"] == pytest.approx(1.0 * 225 / 325, rel=1e-12)
        header = (tmp_path / "pair.csv").read_text().splitlines()[0]
        assert header == "t,energy"

    def test_markov_explicit_gamma(self, tmp_path):
        cfg = ExperimentConfig(kind="markov", label="mk", omega_0=1.0, kappa=15.0,
                               gamma=0.5, dt=np.pi / 150)
        files, summary = run_experiment(cfg, tmp_path)
        _check_outputs(tmp_path, files, ["mk.csv", "mk.meta.json"])
        assert summary["gamma"] == 0.5
        assert summary["lamb_shift"] is None
        rows = (tmp_path / "mk.csv").read_text().splitlines()
        assert len(rows) == 122  # header + 3T / (T/40) + 1

    @pytest.mark.parametrize("keys", [
        dict(kind="ideal-cycle", omega_0=11.0, delta=10.0),
        dict(kind="markov", omega_0=1.0, gamma=0.5)], ids=["ideal", "markov"])
    def test_cycle_times_step_by_dt(self, tmp_path, keys):
        # T/40 divides the half-swap and phase-locked segments at kappa = 15
        # (T = pi/6 detuned, 4 pi/15 resonant): 60 whole steps over 1.5T
        cfg = ExperimentConfig(label="c", kappa=15.0, **keys)
        period = resolve_schedule(cfg).period
        cfg = replace(cfg, dt=period / 40, t_max=1.5 * period)
        run_experiment(cfg, tmp_path)
        t = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1,
                       usecols=0)
        np.testing.assert_array_equal(t, np.arange(61) * cfg.dt)
        assert t[-1] == pytest.approx(cfg.t_max, rel=1e-14)

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

    def test_sweep_sidecar_names_each_point_schedule(self, tmp_path):
        # fig4c runs kappa = 5 ... 15 on equal segments: each point's
        # resolved period is 3 pi / (2 kappa), in grid order
        _check_point_schedules(tmp_path, replace(PRESETS["fig4c"][0],
                                                 n_side=2))

    def test_perturbation_sidecar_names_each_point_schedule(self, tmp_path):
        # sm-s1 sweeps the same grid; its sidecar lists every point too
        _check_point_schedules(tmp_path, replace(PRESETS["sm-s1"][0],
                                                 n_side=2))

    @pytest.mark.parametrize("keys", [
        dict(kind="kappa-sweep", kappa_min=7.5, kappa_max=8.5,
             kappa_step=0.5),
        dict(kind="markov", omega_0=1.5)], ids=["kappa-sweep", "markov"])
    def test_one_environment_per_plan(self, monkeypatch, keys):
        # the memory check, the sweep points and the Markovian rates read
        # the plan's environment; none builds its own
        calls = []
        resolve = experiments.resolve_environment
        monkeypatch.setattr(experiments, "resolve_environment",
                            lambda cfg: calls.append(cfg) or resolve(cfg))
        plan = validate_config(ExperimentConfig(n_side=3, **keys))
        assert len(calls) == 1
        if keys["kind"] == "markov":
            assert plan.rates["gamma"] > 0

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

    @pytest.mark.parametrize("n_side", [4, 6])
    @pytest.mark.parametrize("kappa", [8.0, 15.0])
    def test_nonresonant_distribution(self, tmp_path, n_side, kappa):
        # one row for the battery, the charger and each bath shell; a row's
        # p_j is the probability of each one of its modes
        cfg = ExperimentConfig(kind="nonresonant", label="nr", kappa=kappa,
                               delta=0.5, n_side=n_side,
                               t_max=3 * 0.5 * np.pi / kappa)
        run_experiment(cfg, tmp_path)
        path = tmp_path / "nr-distribution.csv"
        header = path.read_text().splitlines()[0].split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        plan = validate_config(cfg)
        shells = plan.env.shells()
        n_sh = shells.frequencies.size
        assert table.shape == (2 + 2 * n_sh, len(header))
        assert header[:2] == ["component", "multiplicity"]
        np.testing.assert_array_equal(table[:, 0], np.arange(2 + 2 * n_sh))
        mult, probs = table[:, 1], table[:, 2:]
        assert mult.sum() == 2 + 2 * n_side**2
        np.testing.assert_allclose(mult @ probs, 1.0, rtol=0, atol=1e-12)
        spec = floquet.compute_spectrum(plan.params, plan.env, plan.schedule)
        assert probs.shape[1] == len(spec.fbs_indices) == 2
        phi = bright_isometry(plan.env) \
            @ spec.vectors[:, spec.columns[spec.fbs_indices]]
        members = np.concatenate([[0, 1], 2 + shells.index,
                                  2 + n_sh + shells.index])
        np.testing.assert_allclose(probs[members], np.abs(phi) ** 2,
                                   rtol=0, atol=1e-15)

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
                               delta=0.0, kappa=15.0, tau_s=np.pi / 5)
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

    def test_write_csv_matches_format_float(self, tmp_path):
        # columns are formatted per dtype; the bytes must stay those of
        # format_float applied cell by cell
        cols = [np.array([True, False, True]),
                np.array([3, -7, 2**62]),
                np.array([2.0, -0.0, np.nan]),
                np.array([1e-300, 0.1 + 0.2, -1.2345678901234567e17]),
                np.array([np.inf, 1 / 3, 5e-324])]
        path = tmp_path / "t.csv"
        write_csv(path, list("abcde"), cols)
        rows = [",".join(format_float(c[i]) for c in cols) for i in range(3)]
        assert path.read_bytes() == ("a,b,c,d,e\n" + "\n".join(rows)
                                     + "\n").encode()
        assert rows == [
            "1,3,2,1e-300,inf",
            "0,-7,-0,0.30000000000000004,0.33333333333333331",
            "1,4611686018427387904,nan,-1.2345678901234566e+17,"
            "4.9406564584124654e-324"]

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [np.array([1.0]), np.array([1.0, 2.0])]),
        ([], []),
        (["a"], [np.ones((2, 2))]),
    ], ids=["unequal-lengths", "empty-header", "2d-column"])
    def test_rejected_write_csv_keeps_old_file(self, tmp_path, header,
                                               columns):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [np.array([1.0, 2.0])])
        old = path.read_bytes()
        with pytest.raises(ValueError):
            write_csv(path, header, columns)
        assert path.read_bytes() == old

    def test_rejected_write_metadata_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.meta.json"
        write_metadata(path, {"x": 1.0})
        old = path.read_bytes()
        with pytest.raises(ValueError):
            write_metadata(path, {"x": float("nan")})
        assert path.read_bytes() == old

    @pytest.mark.parametrize("write", [
        lambda path, x: write_csv(path, ["x"], [np.array([x])]),
        lambda path, x: write_metadata(path, {"x": x, "created_at": "t0"}),
    ], ids=["csv", "metadata"])
    def test_rewrite_creates_new_file(self, tmp_path, write):
        # a writer that truncates in place would change the linked bytes
        path, fresh = tmp_path / "t", tmp_path / "fresh"
        write(path, 1.0)
        old = path.read_bytes()
        os.link(path, tmp_path / "link")
        write(path, 2.0)
        write(fresh, 2.0)
        assert (tmp_path / "link").read_bytes() == old
        assert path.read_bytes() == fresh.read_bytes() != old

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
