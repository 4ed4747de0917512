"""Command-line interface: argument handling, exit codes, emitted files."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from qbsim import cli, dynamics, experiments
from qbsim.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestListPresets:
    def test_lists_all(self, capsys):
        assert run_cli("list-presets") == 0
        out = capsys.readouterr().out
        for name in ("fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a",
                     "fig4b", "fig4c", "fig4d", "sm-s1", "sm-s2"):
            assert name in out


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("kind = spectrum\nkappa = 8.0\nn_side = 4\n")
        assert run_cli("validate", str(cfg)) == 0

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("kind = spectrum\nkapa = 8.0\n")
        assert run_cli("validate", str(cfg)) == 1
        assert "kapa" in capsys.readouterr().err

    def test_empty_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(
            "kind = kappa-sweep\nkappa_min = 5\nkappa_max = 4\nkappa_step = 0.5\n"
        )
        assert run_cli("validate", str(cfg)) == 1

    @pytest.mark.parametrize("kind", ["kappa-sweep", "perturbation"])
    @pytest.mark.parametrize("kappa_min", [0, -1])
    def test_nonpositive_sweep_coupling(self, tmp_path, capsys, kind,
                                        kappa_min):
        # kappa = 0 used to reach the runner as a division by zero, and a
        # negative one as a SystemParams error (exit code 2)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"kind = {kind}\nn_side = 4\nkappa_min = {kappa_min}\n"
                       "kappa_max = 1\nkappa_step = 1\n")
        assert run_cli("validate", str(cfg)) == 1
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert "kappa_min" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body, reason", [
        # T/24 sampling cannot resolve tau_s = 0.5 next to the half-swap
        # segments
        ("kind = asymptotic\ntau_s = 0.5\n", "multiples of T/24"),
        # the perturbative formulas need equal segments and resonance
        ("kind = perturbation\ntau_s = 0.3\nkappa_min = 5\nkappa_max = 6\n"
         "kappa_step = 1\n", "equal protocol segments"),
        ("kind = perturbation\ndelta = 0.5\n", "delta = 0"),
        ("kind = nonresonant\ndelta = 0.5\nkappa = 8\ntau_s = 0.5\n",
         "equal protocol segments"),
        # T = pi/2 on the half-swap segments.  A step of 0.2805 used to
        # snap to T/6 and write 9 rows to t = 2.094; t_max = 2 is
        # no whole number of T/24 (used to end at t = 2.029), of the
        # default memory-route step (t = 2.00277) or of the asymptotic
        # trace step (t = 2.02895)
        ("kind = dynamics\nroute = exact\ndt = 0.2805\nt_max = 1.9635\n",
         "whole steps; the step is dt"),
        ("kind = dynamics\nt_max = 2.0\n",
         "t_max = 2: it must divide each into whole steps; the step is T/24"),
        ("kind = dynamics\nroute = volterra\nt_max = 2.0\n",
         "t_max = 2: it must divide each into whole steps; the step is the "
         "solver's default"),
        ("kind = dynamics\nroute = volterra-pm\nt_max = 2.0\n",
         "t_max = 2: it must divide each into whole steps; the step is the "
         "solver's default"),
        ("kind = asymptotic\nt_max = 2.0\n",
         "t_max = 2: it must divide each into whole steps; the step is T/24"),
        # no step of about T/240 divides pi/6, 0.5 and pi/6
        ("kind = ideal-cycle\ntau_s = 0.5\n",
         "whole steps; the step is T/240 in whole steps; set dt"),
        # these used to run something other than what they say: memory-
        # route keys on a kind that traces on the exact route at T/24, an
        # exact run that ignored its dt for T/24, and a partial grid filled
        # in to 21 points from kappa = 5
        ("kind = asymptotic\nroute = volterra\nkernel = continuum\n"
         "dt = 0.001\n",
         "config key dt: kind asymptotic does not read it"),
        ("kind = dynamics\nroute = exact\ndt = 0.0123\n",
         "whole steps; the step is dt"),
        ("kind = perturbation\nkappa_min = 12\n",
         "kind perturbation needs its sweep grid: set kappa_max, kappa_step"),
    ], ids=["asymptotic-tau_s", "perturbation-tau_s", "perturbation-delta",
            "nonresonant-tau_s", "exact-dt",
            "exact-t_max", "volterra-t_max", "volterra-pm-t_max",
            "asymptotic-t_max", "ideal-cycle-tau_s", "asymptotic-memory-keys",
            "exact-unaligned-dt",
            "perturbation-partial-grid"])
    def test_rejected_config(self, tmp_path, capsys, body, reason):
        # each of these used to validate and then fail the run, or run and
        # write rows off the requested grid: now both commands reject it
        # before any work is done, and say why
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body + "n_side = 4\n")
        out = tmp_path / "out"
        assert run_cli("validate", str(cfg)) == 1
        assert reason in capsys.readouterr().err
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("omega_0, reason", [
        (1.0, "band center"), (3.0, "band edge")])
    def test_markov_rates_undefined(self, tmp_path, capsys, omega_0, reason):
        # without gamma the run computes the rates; at the band center they
        # do not exist, at a band edge the Lamb shift is infinite
        cfg = tmp_path / "markov.cfg"
        cfg.write_text(f"kind = markov\nomega_0 = {omega_0}\n")
        assert run_cli("validate", str(cfg)) == 1
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert reason in err and "set gamma" in err
        assert not out.exists()
        cfg.write_text(f"kind = markov\nomega_0 = {omega_0}\ngamma = 0.1\n")
        assert run_cli("validate", str(cfg)) == 0

    def test_missing_file(self, tmp_path):
        assert run_cli("validate", str(tmp_path / "nope.cfg")) == 1

    @pytest.mark.parametrize("key, kind, preset", [
        # the bound states are sampled on the trace's own T/24 grid
        ("n_offsets", "asymptotic", "fig3b"),
        # dt steps the cycle kinds, as it does every dynamics route
        ("n_samples", "ideal-cycle", "fig1b")], ids=["n_offsets", "n_samples"])
    def test_removed_key(self, tmp_path, capsys, key, kind, preset):
        # the key is unknown in a config file and in --set alike
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"kind = {kind}\nn_side = 4\n{key} = 24\n")
        assert run_cli("validate", str(cfg)) == 1
        assert f"unknown config key: {key}" in capsys.readouterr().err
        out = tmp_path / "out"
        assert run_cli("run", "--preset", preset, "--set", "n_side=4",
                       "--set", f"{key}=5", "--out", str(out)) == 1
        assert f"unknown config key: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_row_count_rejected_before_output(self, tmp_path, capsys):
        # 1e15 samples used to validate, then make the output directory
        # and die in numpy allocating 7 PiB for the sample times
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kind = ideal-cycle\ndt = 1e-15\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert "config error: config key dt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        "kind = asymptotic\n",
        "kind = nonresonant\ndelta = 0.5\nkappa = 8.0\n",
        "kind = dynamics\n",
    ])
    def test_memory_cap(self, tmp_path, capsys, monkeypatch, body):
        # the kinds that propagate states check the propagator estimate up
        # front, as run would; nothing large is built here.  The cap lies
        # under the smallest estimate at n_side 6 (n = 20): 20 n^2 = 8000
        # bytes for resonant propagation
        monkeypatch.setattr(dynamics, "MEMORY_CAP", 5e3)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(body + "n_side = 6\n")
        assert run_cli("validate", str(cfg)) == 1
        assert "exceeds cap" in capsys.readouterr().err
        if body == "kind = dynamics\n":  # the one kind that reads route
            # memory-kernel routes build no propagators
            cfg.write_text(body + "n_side = 6\nroute = volterra\n")
            assert run_cli("validate", str(cfg)) == 0


    @pytest.mark.parametrize("body, expected", [
        # one complex 15,880-dimensional shell operator alone takes 4 GB
        ("kind = spectrum\ndelta = 0.5\nkappa = 15\nn_side = 250\n", 1),
        ("kind = kappa-sweep\nn_side = 300\nkappa_min = 3\nkappa_max = 6\n"
         "kappa_step = 0.05\n", 1),
        ("kind = spectrum\ndelta = 0.5\nkappa = 15\nn_side = 100\n", 0),
        # resonant spectra, 28 n^2 bytes: n = 10,304 at n_side 201 (2.97 GB)
        # is admitted, n = 10,408 at n_side 202 (3.03 GB) is not
        ("kind = spectrum\nkappa = 15\nn_side = 201\n", 0),
        ("kind = spectrum\nkappa = 15\nn_side = 202\n", 1),
        # exact propagation, n = 10,204: 20 n^2 bytes (2.08 GB) at zero
        # detuning, 32 n^2 (3.33 GB) detuned
        ("kind = dynamics\nn_side = 200\n", 0),
        ("kind = dynamics\ndelta = 0.5\nn_side = 200\n", 1),
    ], ids=["detuned-250", "sweep-300", "detuned-100", "resonant-201",
            "resonant-202", "exact-200",
            "exact-200-detuned"])
    def test_spectrum_memory_cap(self, tmp_path, capsys, body, expected):
        # each estimate is checked without building any matrix
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(body)
        tracemalloc.start()
        try:
            code = run_cli("validate", str(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == expected
        if expected:
            assert "exceeds cap" in capsys.readouterr().err
        assert peak < 64e6

class TestRun:
    def test_preset_bundle(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "fig1b", "--out", str(out)) == 0
        names = {p.name for p in out.iterdir()}
        assert {"ideal-resonant.csv", "ideal-detuned.csv", "markov.csv",
                "summary.json"} <= names
        summary = json.loads((out / "summary.json").read_text())
        assert summary["preset"] == "fig1b"
        assert len(summary["configs"]) == 3
        assert len(summary["results"]) == 3
        assert "created_at" not in summary  # summary itself is reproducible
        printed = capsys.readouterr().out
        assert "ideal-resonant.csv" in printed
        # T/240 by default: 720 steps over the default 3T
        for name in ("ideal-resonant", "ideal-detuned", "markov"):
            t = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1,
                           usecols=0)
            assert t.size == 721
            np.testing.assert_allclose(np.diff(t), 4 * np.pi / 15 / 240,
                                       rtol=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        # the second run into a rewrites the files the first one left there
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, a, b):
            assert run_cli("run", "--preset", "fig1b", "--out", str(out)) == 0
        for name in ("ideal-resonant.csv", "ideal-detuned.csv", "markov.csv",
                     "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rerun_creates_new_files(self, tmp_path):
        # a link to an earlier run's output keeps that run's bytes
        out, old = tmp_path / "out", tmp_path / "old"
        old.mkdir()
        assert run_cli("run", "--preset", "fig1b", "--out", str(out)) == 0
        names = ("markov.csv", "markov.meta.json", "summary.json")
        before = {name: (out / name).read_bytes() for name in names}
        for name in names:
            os.link(out / name, old / name)
        # T/8 on fig1b's segments, so every output changes
        assert run_cli("run", "--preset", "fig1b", "--set",
                       "dt=0.10471975511965977", "--out", str(out)) == 0
        for name in names:
            assert (old / name).read_bytes() == before[name]
            assert (out / name).read_bytes() != before[name]

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("kind = spectrum\nlabel = tiny\nkappa = 8.0\nn_side = 6\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--set", "n_side=4",
                       "--out", str(out)) == 0
        meta = json.loads((out / "tiny.meta.json").read_text())
        assert meta["config"]["n_side"] == 4

    def test_preset_override_applies_to_all(self, tmp_path):
        out = tmp_path / "out"
        # T/8 on fig1b's segments (T = 4 pi/15): 24 steps over 3T
        assert run_cli("run", "--preset", "fig1b", "--set",
                       "dt=0.10471975511965977", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(c["dt"] == np.pi / 30 for c in summary["configs"])
        rows = (out / "markov.csv").read_text().splitlines()
        assert len(rows) == 26

    def test_requires_exactly_one_source(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kind = spectrum\nn_side = 4\nkappa = 8\n")
        assert run_cli("run", "--out", out) == 1
        assert run_cli("run", "--preset", "fig1b", "--config", str(cfg),
                       "--out", out) == 1

    def test_unknown_preset(self, tmp_path):
        assert run_cli("run", "--preset", "fig9z", "--out", str(tmp_path)) == 1

    def test_bad_override_value(self, tmp_path, capsys):
        assert run_cli("run", "--preset", "fig1b", "--set", "kappa=fast",
                       "--out", str(tmp_path)) == 1

    def test_runtime_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # a config that validates and then fails inside the solver exits 2;
        # the failure is injected, since validate now catches the markov
        # rates that used to fail here
        def fail(*args, **kwargs):
            raise ValueError("injected solver failure")

        monkeypatch.setattr(experiments, "markov_energy", fail)
        cfg = tmp_path / "m.cfg"
        cfg.write_text("kind = markov\nkappa = 15.0\n")
        assert run_cli("validate", str(cfg)) == 0
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
        assert "numerical failure: injected" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_volterra_pm_runs_detuned(self, tmp_path):
        # the rotating-frame march holds at any detuning; t_max = 2T
        cfg = tmp_path / "pm.cfg"
        cfg.write_text("kind = dynamics\nroute = volterra-pm\ndelta = 0.5\n"
                       f"n_side = 4\nt_max = {np.pi!r}\n")
        assert run_cli("validate", str(cfg)) == 0
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        meta = json.loads((out / "dynamics.meta.json").read_text())
        assert meta["solver"]["route"] == "volterra-pm"
        assert sorted(meta["solver"]) == ["dt", "kernel", "route", "t_max"]

    def test_label_stays_in_out(self, tmp_path, capsys):
        # a label with a path in it used to write ../escaped.csv beside out
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kind = ideal-cycle\nlabel = ../escaped\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert "config key label" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]

    def test_shared_stem_rejected(self, tmp_path, capsys):
        # one label over fig2a's three runs used to write x.csv three
        # times and list it three times in summary.json
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "fig2a", "--set", "n_side=4",
                       "--set", "label=x", "--out", str(out)) == 1
        assert "output stem 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_override_rejected(self, tmp_path, capsys):
        # the later --set used to win silently, as a repeated key in a
        # config file does not
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "fig3b", "--set", "n_side=4",
                       "--set", "n_side=5", "--out", str(out)) == 1
        assert "duplicate override key: n_side" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_member_writes_nothing(self, tmp_path, capsys):
        # delta = 0.5 leaves fig1b's ideal cycles valid and its markov
        # member not: every member is validated before any output
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "fig1b", "--set", "delta=0.5",
                       "--out", str(out)) == 1
        assert "kind markov: its formulas hold only at delta = 0" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_overrides_apply_before_validation(self, tmp_path):
        # the config file alone is invalid; run validates it as overridden
        cfg = tmp_path / "m.cfg"
        cfg.write_text("kind = markov\ndelta = 0.5\ngamma = 0.1\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--set", "delta=0",
                       "--out", str(out)) == 0
        assert (out / "markov.csv").exists()

    def test_missing_subcommand(self):
        assert run_cli() == 1

    def test_asymptotic_beyond_full_basis_cap(self, tmp_path):
        # d = 9802 at n_side = 70: the full-basis eigenbases alone would
        # exceed the cap, the bright shells (2 + 2 * 649) do not; t_max = 2T
        cfg = tmp_path / "big.cfg"
        cfg.write_text("kind = asymptotic\nn_side = 70\n"
                       f"t_max = {np.pi!r}\n")
        assert run_cli("validate", str(cfg)) == 0
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "asymptotic.csv").read_text().splitlines()
        assert len(rows) > 1 + 24  # header, then more than one period


class TestPlans:
    @pytest.fixture
    def plans_built(self, monkeypatch):
        # validate_config builds a plan; count its calls under both names
        calls = []
        validate = experiments.validate_config

        def counting(cfg):
            calls.append(cfg.label or cfg.kind)
            return validate(cfg)

        monkeypatch.setattr(experiments, "validate_config", counting)
        monkeypatch.setattr(cli, "validate_config", counting)
        return calls

    def test_run_config(self, tmp_path, plans_built):
        # the file used to be validated on parsing, in the CLI and in the
        # runner: three plans
        cfg = tmp_path / "a.cfg"
        cfg.write_text("kind = asymptotic\nn_side = 4\n")
        assert run_cli("run", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == 0
        assert plans_built == ["asymptotic"]

    @pytest.mark.parametrize("argv, stems", [
        (["--preset", "fig3b", "--set", "n_side=4"], ["oscillating"]),
        (["--preset", "fig1b"], ["ideal-resonant", "ideal-detuned", "markov"]),
    ], ids=["fig3b", "fig1b"])
    def test_run_preset(self, tmp_path, plans_built, argv, stems):
        # used to be two plans per member: the CLI's, then the runner's
        assert run_cli("run", *argv, "--out", str(tmp_path / "out")) == 0
        assert plans_built == stems

    def test_validate(self, tmp_path, plans_built):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("kind = asymptotic\nn_side = 4\n")
        assert run_cli("validate", str(cfg)) == 0
        assert plans_built == ["asymptotic"]
