"""Command-line interface: argument handling, exit codes, emitted files."""

import json
import tracemalloc

import pytest

from qbsim import dynamics, experiments
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

    def test_unrunnable_protocol(self, tmp_path, capsys):
        # T/24 sampling cannot resolve tau_s = 0.5 next to the half-swap
        # segments: a config error up front, not a numerical failure later
        cfg = tmp_path / "asy.cfg"
        cfg.write_text("kind = asymptotic\nn_side = 4\ntau_s = 0.5\n")
        assert run_cli("validate", str(cfg)) == 1
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert "aligned" in capsys.readouterr().err
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

    @pytest.mark.parametrize("body", [
        "kind = asymptotic\n",
        "kind = nonresonant\ndelta = 0.5\nkappa = 8.0\n",
        "kind = dynamics\n",
    ])
    def test_memory_cap(self, tmp_path, capsys, monkeypatch, body):
        # the kinds that propagate states check the propagator estimate up
        # front, as run would; nothing large is built here
        monkeypatch.setattr(dynamics, "MEMORY_CAP", 1e4)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(body + "n_side = 6\n")
        assert run_cli("validate", str(cfg)) == 1
        assert "exceeds cap" in capsys.readouterr().err
        # memory-kernel routes build no propagators
        cfg.write_text(body + "n_side = 6\nroute = volterra\n")
        expected = 0 if body == "kind = dynamics\n" else 1
        assert run_cli("validate", str(cfg)) == expected


    @pytest.mark.parametrize("body, expected", [
        # one complex 15,880-dimensional shell operator alone takes 4 GB
        ("kind = spectrum\ndelta = 0.5\nkappa = 15\nn_side = 250\n", 1),
        ("kind = kappa-sweep\nn_side = 300\nkappa_min = 3\nkappa_max = 6\n"
         "kappa_step = 0.05\n", 1),
        ("kind = spectrum\ndelta = 0.5\nkappa = 15\nn_side = 100\n", 0),
    ], ids=["detuned-250", "sweep-300", "detuned-100"])
    def test_spectrum_memory_cap(self, tmp_path, capsys, body, expected):
        # the spectrum estimate is checked without building any matrix
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

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", "--preset", "fig1b", "--out", str(out)) == 0
        for name in ("ideal-resonant.csv", "ideal-detuned.csv", "markov.csv",
                     "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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
        assert run_cli("run", "--preset", "fig1b", "--set", "n_samples=24",
                       "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(c["n_samples"] == 24 for c in summary["configs"])
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

    def test_missing_subcommand(self):
        assert run_cli() == 1

    def test_asymptotic_beyond_full_basis_cap(self, tmp_path):
        # d = 9802 at n_side = 70: the full-basis eigenbases alone would
        # exceed the cap, the bright shells (2 + 2 * 649) do not
        cfg = tmp_path / "big.cfg"
        cfg.write_text("kind = asymptotic\nn_side = 70\nt_max = 2.0\n"
                       "n_offsets = 24\n")
        assert run_cli("validate", str(cfg)) == 0
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "asymptotic.csv").read_text().splitlines()
        assert len(rows) > 1 + 24  # header, then more than one period
