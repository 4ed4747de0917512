"""The output-identity gate's comparison of two run trees."""

import importlib.util
import json
import pathlib
import subprocess
from dataclasses import replace

import pytest

from qbsim import cli
from qbsim.experiments import PRESETS, parse_overrides

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_gate.py"
_SPEC = importlib.util.spec_from_file_location("output_gate", _PATH)
output_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_gate)


def _tree(root, value=0.25, created_at="2026-01-01T00:00:00"):
    """One preset's outputs: a CSV, summary.json and a sidecar."""
    run = root / "fig"
    run.mkdir(parents=True)
    (run / "trace.csv").write_text(f"t,energy\n0.0,{value!r}\n1.0,0.5\n")
    (run / "summary.json").write_text(json.dumps({"m_fbs": 2, "gap": value}))
    (run / "trace.meta.json").write_text(json.dumps(
        {"created_at": created_at, "final_norm": 1.0}))
    return root


def _verdicts(tmp_path, parent, change):
    """(byte mode passes, tolerance mode passes, worst relative difference)."""
    byte, tol, worst, count = output_gate.compare(
        _tree(tmp_path / "parent", **parent), _tree(tmp_path / "change", **change))
    assert count == 3
    return not byte, not tol, worst


def test_identical_trees_pass_both_modes(tmp_path):
    assert _verdicts(tmp_path, {}, {}) == (True, True, 0.0)


def test_rounding_change_passes_tolerance_only(tmp_path):
    byte_ok, tol_ok, worst = _verdicts(tmp_path, {"value": 0.25},
                                       {"value": 0.25 * (1 + 1e-12)})
    assert not byte_ok
    assert tol_ok
    assert worst == pytest.approx(0.25e-12, rel=1e-3)


def test_change_beyond_tolerance_fails(tmp_path):
    byte_ok, tol_ok, worst = _verdicts(tmp_path, {"value": 0.25},
                                       {"value": 0.25 + 1e-9})
    assert not byte_ok
    assert not tol_ok
    assert worst == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("before, after", [
    (0.25, float("nan")), (float("nan"), 0.25), (float("inf"), 1.0),
    (1.0, float("-inf")), (float("inf"), float("-inf"))])
def test_non_finite_on_one_side_fails(tmp_path, before, after):
    _, tol_ok, worst = _verdicts(tmp_path, {"value": before}, {"value": after})
    assert not tol_ok
    assert worst == float("inf")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_equal_non_finite_values_pass(tmp_path, value):
    assert _verdicts(tmp_path, {"value": value}, {"value": value}) \
        == (True, True, 0.0)


def test_sidecar_timestamp_is_ignored(tmp_path):
    byte_ok, tol_ok, _ = _verdicts(
        tmp_path, {"created_at": "2026-01-01T00:00:00"},
        {"created_at": "2026-06-30T12:34:56"})
    assert byte_ok and tol_ok


def test_missing_file_fails_both_modes(tmp_path):
    parent = _tree(tmp_path / "parent")
    change = _tree(tmp_path / "change")
    (change / "fig" / "summary.json").unlink()
    byte, tol, _, _ = output_gate.compare(parent, change)
    assert byte == list(tol) == ["fig/summary.json"]
    assert tol["fig/summary.json"] == ["only in the parent tree"]


def _rewrite(root, name, text):
    (root / "fig" / name).write_text(text)


def test_removed_sidecar_key_fails_by_path(tmp_path):
    # a key set that changes is a reason of its own, named by its path,
    # while every shared number still agrees
    parent = _tree(tmp_path / "parent")
    change = _tree(tmp_path / "change")
    columns = {"t": "time", "energy": "battery energy"}
    _rewrite(parent, "trace.meta.json", json.dumps(
        {"final_norm": 1.0, "columns": columns, "points": [{"kappa": 5.0}]}))
    del columns["energy"]
    _rewrite(change, "trace.meta.json", json.dumps(
        {"final_norm": 1.0, "columns": columns, "points": [{"kappa": 5.0}]}))
    byte, tol, worst, _ = output_gate.compare(parent, change)
    assert byte == ["fig/trace.meta.json"]
    assert tol == {"fig/trace.meta.json": ["removed columns.energy"]}
    assert worst == 0.0


def test_added_path_and_changed_string_are_named(tmp_path):
    parent = _tree(tmp_path / "parent")
    change = _tree(tmp_path / "change")
    _rewrite(parent, "summary.json", json.dumps(
        {"points": [{"kappa": 5.0}], "route": "exact"}))
    _rewrite(change, "summary.json", json.dumps(
        {"points": [{"kappa": 5.0, "m_fbs": 2}], "route": "volterra"}))
    _, tol, worst, _ = output_gate.compare(parent, change)
    assert tol == {"fig/summary.json": [
        "added points[0].m_fbs", "changed route: 'exact' -> 'volterra'"]}
    assert worst == 0.0


def test_csv_shape_change_fails_with_both_shapes(tmp_path):
    parent = _tree(tmp_path / "parent")
    change = _tree(tmp_path / "change")
    _rewrite(change, "trace.csv", "t,energy\n0.0,0.25\n")
    byte, tol, worst, _ = output_gate.compare(parent, change)
    assert byte == ["fig/trace.csv"]
    assert tol == {"fig/trace.csv": [
        "shape: 3 lines x 2 columns -> 2 lines x 2 columns"]}
    assert worst == 0.0


def test_numbers_beyond_tolerance_are_counted(tmp_path):
    _, tol, _, _ = output_gate.compare(
        _tree(tmp_path / "parent", value=0.25),
        _tree(tmp_path / "change", value=0.5))
    assert tol["fig/trace.csv"] == [
        "numbers beyond tolerance: 1, the worst 2.5e-01 at line 2, column 2"]
    assert tol["fig/summary.json"] == [
        "numbers beyond tolerance: 1, the worst 2.5e-01 at gap"]


@pytest.mark.parametrize("tier", ["n_side-6", "own-size"])
def test_every_gate_run_validates(tier):
    # each run's config as the CLI loads it, validated without computing:
    # a gate run that the tree no longer accepts shows here, not only in
    # the gate itself
    runs = [r for r in output_gate.gate_runs(sorted(PRESETS)) if r[0] == tier]
    assert len(runs) == len(PRESETS) + (tier == "n_side-6") \
        * len(output_gate.EXTRA_RUNS)
    for _, name, preset, overrides in runs:
        args = cli._build_parser().parse_args(
            ["run", "--preset", preset, "--out", name,
             *(a for o in overrides for a in ("--set", o))])
        plans = cli._load_configs(args)
        assert [p.cfg for p in plans] == [
            replace(cfg, **parse_overrides(overrides))
            for cfg in PRESETS[preset]], name


def test_tiers_and_blas_threads(tmp_path, monkeypatch):
    # every preset runs at n_side 6 beside EXTRA_RUNS, and again at its own
    # size; both trees run at one BLAS thread count, whatever the caller's
    calls = []

    def fake_run(cmd, env, **kwargs):
        calls.append((cmd[3:], env))
        listing = "fig3b    asymptotic  two bound states\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=listing, stderr="")

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.setattr(output_gate.subprocess, "run", fake_run)
    assert output_gate.run_presets(tmp_path, tmp_path / "out") == []
    for _, env in calls:
        assert env["OPENBLAS_NUM_THREADS"] == output_gate.BLAS_THREADS
        assert env["OMP_NUM_THREADS"] == output_gate.BLAS_THREADS
    runs = [args[args.index("--out") + 1] for args, _ in calls[1:]]
    out = tmp_path / "out"
    assert runs == [str(out / "n_side-6" / name) for name in
                    ["fig3b"] + [n for n, _, _ in output_gate.EXTRA_RUNS]] \
        + [str(out / "own-size" / "fig3b")]
    assert "n_side=6" not in calls[-1][0]
