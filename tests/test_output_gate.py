"""The output-identity gate's comparison of two run trees."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

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
    assert byte == tol == ["fig/summary.json"]


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
