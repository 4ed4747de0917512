"""Output-identity gate: every preset in two tiers, from two source trees.

    python3 tools/output_gate.py PARENT_SRC CHANGE_SRC

runs the qbsim package found in PARENT_SRC and in CHANGE_SRC (the
directories that hold ``qbsim/``) into gate/parent/<tier>/<run> and
gate/change/<tier>/<run> under the repository root, in two tiers:

* ``n_side-6``: each preset at n_side = 6, and beside them the runs of
  ``EXTRA_RUNS``, which take paths that no preset reaches: the
  memory-kernel routes (the lab frame at and off resonance, the rotating
  frame at and off resonance), the cycle kinds and spectra on unequal
  drive segments, the cycle kinds over 100 periods, a spectrum that stores the vectors of fewer modes than
  the default threshold would, the ``spectrum`` kind, and a sweep whose
  weakly coupled pair level sits halfway round the zone from the band;
* ``own-size``: each preset at its own n_side, where paths that depend on
  the lattice size (near-threshold flags, clustered band eigenvalues)
  can differ.

Both trees run with OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to
``BLAS_THREADS``, since output bytes depend on the BLAS thread count.  For
each tier it then prints two verdicts:

* byte mode: the CSV files and summary.json must be byte-identical, and
  the sidecars equal once ``created_at`` is removed;
* tolerance mode: every CSV cell, summary number and sidecar number
  (without ``created_at``) must agree to |x - y| <= 1e-10 max(1, |x|), with
  strings and the shape of each file equal; a NaN or an infinity must be
  the same on both sides.  JSON documents are compared by key path, so a
  file that fails is listed with its reasons: the paths added or removed,
  the strings changed, a CSV's shape before and after, or the count of
  numbers beyond tolerance and the worst of them.  The worst relative
  difference |x - y| / max(1, |x|) of the numbers at shared paths is
  printed.

A change that should move no number passes byte mode; a change that only
reorders floating-point work passes tolerance mode.  The exit status is 0
when every run finished and tolerance mode passes in both tiers, 1
otherwise.
"""

import csv
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

TOLERANCE = 1e-10
GATE = pathlib.Path(__file__).resolve().parent.parent / "gate"
# OPENBLAS_NUM_THREADS and OMP_NUM_THREADS of both trees' runs
BLAS_THREADS = "1"
# reasons printed per file that fails tolerance mode
_SHOWN = 5
UNEQUAL = ["tau_c=0.3", "tau_s=0.45", "tau_d=0.15"]
# (output directory, preset, overrides) of the runs on paths no preset takes
EXTRA_RUNS = [
    ("fig2a-volterra-continuum", "fig2a", ["route=volterra", "kernel=continuum"]),
    ("fig2a-volterra-pm", "fig2a", ["route=volterra-pm"]),
    ("fig2a-volterra-pm-detuned", "fig2a", ["route=volterra-pm", "delta=0.5"]),
    # the lab-frame memory route off resonance
    ("fig2a-volterra-detuned", "fig2a", ["route=volterra", "delta=0.5"]),
    # the cycle kinds' default T/240 grid off the preset's segments
    ("fig1b-unequal", "fig1b", UNEQUAL),
    # 100 T in whole T/240 steps, where the closed pair's round-off
    # grows with the number of periods
    ("fig1b-long", "fig1b", ["t_max=83.77580409572782"]),
    ("fig3b-unequal", "fig3b", UNEQUAL),
    ("fig4c-unequal", "fig4c", UNEQUAL),
    ("fig4d-unequal", "fig4d", [*UNEQUAL, "t_max=4.5"]),
    # at n_side 6 only the weight-0.95 mode of the two bound states (0.86,
    # 0.95) keeps its vector, and the looser gap flags and samples it
    ("fig3b-threshold", "fig3b", ["weight_threshold=0.9", "gap_tolerance=0.1"]),
    # the one kind that no preset runs
    ("fig3b-spectrum", "fig3b", ["kind=spectrum"]),
    # a weakly coupled pair level halfway round the zone from the band
    ("fig4a-weak-pair", "fig4a", ["omega_0=1.0", "g=0.01"]),
]


def _cli(src, *args):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(src).resolve()),
           "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS}
    return subprocess.run([sys.executable, "-m", "qbsim.cli", *args], env=env,
                          capture_output=True, text=True)


def gate_runs(presets) -> list[tuple[str, str, str, list[str]]]:
    """(tier, output directory, preset, overrides) of every run of both
    tiers, for the preset names ``presets``."""
    own = [(p, p, []) for p in presets]
    return ([("n_side-6", name, preset, ["n_side=6", *overrides])
             for name, preset, overrides in own + EXTRA_RUNS]
            + [("own-size", *run) for run in own])


def run_presets(src, out) -> list[str]:
    """Both tiers from the code in src, into out/<tier>; the failed runs."""
    listed = _cli(src, "list-presets")
    if listed.returncode:
        return [f"list-presets: {listed.stderr.strip()}"]
    failed = []
    for tier, name, preset, overrides in gate_runs(
            line.split()[0] for line in listed.stdout.splitlines()):
        sets = [a for o in overrides for a in ("--set", o)]
        run = _cli(src, "run", "--preset", preset, *sets,
                   "--out", str(out / tier / name))
        if run.returncode:
            failed.append(f"{tier}/{name}: {run.stderr.strip()}")
    return failed


def _sidecar(path):
    """A JSON file without its ``created_at``."""
    doc = json.loads(path.read_text())
    if isinstance(doc, dict):
        doc.pop("created_at", None)
    return doc


def _paths(x, path=""):
    """The leaves of a JSON document by key path, such as
    ``columns.multiplicity`` or ``points[3].kappa``; an empty object or
    array below the top is a leaf."""
    if isinstance(x, dict) and (x or not path):
        return {p: v for k in x
                for p, v in _paths(x[k], f"{path}.{k}" if path else k).items()}
    if isinstance(x, list) and (x or not path):
        return {p: v for i, e in enumerate(x)
                for p, v in _paths(e, f"{path}[{i}]").items()}
    return {path: x}


def _cell(s):
    try:
        return float(s)
    except ValueError:
        return s


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _shape(rows):
    return f"{len(rows)} lines x {len(rows[0]) if rows else 0} columns"


def _relative_gap(x, y):
    """|x - y| / max(1, |x|) for two numbers: 0 if equal (NaN against NaN
    too), inf if only one is NaN or infinite; None for anything else."""
    numbers = (int, float)
    if type(x) not in numbers or type(y) not in numbers:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(1.0, abs(x))


def differences(x, y):
    """Why file y fails tolerance mode against file x, and the worst
    relative difference of their shared numbers.

    A CSV whose shape changed is one reason.  Otherwise both files are
    compared by path (a JSON key path, or a CSV line and column): a path on
    one side only is added or removed, a changed string (or other
    non-number) is changed, and numbers at shared paths must agree to
    ``TOLERANCE``.
    """
    if x.suffix == ".csv":
        rx, ry = _rows(x), _rows(y)
        if list(map(len, rx)) != list(map(len, ry)):
            return [f"shape: {_shape(rx)} -> {_shape(ry)}"], 0.0
        vx, vy = ({f"line {i + 1}, column {j + 1}": _cell(c)
                   for i, row in enumerate(rows) for j, c in enumerate(row)}
                  for rows in (rx, ry))
    else:
        vx, vy = _paths(_sidecar(x)), _paths(_sidecar(y))
    reasons = ([f"removed {p}" for p in vx if p not in vy]
               + [f"added {p}" for p in vy if p not in vx])
    worst, beyond = 0.0, []
    for p in (p for p in vx if p in vy):
        gap = _relative_gap(vx[p], vy[p])
        if gap is None:
            if vx[p] != vy[p]:
                reasons.append(f"changed {p}: {vx[p]!r} -> {vy[p]!r}")
            continue
        worst = max(worst, gap)
        if gap > TOLERANCE:
            beyond.append((gap, p))
    if beyond:
        gap, p = max(beyond)
        reasons.append(f"numbers beyond tolerance: {len(beyond)}, the "
                       f"worst {gap:.1e} at {p}")
    return reasons, worst


def compare(a, b):
    """Compare the parent tree a with the change tree b: the names that
    differ in bytes, the names that fail tolerance mode with their reasons
    (``differences``), the worst relative difference and the number of
    files in a."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    others = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    missing = sorted(set(names) ^ set(others))
    byte = [str(n) for n in missing]
    tol = {str(n): ["only in the parent tree" if n in names
                    else "only in the change tree"] for n in missing}
    worst = 0.0
    for n in sorted(set(names) & set(others)):
        x, y = a / n, b / n
        if n.name.endswith(".meta.json"):
            same = _sidecar(x) == _sidecar(y)
        else:
            same = x.read_bytes() == y.read_bytes()
        if not same:
            byte.append(str(n))
        reasons, gap = differences(x, y)
        worst = max(worst, gap)
        if reasons:
            tol[str(n)] = reasons
    return byte, tol, worst, len(names)


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/output_gate.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 1
    shutil.rmtree(GATE, ignore_errors=True)
    failed = []
    for side, src in zip(("parent", "change"), argv):
        failed += [f"{side} {f}" for f in run_presets(src, GATE / side)]
    for f in failed:
        print("FAILED:", f)
    print(f"BLAS threads: {BLAS_THREADS} (OPENBLAS_NUM_THREADS, "
          "OMP_NUM_THREADS)")
    passed = True
    for tier in ("n_side-6", "own-size"):
        byte, tol, worst, count = compare(GATE / "parent" / tier,
                                          GATE / "change" / tier)
        passed = passed and not tol
        print(f"{tier} byte mode: {'PASS' if not byte else 'FAIL'} ({count} "
              f"files, {len(byte)} differ)")
        for n in byte:
            print("  differs:", n)
        print(f"{tier} tolerance mode ({TOLERANCE:g}): "
              f"{'PASS' if not tol else 'FAIL'} ({count} files, worst "
              f"relative difference {worst:.1e})")
        for n, reasons in tol.items():
            print("  fails:", n)
            for r in reasons[:_SHOWN]:
                print("    " + r)
            if len(reasons) > _SHOWN:
                print(f"    ... and {len(reasons) - _SHOWN} more")
    return 1 if failed or not passed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
