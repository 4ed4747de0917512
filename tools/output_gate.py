"""Output-identity gate: every preset in two tiers, from two source trees.

    python3 tools/output_gate.py PARENT_SRC CHANGE_SRC

runs the qbsim package found in PARENT_SRC and in CHANGE_SRC (the
directories that hold ``qbsim/``) into gate/parent/<tier>/<run> and
gate/change/<tier>/<run> under the repository root, in two tiers:

* ``n_side-6``: each preset at n_side = 6, and beside them the runs of
  ``EXTRA_RUNS``, which take paths that no preset reaches: the
  memory-kernel routes (the lab frame at and off resonance, the rotating
  frame at and off resonance), the cycle kinds and spectra on unequal
  drive segments, a spectrum that stores the vectors of fewer modes than
  the default threshold would, and the ``spectrum`` kind;
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
  the same on both sides.  The worst relative difference
  |x - y| / max(1, |x|) is printed.

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
    ("fig3b-unequal", "fig3b", UNEQUAL),
    ("fig4c-unequal", "fig4c", UNEQUAL),
    ("fig4d-unequal", "fig4d", [*UNEQUAL, "t_max=4.5"]),
    # at n_side 6 only the weight-0.95 mode of the two bound states (0.86,
    # 0.95) keeps its vector, and the looser gap flags and samples it
    ("fig3b-threshold", "fig3b", ["weight_threshold=0.9", "gap_tolerance=0.1"]),
    # the one kind that no preset runs
    ("fig3b-spectrum", "fig3b", ["kind=spectrum"]),
]


def _cli(src, *args):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(src).resolve()),
           "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS}
    return subprocess.run([sys.executable, "-m", "qbsim.cli", *args], env=env,
                          capture_output=True, text=True)


def run_presets(src, out) -> list[str]:
    """Both tiers from the code in src, into out/<tier>; the failed runs."""
    listed = _cli(src, "list-presets")
    if listed.returncode:
        return [f"list-presets: {listed.stderr.strip()}"]
    presets = [(p, p, []) for p in
               (line.split()[0] for line in listed.stdout.splitlines())]
    failed = []
    for tier, runs, size in (("n_side-6", presets + EXTRA_RUNS, ["n_side=6"]),
                             ("own-size", presets, [])):
        for name, preset, overrides in runs:
            sets = [a for o in [*size, *overrides] for a in ("--set", o)]
            run = _cli(src, "run", "--preset", preset, *sets,
                       "--out", str(out / tier / name))
            if run.returncode:
                failed.append(f"{tier}/{name}: {run.stderr.strip()}")
    return failed


def _sidecar(path):
    meta = json.loads(path.read_text())
    meta.pop("created_at", None)
    return meta


def _leaves(x):
    """The keys and values of a JSON document, in order."""
    if isinstance(x, dict):
        return [v for k in x for v in [k, *_leaves(x[k])]]
    if isinstance(x, list):
        return [v for e in x for v in _leaves(e)]
    return [x]


def _cell(s):
    try:
        return float(s)
    except ValueError:
        return s


def _values(path):
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [_cell(c) for row in csv.reader(fh) for c in row]
    doc = json.loads(path.read_text())
    if isinstance(doc, dict):
        doc.pop("created_at", None)
    return _leaves(doc)


def _relative_gap(x, y):
    """|x - y| / max(1, |x|) for two numbers: 0 if equal (NaN against NaN
    too), inf if only one is NaN or infinite or they are not comparable;
    None for two equal non-numbers."""
    numbers = (int, float)
    if type(x) in numbers and type(y) in numbers:
        if x == y or (math.isnan(x) and math.isnan(y)):
            return 0.0
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        return abs(x - y) / max(1.0, abs(x))
    return None if x == y else math.inf


def compare(a, b):
    """Names that differ in bytes, names beyond tolerance, the worst
    relative difference and the number of files in a."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    others = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    missing = sorted(set(names) ^ set(others))
    byte = [str(n) for n in missing]
    tol = list(byte)
    worst = 0.0
    for n in sorted(set(names) & set(others)):
        x, y = a / n, b / n
        if n.name.endswith(".meta.json"):
            same = _sidecar(x) == _sidecar(y)
        else:
            same = x.read_bytes() == y.read_bytes()
        if not same:
            byte.append(str(n))
        vx, vy = _values(x), _values(y)
        if len(vx) != len(vy):
            tol.append(str(n))
            continue
        gaps = [g for g in map(_relative_gap, vx, vy) if g is not None]
        gap = max(gaps, default=0.0)
        worst = max(worst, gap)
        if gap > TOLERANCE:
            tol.append(str(n))
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
        for n in tol:
            print("  beyond tolerance:", n)
    return 1 if failed or not passed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
