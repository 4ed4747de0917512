"""Workload definitions: seeded inputs, one timed op, checked outputs.

Every workload runs closed loop with one client: an op is one call to
``qbsim.experiments.run_experiment`` and the next op starts when it
returns.  All workloads use an n_side = 20 lattice (d = 802) and the
config defaults otherwise (omega_0 = 2, varpi = 1, q = 0.5, g = 0.5,
half-swap segments).

A workload's grid is a list of units; one op consumes one unit.  The seed
fixes the order in which units are drawn, without replacement, so no two
ops of a run share inputs and a cache can only help within an op.
"""

import csv
import dataclasses
import json
import math
import os
import random

N_SIDE = 20
JOBS = 1
ASYMPTOTIC_PERIODS = 20          # t_max of an asymptotic-trace op, in periods
SWEEP_POINTS_PER_OP = 3          # consecutive fig4c grid points per sweep op
STRATA = 3                       # thirds of a grid that each draw round spans
TOLERANCE = 1e-8                 # |x - ref| <= TOLERANCE * max(1, |ref|)
DEFAULT_SEED = 1
HELD_OUT_SEED = 20090698

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def _fig2b_kappas():
    """The fig2b grid {3.00, 3.05, ..., 6.00}."""
    return [round(3.0 + 0.05 * i, 2) for i in range(61)]


def _fig4c_windows():
    """The fig4c grid {5.0, 5.5, ..., 15.0} cut into 7 windows of 3 points."""
    starts = [5.0 + 0.5 * SWEEP_POINTS_PER_OP * j for j in range(7)]
    return [(k, k + 0.5 * (SWEEP_POINTS_PER_OP - 1)) for k in starts]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    units: tuple          # the grid, one entry per op
    settings: dict        # ExperimentConfig fields shared by every op
    periods: int          # t_max in drive periods; 0 for a sweep
    work_unit: str        # what work_per_s counts
    work_per_op: int

    def key(self, unit) -> str:
        """Reference key of a unit."""
        if isinstance(unit, tuple):
            return f"{unit[0]:.1f}-{unit[1]:.1f}"
        return f"{unit:.2f}"

    def make_config(self, unit, n_side=N_SIDE):
        """The program's input for one op."""
        from qbsim.experiments import ExperimentConfig, resolve_schedule
        if isinstance(unit, tuple):  # a window of a sweep grid
            lo, hi = unit
            return ExperimentConfig(label=self.name, n_side=n_side,
                                    kappa_min=lo, kappa_max=hi,
                                    kappa_step=0.5, **self.settings)
        cfg = ExperimentConfig(label=self.name, n_side=n_side, kappa=unit,
                               **self.settings)
        return dataclasses.replace(
            cfg, t_max=self.periods * resolve_schedule(cfg).period)

    def draw(self, seed: int) -> list:
        """The seed's op order: every unit once, in a seeded random order.

        Op cost varies along the grid, so the order is stratified: each
        round takes one unit from every third of the grid, in a random
        order.  A run's few ops then span the grid for every seed.
        """
        rng = random.Random(f"{self.name}/{seed}")
        n = len(self.units)
        strata = [list(self.units[i * n // STRATA:(i + 1) * n // STRATA])
                  for i in range(STRATA)]
        for stratum in strata:
            rng.shuffle(stratum)
        order = []
        while any(strata):
            turn = [s for s in strata if s]
            rng.shuffle(turn)
            order += [s.pop() for s in turn]
        return order


WORKLOADS = {w.name: w for w in (
    Workload(name="asymptotic-trace", units=tuple(_fig2b_kappas()),
             settings={"kind": "asymptotic"}, periods=ASYMPTOTIC_PERIODS,
             work_unit="periods", work_per_op=ASYMPTOTIC_PERIODS),
    Workload(name="detuned-sweep", units=tuple(_fig4c_windows()),
             settings={"kind": "kappa-sweep", "delta": 0.5}, periods=0,
             work_unit="points", work_per_op=SWEEP_POINTS_PER_OP),
    Workload(name="continuum-memory", units=tuple(_fig2b_kappas()),
             settings={"kind": "dynamics", "route": "volterra",
                       "kernel": "continuum"}, periods=1,
             work_unit="periods", work_per_op=1),
)}


# ---------------------------------------------------------------------------
# checked outputs

def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def extract_outputs(files: list, summary: dict) -> dict:
    """The outputs of one op that are compared with the reference."""
    csv_file = next(f for f in files if f.endswith(".csv"))
    header, rows = _read_csv(csv_file)
    if "points" in summary:  # a sweep
        points = {}
        for point in summary["points"]:
            kappa = point["kappa"]
            sel = sorted((r for r in rows if r[0] == kappa),
                         key=lambda r: r[2])
            entry = {"m_fbs": point["m_fbs"],
                     "quasienergies": [r[2] for r in sel],
                     "fbs_flags": [int(r[4]) for r in sel]}
            if "delta_eps0" in point:
                entry["delta_eps0"] = point["delta_eps0"]
            points[f"{kappa:.1f}"] = entry
        return {"points": points}
    keep = ("m_fbs", "delta_eps0", "tail_mean_abs_diff_over_omega0",
            "final_period_mean")
    out = {k: summary[k] for k in keep if k in summary}
    out["final_row"] = dict(zip(header, rows[-1]))
    return out


def mismatches(got, ref, path="") -> list[str]:
    """Where ``got`` differs from ``ref``: numbers at TOLERANCE, the rest exactly."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(ref)}"]
        return [m for k in ref for m in mismatches(got[k], ref[k], f"{path}/{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in mismatches(g, r, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        ok = isinstance(got, (int, float)) and math.isfinite(got) \
            and abs(got - ref) <= TOLERANCE * max(1.0, abs(ref))
        return [] if ok else [f"{path}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def reference_path(workload: Workload) -> str:
    return os.path.join(REFERENCE_DIR, workload.name + ".json")


def load_reference(workload: Workload) -> dict:
    """Reference outputs keyed by unit; an entry {"error": ...} records a
    unit that raised when the references were made."""
    with open(reference_path(workload)) as fh:
        return json.load(fh)["entries"]
