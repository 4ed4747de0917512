"""Spans around the calls into each qbsim layer, recorded from outside.

``install`` replaces the layers' public entry points, wherever a qbsim
module has bound them, with wrappers that open a span and count work at
the boundary; the returned function puts the originals back.  Nothing in
the program changes.  A span's self time is its length minus the time
its child spans cover.
"""

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name for the wrapped entry points
SPANS = {
    ("dynamics", "build_hamiltonian"): "dynamics.hamiltonian",
    ("dynamics", "build_sector_hamiltonian"): "dynamics.hamiltonian",
    ("dynamics", "propagate_exact"): "dynamics.propagate",
    ("dynamics", "solve_volterra"): "dynamics.volterra",
    ("environment", "memory_kernel_continuum"): "environment.kernel",
    ("environment", "memory_kernel_discrete"): "environment.kernel",
    ("floquet", "resonant_spectrum"): "floquet.resonant",
    ("floquet", "one_period_operator"): "floquet.period_operator",
    ("floquet", "quasienergy_spectrum"): "floquet.schur",
    ("floquet", "fbs_floquet_modes"): "floquet.modes",
    ("floquet", "decompose_energy_terms"): "floquet.decompose",
    ("output", "write_csv"): "output.csv",
    ("output", "write_metadata"): "output.meta",
    ("experiments", "run_experiment"): "experiments.run",
}


class Tracer:
    """Spans and boundary counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.eigh_keys = []    # (params, env) of each SegmentPropagators
        self.eigh_dim = 0
        self.schur_dim = 0
        self.op = None

    def enter(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def leave(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def self_times(self) -> dict:
        """Summed self time per span name."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start - child[i]
        return busy

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def _after(tracer, name, args, result):
    """Counts taken at a boundary once the call returns."""
    c = tracer.counts
    if name in ("dynamics.propagate", "dynamics.volterra"):
        c[name + ".steps"] += result.times.size - 1
    elif name == "environment.kernel":
        c["environment.kernel.lags"] += getattr(args[1], "size", 1)
    elif name == "floquet.schur":
        tracer.schur_dim = max(tracer.schur_dim, args[0].shape[0])
    elif name == "floquet.modes":
        c["floquet.modes.count"] += len(result)
    elif name == "output.csv":
        c["output.csv.rows"] += len(args[2][0])
        c["output.csv.bytes"] += os.path.getsize(result)


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        _after(tracer, name, args, result)
        return result
    return traced


def install(tracer: Tracer):
    """Wrap every layer entry point; returns a function that undoes it."""
    import qbsim
    from qbsim import dynamics
    modules = [m for n, m in sys.modules.items()
               if n == "qbsim" or n.startswith("qbsim.")]
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for (mod, attr), name in SPANS.items():
        original = getattr(getattr(qbsim, mod), attr)
        traced = _wrap(tracer, name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    patch(m, key, traced)

    cls = dynamics.SegmentPropagators
    init, apply = cls.__init__, cls.apply

    @functools.wraps(init)
    def traced_init(self, params, env, *args, **kwargs):
        tracer.enter("dynamics.eigh")
        try:
            init(self, params, env, *args, **kwargs)
        finally:
            tracer.leave()
        tracer.counts["dynamics.eigh.calls"] += 1
        tracer.eigh_keys.append((params, env))
        tracer.eigh_dim = max(tracer.eigh_dim, self.dimension)

    @functools.wraps(apply)
    def counted_apply(self, *args, **kwargs):
        if tracer.current() == "floquet.modes":
            tracer.counts["floquet.modes.applies"] += 1
        return apply(self, *args, **kwargs)

    patch(cls, "__init__", traced_init)
    patch(cls, "apply", counted_apply)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics of the traced ops, as {name: value} per op."""
    busy = tracer.self_times()
    c = tracer.counts
    calls = c["dynamics.eigh.calls"]
    return {
        "dynamics.eigh.calls": calls / n_ops,
        "dynamics.eigh.dim": tracer.eigh_dim,
        "dynamics.eigh.busy_s": busy["dynamics.eigh"] / n_ops,
        "dynamics.eigh.unique_ratio":
            len(set(tracer.eigh_keys)) / calls if calls else 0.0,
        "dynamics.hamiltonian.busy_s": busy["dynamics.hamiltonian"] / n_ops,
        "dynamics.propagate.steps": c["dynamics.propagate.steps"] / n_ops,
        "dynamics.propagate.busy_s": busy["dynamics.propagate"] / n_ops,
        "dynamics.propagate.step_s": _ratio(busy["dynamics.propagate"],
                                            c["dynamics.propagate.steps"]),
        "dynamics.volterra.steps": c["dynamics.volterra.steps"] / n_ops,
        "dynamics.volterra.busy_s": busy["dynamics.volterra"] / n_ops,
        "environment.kernel.lags": c["environment.kernel.lags"] / n_ops,
        "environment.kernel.busy_s": busy["environment.kernel"] / n_ops,
        "environment.kernel.lag_s": _ratio(busy["environment.kernel"],
                                           c["environment.kernel.lags"]),
        "floquet.resonant.busy_s": busy["floquet.resonant"] / n_ops,
        "floquet.period_operator.busy_s":
            busy["floquet.period_operator"] / n_ops,
        "floquet.schur.busy_s": busy["floquet.schur"] / n_ops,
        "floquet.schur.dim": tracer.schur_dim,
        "floquet.modes.count": c["floquet.modes.count"] / n_ops,
        "floquet.modes.applies": c["floquet.modes.applies"] / n_ops,
        "floquet.modes.busy_s": busy["floquet.modes"] / n_ops,
        "floquet.decompose.busy_s": busy["floquet.decompose"] / n_ops,
        "output.csv.rows": c["output.csv.rows"] / n_ops,
        "output.csv.bytes": c["output.csv.bytes"] / n_ops,
        "output.csv.busy_s": busy["output.csv"] / n_ops,
        "output.meta.busy_s": busy["output.meta"] / n_ops,
        "experiments.run.self_s": busy["experiments.run"] / n_ops,
    }


def _ratio(a, b):
    return a / b if b else 0.0
