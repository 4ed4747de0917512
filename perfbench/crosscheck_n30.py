"""Traced cross-check of the lattice layers at n_side = 30 (d = 1802).

    python3 perfbench/crosscheck_n30.py

Runs one traced op of each lattice workload at kappa = 15, plus the fig4d
op (detuned asymptotic run), whose bound-state mode sampling is the one
the ROADMAP baseline timed, and writes perfbench/crosscheck_n30.json.
Per-layer numbers only: this is not an end-to-end workload, and its
outputs are not checked against references.
"""

import dataclasses
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from run import HERE, import_program, machine_facts, warm_up  # noqa: E402
from workloads import JOBS, WORKLOADS  # noqa: E402

N_SIDE = 30
KAPPA = 15.0
# ROADMAP baseline at N = 30, kappa = 15, on the machine it was measured on
BASELINE = {
    "eigendecomposition pair (s)": 2.1,
    "propagation per step (s)": 0.044,
    "resonant spectrum (s)": 3.9,
    "detuned spectrum (s)": 10.2,
    "detuned mode sampling (s)": 8.0,
}


def ops():
    asym = WORKLOADS["asymptotic-trace"].make_config(KAPPA, n_side=N_SIDE)
    sweep = WORKLOADS["detuned-sweep"].make_config((KAPPA - 1.0, KAPPA),
                                                   n_side=N_SIDE)
    fig4d = dataclasses.replace(asym, label="fig4d-shape", delta=0.5)
    return {"asymptotic-trace": asym, "detuned-sweep": sweep,
            "fig4d-shape": fig4d}


def traced_op(experiments, cfg, out_dir):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    start = time.perf_counter()
    try:
        experiments.run_experiment(cfg, out_dir, jobs=JOBS)
    finally:
        restore()
    wall = time.perf_counter() - start
    layers = tracing.layer_metrics(tracer, 1)
    return {"op_s": wall,
            "layers": {k: v for k, v in layers.items() if v}}


def main():
    experiments = import_program()
    warm_up()
    facts = machine_facts(JOBS)
    out_dir = os.path.join(HERE, ".out", "crosscheck")
    results = {}
    for name, cfg in ops().items():
        results[name] = traced_op(experiments, cfg, out_dir)
        print(name, json.dumps(results[name]), flush=True)
    asym, sweep, fig4d = (results[k]["layers"] for k in
                          ("asymptotic-trace", "detuned-sweep", "fig4d-shape"))
    # the baseline timed whole calls, so a call's own eigendecomposition
    # pair (a child span here) is added back where the call makes one
    pair = asym["dynamics.eigh.busy_s"] / asym["dynamics.eigh.calls"]
    sweep_pair = sweep["dynamics.eigh.busy_s"] / sweep["dynamics.eigh.calls"]
    fig4d_pair = fig4d["dynamics.eigh.busy_s"] / fig4d["dynamics.eigh.calls"]
    measured = {
        "eigendecomposition pair (s)": pair,
        "propagation per step (s)": asym["dynamics.propagate.step_s"],
        "resonant spectrum (s)": asym["floquet.resonant.busy_s"],
        "detuned spectrum (s)": sweep_pair
            + (sweep["floquet.period_operator.busy_s"]
               + sweep["floquet.schur.busy_s"]) / 3,
        "detuned mode sampling (s)": fig4d_pair
            + fig4d["floquet.modes.busy_s"],
    }
    record = {
        "command": "python3 perfbench/crosscheck_n30.py",
        "n_side": N_SIDE, "kappa": KAPPA, "machine": facts,
        "baseline_vs_measured": {k: {"baseline": BASELINE[k],
                                     "measured": measured[k]}
                                 for k in BASELINE},
        "ops": results,
    }
    with open(os.path.join(HERE, "crosscheck_n30.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
