"""qbsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One process, one client, closed loop, ``jobs = 1``.

With ``--trace 0`` the run times ops for S seconds and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of ops
twice, first untraced and then with spans around every layer, and reports
the per-layer metrics of the traced pass.  Every op's outputs are checked
against the committed references.  The last line of standard output is
the result as one JSON object.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import (JOBS, N_SIDE, WORKLOADS, extract_outputs,  # noqa: E402
                       load_reference, mismatches)

SETUP_PROBES = 5        # fresh interpreters timed for setup_s
TRACE_OPS = {"asymptotic-trace": 3, "detuned-sweep": 2, "continuum-memory": 2}
OUT_DIR = os.path.join(HERE, ".out")


class Refused(Exception):
    """The run cannot give a valid measurement; no result is printed."""


# ---------------------------------------------------------------------------
# set-up: what a user pays before the first op

def import_program():
    """Import qbsim from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "qbsim")):
        raise Refused(f"no qbsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import qbsim
    from qbsim import experiments
    if os.path.dirname(os.path.abspath(qbsim.__file__)) \
            != os.path.join(SRC, "qbsim"):
        raise Refused(f"qbsim imported from {qbsim.__file__}, not {SRC}")
    return experiments


def warm_up():
    """One eigendecomposition of a d x d matrix; the first one pays BLAS
    and LAPACK start-up, which a later op must not."""
    import numpy as np
    d = 2 + 2 * N_SIDE**2
    a = np.random.default_rng(0).standard_normal((d, d))
    np.linalg.eigh(a + a.T)


def set_up(workload, seed):
    """Import, warm up, and generate the seeded inputs."""
    experiments = import_program()
    warm_up()
    configs = [(unit, workload.make_config(unit))
               for unit in workload.draw(seed)]
    return experiments, configs


def measure_setup(workload, seed) -> float:
    """Median wall time from a fresh interpreter to the end of set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload.name, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise Refused(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# machine facts and the guards on them

def _blas_threads():
    """Thread count of every OpenBLAS library bundled with numpy/scipy."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    found[pkg.__name__] = fn()
                    break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def machine_facts(jobs) -> dict:
    """nproc, CPU, caches, BLAS and versions; refuses oversubscription."""
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    facts = {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jobs": jobs,
    }
    if jobs != JOBS:
        raise Refused(f"jobs must be {JOBS}, got {jobs}")
    if any(t > nproc for t in threads.values()):
        raise Refused(f"BLAS threads {threads} exceed nproc {nproc}")
    return facts


# ---------------------------------------------------------------------------
# ops

def run_op(experiments, workload, unit, cfg, out_dir, reference):
    """Run one op; returns (wall seconds, outputs or None, problems)."""
    start = time.perf_counter()
    try:
        files, summary = experiments.run_experiment(cfg, out_dir, jobs=JOBS)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return time.perf_counter() - start, None, [f"raised {exc!r}"]
    wall = time.perf_counter() - start
    outputs = extract_outputs(files, summary)
    ref = reference.get(workload.key(unit))
    if ref is None:
        problems = ["no reference"]
    elif "error" in ref:
        problems = [f"reference records {ref['error']}"]
    else:
        problems = mismatches(outputs, ref)
    return wall, outputs, problems


class Ledger:
    """Per-op walls, work and failures of one pass."""

    def __init__(self, workload):
        self.workload = workload
        self.walls, self.work, self.outputs, self.failures = [], 0, [], []

    def add(self, unit, wall, outputs, problems):
        self.walls.append(wall)
        self.outputs.append(outputs)
        if problems:
            self.failures.append({"unit": self.workload.key(unit),
                                  "problems": problems[:5]})
        else:
            self.work += self.workload.work_per_op


def timed_loop(experiments, workload, configs, seconds, out_dir, reference):
    ledger = Ledger(workload)
    deadline = time.perf_counter() + seconds
    for unit, cfg in configs:
        if ledger.walls and time.perf_counter() >= deadline:
            break
        ledger.add(unit, *run_op(experiments, workload, unit, cfg, out_dir,
                                 reference))
    return ledger


def traced_pass(experiments, workload, configs, out_dir, reference):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    ledger = Ledger(workload)
    try:
        for op, (unit, cfg) in enumerate(configs):
            tracer.op = op
            ledger.add(unit, *run_op(experiments, workload, unit, cfg,
                                     out_dir, reference))
    finally:
        restore()
    return tracer, ledger


def end_to_end_metrics(ledger, setup_s):
    return {
        "setup_s": setup_s,
        "work_per_s": ledger.work / sum(ledger.walls),
        "op_s.p50": statistics.median(ledger.walls),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def with_units(values, kind):
    """Attach the units BENCHMARK.json declares; the names must match it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(values) != set(declared):
        raise RuntimeError(f"{kind} metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(declared)}")
    return {k: {"value": v, "unit": declared[k]} for k, v in values.items()}


def run(workload, seed, seconds, traced, out_dir, jobs=JOBS):
    """One benchmark run; returns (report, result object)."""
    facts = machine_facts(jobs)
    setup_s = measure_setup(workload, seed)
    experiments, configs = set_up(workload, seed)
    reference = load_reference(workload)
    report = {"machine": facts, "workload": workload.name, "seed": seed,
              "work_unit": workload.work_unit}
    if not traced:
        ledger = timed_loop(experiments, workload, configs, seconds, out_dir,
                            reference)
        metrics = with_units(end_to_end_metrics(ledger, setup_s),
                             "end_to_end")
        failures = ledger.failures
    else:
        ops = configs[:TRACE_OPS[workload.name]]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        plain = timed_loop(experiments, workload, ops, float("inf"), out_dir,
                           reference)
        cpu_per_wall = (time.process_time() - cpu0) \
            / (time.perf_counter() - wall0)
        tracer, ledger = traced_pass(experiments, workload, ops, out_dir,
                                     reference)
        failures = ledger.failures + plain.failures
        if any(mismatches(t, p) for t, p in zip(ledger.outputs, plain.outputs)
               if t is not None and p is not None):
            failures.append({"unit": "traced pass",
                             "problems": ["outputs differ from untraced pass"]})
        if (ledger.work, len(ledger.walls)) != (plain.work, len(plain.walls)):
            failures.append({"unit": "traced pass",
                             "problems": ["counts differ from untraced pass"]})
        layers = tracing.layer_metrics(tracer, len(ops))
        layers["process.cpu_per_wall"] = cpu_per_wall
        layers["trace.overhead"] = sum(ledger.walls) / sum(plain.walls) - 1.0
        metrics = with_units(layers, "per_layer")
        report["spans"] = _write_spans(tracer, workload, seed)
    report["ops"] = [workload.key(u) for u, _ in configs[:len(ledger.walls)]]
    report["op_walls_s"] = ledger.walls
    report["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": len(ledger.walls),
        "failed": len({f["unit"] for f in ledger.failures}),
        "metrics": metrics,
    }
    return report, result


def _write_spans(tracer, workload, seed):
    path = os.path.join(OUT_DIR, "traces", f"{workload.name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(tracer.records(), fh)
    return os.path.relpath(path, ROOT)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=JOBS,
                        help="worker processes; only 1 is measured")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            set_up(workload, args.seed)
            print("ready", flush=True)
            return 0
        out_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
        try:
            report, result = run(workload, args.seed, args.seconds,
                                 bool(args.trace), out_dir, args.jobs)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    except (Refused, ImportError) as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
