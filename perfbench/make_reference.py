"""Regenerate the committed reference outputs of every workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every unit of each workload's grid once through the same op code the
benchmark times, and writes perfbench/reference/<workload>.json.  A unit
that raises is kept, as an entry {"error": "..."}.  Per-unit wall times go
to standard output and are not stored.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import import_program, warm_up  # noqa: E402
from workloads import (REFERENCE_DIR, TOLERANCE, WORKLOADS,  # noqa: E402
                       extract_outputs, reference_path)

COMMAND = "python3 perfbench/make_reference.py"


def reference_entries(experiments, workload, out_dir):
    entries = {}
    for unit in workload.units:
        cfg = workload.make_config(unit)
        start = time.perf_counter()
        try:
            files, summary = experiments.run_experiment(cfg, out_dir, jobs=1)
        except Exception as exc:  # recorded, so the unit stays on its grid
            entries[workload.key(unit)] = {"error": repr(exc)}
        else:
            entries[workload.key(unit)] = extract_outputs(files, summary)
        print(f"{workload.name} {workload.key(unit)} "
              f"{time.perf_counter() - start:.3f}s", flush=True)
    return entries


def main(names):
    experiments = import_program()
    import qbsim
    warm_up()
    out_dir = os.path.join(os.path.dirname(REFERENCE_DIR), ".out", "reference")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entries = reference_entries(experiments, workload, out_dir)
        head = {
            "command": f"{COMMAND} {name}",
            "program": f"qbsim {qbsim.__version__}",
            "tolerance": f"|x - ref| <= {TOLERANCE:g} * max(1, |ref|)",
        }
        # one line per entry keeps the file diffable
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()]
        with open(reference_path(workload), "w") as fh:
            fh.write(json.dumps(head)[:-1] + ', "entries": {\n')
            fh.write(",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
