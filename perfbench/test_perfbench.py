"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run real ops at n_side = 20, so the whole file takes about a minute.
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, TOLERANCE,  # noqa: E402
                       WORKLOADS, load_reference, mismatches)


@pytest.fixture(scope="module")
def experiments():
    return run.import_program()


def _first_number(tree):
    """Path and value of the first float in a reference entry."""
    for key, value in tree.items():
        if isinstance(value, float):
            return [key], value
        if isinstance(value, dict):
            found = _first_number(value)
            if found:
                return [key] + found[0], found[1]
    return None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    first = workload.draw(DEFAULT_SEED)
    assert first == workload.draw(DEFAULT_SEED)
    assert sorted(first) == sorted(workload.units)
    assert first != workload.draw(HELD_OUT_SEED)


def test_default_seed_kappas_are_pinned():
    # a change of Python's shuffle or of the grid would silently change
    # every workload's inputs
    assert WORKLOADS["asymptotic-trace"].draw(DEFAULT_SEED)[:4] \
        == [5.9, 3.45, 4.25, 5.75]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_covers_grid(name):
    workload = WORKLOADS[name]
    assert set(load_reference(workload)) == {workload.key(u)
                                            for u in workload.units}


def test_tolerance_separates_reformulation_from_defect():
    ref = {"a": 1.5, "b": [0.25, -3.0], "m": 2}
    near = {"a": 1.5 + 1e-10, "b": [0.25 - 1e-10, -3.0 + 3e-10], "m": 2}
    assert mismatches(near, ref) == []
    assert mismatches({**near, "a": 1.5 + 10 * TOLERANCE}, ref)
    assert mismatches({**near, "m": 1}, ref)
    assert mismatches({"a": 1.5, "b": [0.25]}, ref)


def test_perturbed_output_counts_as_failed_op(experiments, tmp_path):
    workload = WORKLOADS["asymptotic-trace"]
    unit = workload.draw(DEFAULT_SEED)[0]
    cfg = workload.make_config(unit)
    reference = load_reference(workload)
    ledger = run.Ledger(workload)
    ledger.add(unit, *run.run_op(experiments, workload, unit, cfg,
                                 str(tmp_path), reference))
    assert ledger.failures == [] and ledger.work == 20

    bad = copy.deepcopy(reference)
    path, value = _first_number(bad[workload.key(unit)])
    node = bad[workload.key(unit)]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value + 1e3 * TOLERANCE * max(1.0, abs(value))
    ledger.add(unit, *run.run_op(experiments, workload, unit, cfg,
                                 str(tmp_path), bad))
    assert len(ledger.failures) == 1 and ledger.work == 20


def test_traced_counts_equal_untraced(monkeypatch, tmp_path):
    workload = WORKLOADS["asymptotic-trace"]
    monkeypatch.setitem(run.TRACE_OPS, workload.name, 1)
    plain_report, plain = run.run(workload, DEFAULT_SEED, 0.0, False,
                                  str(tmp_path))
    traced_report, traced = run.run(workload, DEFAULT_SEED, 0.0, True,
                                    str(tmp_path))
    assert plain["correct"] and traced["correct"], traced_report["failures"]
    assert (plain["attempted"], plain["failed"]) \
        == (traced["attempted"], traced["failed"]) == (1, 0)
    assert plain_report["ops"] == traced_report["ops"]
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layers["dynamics.eigh.dim"] == 802
    assert layers["dynamics.eigh.calls"] == 2
    assert layers["dynamics.eigh.unique_ratio"] == 0.5
    assert layers["dynamics.propagate.steps"] == 480
    assert layers["environment.kernel.lags"] == 0


def test_refuses_oversubscribed_blas(monkeypatch):
    nproc = len(os.sched_getaffinity(0))
    monkeypatch.setattr(run, "_blas_threads", lambda: {"numpy": nproc + 1})
    with pytest.raises(run.Refused):
        run.machine_facts(run.JOBS)


def test_refuses_parallel_jobs():
    with pytest.raises(run.Refused):
        run.machine_facts(run.JOBS + 1)
