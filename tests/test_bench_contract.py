"""The names the benchmark in ``bench/`` reaches in the package.

``bench/tracing.py`` wraps package functions by name and
``bench/workloads.py`` calls package functions with keyword options, so a
rename in the package would otherwise only show when the benchmark runs.
These tests import both modules unchanged, install and uninstall the
tracer, build every workload and run the first operation of each.
"""

import inspect
import itertools
import sys
from pathlib import Path

import pytest

from robustness_envelope import exactmath, perturb, robustness

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
        yield tracing, workloads
    finally:
        sys.path.remove(str(BENCH))


def test_named_entry_points_exist():
    assert callable(exactmath.tail_table)
    assert callable(exactmath.harper_rhs)
    assert isinstance(robustness.MATRIX_CAP, int)
    assert callable(robustness._diff_pow_matrix.cache_info)
    assert callable(robustness.labels_for)
    assert "label_cache" in inspect.signature(
        perturb.find_perturbation).parameters


def test_tracer_installs_and_restores(bench):
    tracing, _ = bench
    originals = [getattr(owner, name) for owner, name, _, _ in tracing.TIMED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, name) is not original for
                   (owner, name, _, _), original in zip(tracing.TIMED, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is original for
               (owner, name, _, _), original in zip(tracing.TIMED, originals))


def test_first_operation_of_every_workload(bench):
    tracing, workloads = bench
    assert set(workloads.WORKLOADS) == {
        "verify-hamming", "verify-exact", "exhaustive-robustness",
        "sampled-robustness"}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, workload in workloads.WORKLOADS.items():
            state = workload.build(1)
            workload.reset(state)
            (key, op), = itertools.islice(workload.ops(state), 1)
            assert tracer.op(op)() is not None, name
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["exactmath.tail_table_calls"] > 0
    assert metrics["perturb.find_calls"] > 0
    assert metrics["robustness.labels_s"] > 0


def test_first_theorem1_operation_of_exhaustive_robustness(bench):
    # pins the benchmark's theorem1_holds(clf, c_values) call
    tracing, workloads = bench
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = workloads.WORKLOADS["exhaustive-robustness"]
        state = workload.build(1)
        workload.reset(state)
        key, op = next((key, op) for key, op in workload.ops(state)
                       if key[0] == "theorem1")
        report = tracer.op(op)()
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert report.entries and report.all_hold, key
    assert {e.c for e in report.entries} == set(workloads.THEOREM1_C)
    assert metrics["robustness.theorem1_s"] > 0
    assert metrics["hamming.expand_calls"] > 0
