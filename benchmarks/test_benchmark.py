"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from measure import measure, metric_units
from tracing import Tracer, layer_table
from workloads import WORKLOADS, BuildCore, EstimateLarge, SolveMany, diffusion_triplets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = {
    "build-core": lambda seed, tracer=None: BuildCore(seed, nx=8, r=5, tracer=tracer),
    "solve-many": lambda seed, tracer=None: SolveMany(seed, nx=8, r=5, tracer=tracer),
    "estimate-large": lambda seed, tracer=None: EstimateLarge(seed, nx=10, m=10, n_v=4, tracer=tracer),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_emits_every_metric_with_its_unit(name, traced):
    workload = TINY[name](3, tracer=Tracer() if traced else None)
    record = measure(workload, seconds=0.01)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["fail_ratio"] == 0.0
    assert record["attempted"] >= workload.min_ops
    assert {k: v["unit"] for k, v in record["metrics"].items()} == metric_units(traced)
    values = [v["value"] for v in record["metrics"].values()]
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in values)
    if not traced:
        assert all(v > 0 for v in values)
    for key in ("seed", "workload", "n", "nnz_A", "nnz_Q", "r", "m", "n_v",
                "numpy", "scipy", "nproc", "blas_threads"):
        assert key in record


def test_traced_layers_cover_the_op():
    workload = TINY["solve-many"](0, tracer=Tracer())
    record = measure(workload, seconds=0.01)
    assert record["trace_consistent"]
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["trace.unattributed_ratio"] < 0.05
    assert metrics["pcg.iters"] > 0
    assert metrics["linalg.tri_solve.calls"] == pytest.approx(2 * (metrics["pcg.iters"] + 1))
    assert metrics["setup.linalg.sym_eig.s"] > 0


def _corrupt(workload, change, at=1):
    op = workload.op

    def corrupted(i, inp):
        result = op(i, inp)
        return change(result) if i == at else result

    workload.op = corrupted
    return workload


def _alpha_outside_interval(res):
    return {**res, "alpha": 2.0 * res["interval"][1]}


def _shifted_estimate(res):
    est = res["est"]
    return {**res, "est": dataclasses.replace(est, logdet_est=est.logdet_est + 1e3)}


def _wrong_solution(report):
    report.x = report.x + 1.0
    return report


def _raises(result):
    raise FloatingPointError("injected")


@pytest.mark.parametrize("name, change", [
    ("build-core", _alpha_outside_interval),
    ("estimate-large", _shifted_estimate),
    ("solve-many", _wrong_solution),
    ("build-core", _raises),
])
def test_corrupted_op_counts_in_fail_ratio(name, change):
    workload = _corrupt(TINY[name](1), change)
    record = measure(workload, seconds=0.01)
    assert not record["correct"]
    assert record["failed"] == 1
    assert list(record["failures"]) == ["1"]
    assert record["fail_ratio"] == 1 / record["attempted"]


def test_inputs_come_from_the_seed():
    a, b, c = (diffusion_triplets(6, s) for s in (4, 4, 5))
    assert all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))
    assert not np.array_equal(a[3], c[3])
    n, rows, cols, vals = a
    assert n == 36 and np.all(rows >= cols)


def test_self_times_add_up_to_the_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.patched():
        with tracer.span("op"):          # 0 .. 7
            with tracer.span("a"):       # 1 .. 4
                with tracer.span("b"):   # 2 .. 3
                    pass
            with tracer.span("b"):       # 5 .. 6
                pass
    table = layer_table(tracer.spans, [0])
    assert table["op"] == {"s": 7.0, "self_s": 3.0, "calls": 1}
    assert table["a"] == {"s": 3.0, "self_s": 2.0, "calls": 1}
    assert table["b"] == {"s": 2.0, "self_s": 2.0, "calls": 2}
    assert sum(row["self_s"] for row in table.values()) == table["op"]["s"]


def test_patched_restores_the_library():
    from bld_kaporin import precond, rla

    before = (precond.tri_solve, rla.lanczos, precond.Preconditioner.apply_inverse)
    with Tracer().patched():
        assert precond.tri_solve is not before[0]
    assert (precond.tri_solve, rla.lanczos, precond.Preconditioner.apply_inverse) == before


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "build-core",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
