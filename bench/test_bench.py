"""Tests of the benchmark itself: seeded inputs, tracer hygiene, tiny runs."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import cathub  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from cathub import fock, hub  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH_DIR, "run.py"))
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

WORKLOADS = bench_workloads.WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name):
    batch = WORKLOADS[name].batch
    assert batch(3, 0) == batch(3, 0)
    assert batch(3, 0) != batch(4, 0)
    assert batch(3, 0) != batch(3, 1)


def _bindings():
    return {(m.__name__, attr): fn for m, attr, fn in bench_trace.package_bindings()}


def test_tracer_restores_every_binding():
    before = _bindings()
    init = cathub.LogReal.__dict__.get("__init__")
    tracer = bench_trace.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # names re-exported with `from .fock import ...` share one wrapper
            assert hub.genfunc_derivative is fock.genfunc_derivative
            assert fock.genfunc_derivative is not before[("cathub.fock", "genfunc_derivative")]
            assert cathub.LogReal.__dict__.get("__init__") is not init
            hub.heralded_state("even", 2, 0.3)
            raise RuntimeError("leave the block by an exception")
    assert _bindings() == before
    assert all(fn.__module__.startswith("cathub") for fn in before.values())
    assert cathub.LogReal.__dict__.get("__init__") is init
    assert tracer.logreal_objects > 0
    assert {"fock.genfunc_derivative", "hub.heralded_amps", "hub.heralded_state"} <= set(tracer.names)


def test_spans_nest_and_self_time_fits_wall():
    tracer = bench_trace.Tracer()
    item = WORKLOADS["herald"].batch(1, 0)[0]
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span("bench.item"):
            WORKLOADS["herald"].run(item)
        wall = time.perf_counter() - t0
    _, start, end, parent = tracer.arrays()
    assert parent[0] == -1 and (parent[1:] >= 0).all()
    inner = parent >= 0
    assert (parent[inner] < inner.nonzero()[0]).all()
    assert (start[inner] >= start[parent[inner]]).all() and (end[inner] <= end[parent[inner]]).all()
    self_t = tracer.self_times()
    assert (self_t >= -1e-9).all()
    assert self_t.sum() <= wall
    assert math.isclose(self_t.sum(), end[0] - start[0], rel_tol=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_checks(name):
    workload = WORKLOADS[name]
    records = [bench_run.run_one(workload, item) for item in workload.batch(7, 0)[:3]]
    assert [err for *_, err in records] == [None] * 3
    assert bench_run.check_all(workload, records) == 0


def test_check_catches_wrong_output():
    workload = WORKLOADS["sweep"]
    item = workload.batch(7, 0)[0]
    _, out, _, _ = bench_run.run_one(workload, item)
    header, row = out["stdout"].splitlines()
    fields = row.split(",")
    fields[3] = repr(float(fields[3]) * 1.01)  # move y_star off the optimum
    bad = dict(out, stdout=f"{header}\n{','.join(fields)}\n")
    with pytest.raises(bench_workloads.CheckFailed):
        workload.check(item, bad)


@pytest.mark.parametrize("order", [0, 1, 2, 7])
def test_genfunc_reference_matches_closed_form(order):
    y = 0.21
    exact = {
        0: (1 - 4 * y * y) ** -0.5,
        1: 4 * y * (1 - 4 * y * y) ** -1.5,
        2: 4 * (1 + 8 * y * y) * (1 - 4 * y * y) ** -2.5,
    }
    if order in exact:
        assert bench_workloads.genfunc_log_reference(order, y) == pytest.approx(math.log(exact[order]), abs=1e-14)
    else:
        assert bench_workloads.genfunc_log_reference(order, y) == pytest.approx(
            fock.genfunc_derivative(order, y).log_mag, abs=1e-12
        )


def test_layer_metrics_cover_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    units = bench_run.layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    for name, workload in WORKLOADS.items():
        tracer = bench_trace.Tracer()
        records = []
        with tracer.installed():
            for item in workload.batch(5, 0)[:2]:
                with tracer.span("bench.item"):
                    records.append(bench_run.run_one(workload, item))
        metrics = bench_run.layer_metrics(tracer, records, 1.0, 0.5)
        assert set(units) - set(metrics) == {n for n in units if n.startswith("probe.")}
        if name == "sweep":
            assert metrics["cats.evals_per_opt"] > 0 and metrics["oracle.simulate_hub.calls"] == 0
        if name == "oracle":
            assert metrics["cats.optimal_y.calls"] == 0 and metrics["oracle.bs_matrix_element.calls"] > 0
        if name == "herald":
            assert metrics["fock.genfunc_branch_share"] == 1.0 and metrics["detector.branches_per_lossy"] >= 1


def test_run_without_sources_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
