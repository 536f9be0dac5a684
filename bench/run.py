"""End-to-end and per-layer benchmark of cathub on three seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep|oracle|herald --seed N --seconds S --trace 0|1

--trace 0 times the workload untraced: set-up in fresh interpreters, then
whole stratified batches of items, one after another in one process (a
closed loop with one caller), until the next batch would overrun --seconds.
Every item is checked after the timed region.

--trace 1 runs each item of the first TRACE_BATCHES batches twice,
untraced and then with every public cathub function wrapped (see
bench_trace), and reports per-layer counts and self times of that fixed
work, so counts repeat exactly for a seed, plus fixed-argument probes of
single layers.  The spans are written to bench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  The line before it records the machine
and the run's shape.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_RUNS = 5
TRACE_BATCHES = 4
SETUP_TIMEOUT_S = 120
PROBE_BUDGET_S = 0.25
PROBE_MIN_REPS = 5
BRANCH_SWITCH_Y = 0.3  # genfunc_derivative switches to the branch-point sum above this y

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

MODULES = ("cats", "hub", "fock", "logreal", "probabilities", "detector", "oracle", "cli")
CALLS = (
    "cats.optimal_y",
    "hub.heralded_amps",
    "fock.genfunc_derivative",
    "logreal.logreal_sum",
    "probabilities.joint_success_prob",
    "oracle.simulate_hub",
    "oracle.bs_matrix_element",
)
SELF = CALLS + (
    "cats.cat_state",
    "cats.mean_photon",
    "hub.heralded_state",
    "probabilities.conditional_prob",
    "detector.lossy_prob",
    "detector.lossy_fidelity_exact",
    "oracle.equivalence_grid",
    "oracle.simulate_lossy",
    "cli.main",
)
LOSSY = ("detector.lossy_prob", "detector.lossy_fidelity_exact")


def probe_calls():
    """Fixed-argument single-layer calls: name -> (scale to the unit, call)."""
    from cathub import cats, detector, fock, hub, oracle, probabilities
    from cathub.hub import HubConfig, Outcome

    one = HubConfig.from_target_y(0.4, (0.9,))
    two = HubConfig.from_target_y(0.45, (0.98, 0.98))
    probes = {}
    for order in (10, 90, 400):
        for regime, y in (("series", 0.2), ("branch", 0.45)):
            probes[f"probe.genfunc_o{order}_{regime}_us"] = (1e6, lambda o=order, y=y: fock.genfunc_derivative(o, y))
    probes["probe.heralded_amps_us"] = (1e6, lambda: hub.heralded_amps("even", 45, 0.4, 64))
    probes["probe.optimal_y_ms"] = (1e3, lambda: cats.optimal_y("even", 90, 6.0))
    probes["probe.joint_success_prob_us"] = (1e6, lambda: probabilities.joint_success_prob(two, Outcome((45, 45))))
    probes["probe.lossy_fidelity_exact_ms"] = (1e3, lambda: detector.lossy_fidelity_exact(one, 20, 0.95, 3.0))
    probes["probe.simulate_hub_ms"] = (1e3, lambda: oracle.simulate_hub(HubConfig(1.0, (0.8, 0.9)), Outcome((2, 2)), 40))
    return probes


def layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF})
    units.update({f"{mod}.self_s": "s" for mod in MODULES})
    units.update(
        {
            "cats.objective_evals": "count",
            "cats.evals_per_opt": "count",
            "hub.amps_elements": "count",
            "fock.genfunc_branch_share": "ratio",
            "fock.genfunc_order_mean": "order",
            "fock.genfunc_distinct_ratio": "ratio",
            "logreal.objects": "count",
            "detector.branches_per_lossy": "count",
            "cli.csv_bytes": "bytes",
            "bench.self_s": "s",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    for name in probe_calls():
        units[name] = name.rsplit("_", 1)[1]
    return units


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_one(workload, item):
    """(item, output, seconds, error); a raising item is recorded, not fatal."""
    t0 = time.perf_counter()
    try:
        out, err = workload.run(item), None
    except Exception as exc:  # the run goes on; the item counts as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return item, out, time.perf_counter() - t0, err


def check_all(workload, records) -> int:
    """Check every record outside the timed region; return the failed count."""
    failed = 0
    for item, out, _, err in records:
        if err is None:
            try:
                workload.check(item, out)
            except Exception as exc:  # a check that cannot complete also fails the item
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            if failed <= 5:
                print(f"bench: item failed: {item}: {err}", file=sys.stderr)
    return failed


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing cathub and running the first item."""
    code = (
        f"import sys; sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; "
        f"import bench_workloads; bench_workloads.setup_call({name!r}, {seed})"
    )
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return statistics.median(times)


def warm_up(workload, seed: int) -> None:
    """One item from a batch index the timed loop never uses, so lazy set-up is done before timing."""
    workload.run(workload.batch(seed, -1)[0])


def timed_run(workload, seed: int, seconds: float):
    """Whole batches until the next would overrun `seconds`.

    Returns (records, timed seconds, per-batch items per second).
    """
    records, walls, rates = [], [], []
    while True:
        items = workload.batch(seed, len(walls))
        t0 = time.perf_counter()
        records.extend(run_one(workload, item) for item in items)
        walls.append(time.perf_counter() - t0)
        rates.append(len(items) / walls[-1])
        if sum(walls) + walls[-1] > seconds:
            return records, sum(walls), rates


def end_to_end(workload, seed: int, seconds: float):
    import numpy as np

    setup = setup_seconds(workload.name, seed)
    warm_up(workload, seed)
    records, timed_s, rates = timed_run(workload, seed, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = check_all(workload, records)
    ms = np.array([dt for _, _, dt, _ in records]) * 1e3
    metrics = {
        "setup_s": setup,
        "items_per_s": len(records) / timed_s,
        "item_p50_ms": float(np.median(ms)),
        "item_tail_ms": float(np.percentile(ms, workload.tail_pct)),
        "ok_frac": 1.0 - failed / len(records),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    shape = {
        "items": len(records),
        "batch_items_per_s": [round(r, 3) for r in rates],
        "tail_percentile": workload.tail_pct,
        "items_beyond_tail": int(np.count_nonzero(ms > metrics["item_tail_ms"])),
        "setup_runs": SETUP_RUNS,
    }
    return records, failed, metrics, END_TO_END, shape


def layer_metrics(tracer, records, wall_traced: float, wall_plain: float) -> dict:
    import numpy as np

    name_id, _, _, parent = tracer.arrays()
    self_t = tracer.self_times()
    names = np.array(tracer.names)[name_id] if len(name_id) else np.array([], dtype=str)
    parents = np.where(parent >= 0, names[np.maximum(parent, 0)], "")

    def where(name):
        return names == name

    m = {f"{n}.calls": int(np.count_nonzero(where(n))) for n in CALLS}
    m.update({f"{n}.self_s": float(self_t[where(n)].sum()) for n in SELF})
    module_self = {mod: float(self_t[np.char.startswith(names, mod + ".")].sum()) for mod in MODULES}
    m.update({f"{mod}.self_s": s for mod, s in module_self.items()})

    opt_calls = m["cats.optimal_y.calls"]
    evals = int(np.count_nonzero(where("hub.heralded_amps") & (parents == "cats.optimal_y")))
    m["cats.objective_evals"] = evals
    m["cats.evals_per_opt"] = evals / opt_calls if opt_calls else 0.0

    amps_ids = np.flatnonzero(where("hub.heralded_amps"))
    m["hub.amps_elements"] = int(sum(tracer.payload[int(i)] for i in amps_ids))

    gen = [tracer.payload[int(i)] for i in np.flatnonzero(where("fock.genfunc_derivative"))]
    m["fock.genfunc_branch_share"] = sum(y > BRANCH_SWITCH_Y for _, y in gen) / len(gen) if gen else 0.0
    m["fock.genfunc_order_mean"] = sum(order for order, _ in gen) / len(gen) if gen else 0.0
    m["fock.genfunc_distinct_ratio"] = len(set(gen)) / len(gen) if gen else 0.0

    m["logreal.objects"] = tracer.logreal_objects
    lossy_calls = int(np.count_nonzero(np.isin(names, LOSSY)))
    branches = int(np.count_nonzero(where("probabilities.joint_success_prob") & np.isin(parents, LOSSY)))
    m["detector.branches_per_lossy"] = branches / lossy_calls if lossy_calls else 0.0
    m["cli.csv_bytes"] = sum(len(out["stdout"]) for _, out, _, _ in records if out and "stdout" in out)

    m["bench.self_s"] = wall_traced - sum(module_self.values())
    m["trace.wall_s"] = wall_traced
    m["trace.overhead_s"] = wall_traced - wall_plain
    return m


def probe_metrics() -> dict:
    out = {}
    for name, (scale, call) in probe_calls().items():
        call()
        times = []
        while len(times) < PROBE_MIN_REPS or sum(times) < PROBE_BUDGET_S:
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times) * scale
    return out


def per_layer(workload, seed: int):
    from bench_trace import Tracer

    warm_up(workload, seed)
    tracer = Tracer()
    records = []
    wall_plain = wall_traced = 0.0
    # each item runs untraced and then traced, so a slow spell of the
    # machine lands on both sides of trace.overhead_s alike
    items = [item for index in range(TRACE_BATCHES) for item in workload.batch(seed, index)]
    for item in items:
        wall_plain += run_one(workload, item)[2]
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("bench.item"):
                records.append(run_one(workload, item))
            wall_traced += time.perf_counter() - t0
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.npz")
    tracer.save(spans_path)

    failed = check_all(workload, records)
    metrics = layer_metrics(tracer, records, wall_traced, wall_plain)
    metrics.update(probe_metrics())
    shape = {"items": len(records), "batches": TRACE_BATCHES, "spans": len(tracer.start), "spans_file": os.path.relpath(spans_path, ROOT)}
    return records, failed, metrics, layer_units(), shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "oracle", "herald"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cathub", "__init__.py")):
        print(f"bench: no cathub sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cathub

    if os.path.dirname(os.path.abspath(cathub.__file__)) != os.path.join(SRC, "cathub"):
        print(f"bench: imported cathub from {cathub.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        records, failed, metrics, units, shape = per_layer(workload, args.seed)
    else:
        records, failed, metrics, units, shape = end_to_end(workload, args.seed, args.seconds)
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({**info, **shape, "machine": machine()}))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
