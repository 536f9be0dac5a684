"""Seeded workloads of the cathub benchmark: inputs, calls and output checks.

Each workload turns (seed, batch index) into a list of items, runs one
item through cathub's public entry points, and checks one item's output
outside the timed region.  Batches are stratified over the input ranges so
that every batch, whatever the seed, carries the same mix of cheap and
costly items; the seed only moves the points inside each stratum.

    sweep   single-row `fidelity-sweep` / `meanphoton-sweep` CLI calls;
            loads cli -> cats.optimal_y -> hub.heralded_amps ->
            fock.genfunc_derivative over many y, never oracle or detector.
    oracle  small `oracle-check` grids plus oracle.simulate_lossy on one or
            two taps; loads oracle and logreal, leaves cats idle.
    herald  probabilities and lossy-detector calls at a fixed y from a small
            per-seed pool of (order, y), so fock sees few distinct,
            high-order, branch-point evaluations.

Calls go through module attributes (``cathub.cli.main``, not a local
name) so that the tracer's rebinding of those attributes sees them.
"""

import contextlib
import functools
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from cathub import cats, cli, detector, fock, hub, oracle, probabilities
from cathub.hub import HubConfig, Outcome

# Tolerances of the output checks.
REL_TOL = 1e-9  # recomputed value against the reported one
OPT_SLACK = 1e-12  # a neighbour of y_star may beat it by at most this much
Y_STEP = 1e-5  # neighbour offset for the optimality check


class CheckFailed(Exception):
    """An item's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def run_cli(argv) -> dict:
    """cathub.cli.main in-process, with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return {"rc": rc, "stdout": out.getvalue()}


@functools.lru_cache(maxsize=None)
def genfunc_log_reference(order: int, y: float) -> float:
    """ln of d^order/dy^order (1 - 4y^2)^(-1/2) at 0 < y < 1/2, from mpmath.

    Uses the exact Leibniz expansion over (1-2y)^(-1/2) (1+2y)^(-1/2) at a
    working precision large enough to absorb its worst cancellation: the
    sum of |terms| is at most 2^m m! (1-2y)^(-m-1), and the result is at
    least the first (positive) term of the power series.
    """
    import mpmath

    m = order
    ln_upper = m * math.log(2.0) + math.lgamma(m + 1) - (m + 1) * math.log1p(-2.0 * y)
    k0 = (m + 1) // 2
    p = 2 * k0 - m
    ln_lower = 2 * math.lgamma(2 * k0 + 1) - 2 * math.lgamma(k0 + 1) - math.lgamma(p + 1) + p * math.log(y)
    dps = 30 + max(0, math.ceil((ln_upper - ln_lower) / math.log(10.0)))
    with mpmath.workdps(dps):
        x = mpmath.mpf(y)
        u, v = 1 - 2 * x, 1 + 2 * x
        total = mpmath.mpf(0)
        for j in range(m + 1):
            term = (
                mpmath.binomial(m, j)
                * mpmath.fac2(2 * j - 1)
                * mpmath.fac2(2 * (m - j) - 1)
                * u ** (-j - mpmath.mpf(0.5))
                * v ** (-(m - j) - mpmath.mpf(0.5))
            )
            total += term if (m - j) % 2 == 0 else -term
        return float(mpmath.log(total))


def check_genfunc(order: int, y: float) -> None:
    got = fock.genfunc_derivative(order, y).log_mag
    ref = genfunc_log_reference(order, y)
    require(abs(got - ref) <= REL_TOL, f"genfunc_derivative({order}, {y}) log {got!r} vs mpmath {ref!r}")


def _rng(workload: str, seed: int, part) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def mirrored(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """k values in random order, one in each equal stratum of [lo, hi].

    Strata i and k-1-i take mirrored offsets, so each pair sums to lo + hi
    and the mean barely moves from seed to seed while every value does.
    """
    w = (hi - lo) / k
    u = [rng.random() for _ in range(k // 2)]
    offsets = u + [rng.random()] * (k % 2) + [1.0 - x for x in reversed(u)]
    values = [lo + w * (i + off) for i, off in enumerate(offsets)]
    rng.shuffle(values)
    return values


# --------------------------------------------------------------------- sweep

SWEEP_ITEMS = 25  # Latin hypercube over N in [10, 90) and beta in [0.5, 6]


def sweep_batch(seed: int, index: int) -> list:
    rng = _rng("sweep", seed, index)
    items = []
    for n_real, beta in zip(mirrored(rng, 10, 90, SWEEP_ITEMS), mirrored(rng, 0.5, 6.0, SWEEP_ITEMS)):
        parity = rng.choice(("even", "odd"))
        n = int(n_real)
        if n % 2 != (parity == "odd"):
            n += 1
        items.append({"parity": parity, "N": n, "beta": round(beta, 4)})
    rng.shuffle(items)
    for pos, item in enumerate(items):
        item["cmd"] = "fidelity-sweep" if pos % 2 == 0 else "meanphoton-sweep"
    return items


def sweep_run(item) -> dict:
    return run_cli(
        [item["cmd"], "--parity", item["parity"], "--N", item["N"], "--beta", item["beta"], "--workers", 1]
    )


def _fidelity_at(parity: str, m: int, y: float, target):
    state = hub.heralded_state(parity, m, y)
    if state.cutoff < target.cutoff:
        state = hub.heralded_state(parity, m, y, target.cutoff)
    return cats.fidelity(state, target), state


def sweep_check(item, out) -> None:
    require(out["rc"] == 0, f"exit code {out['rc']}")
    lines = out["stdout"].splitlines()
    require(len(lines) == 2, f"expected header and one row, got {len(lines)} lines")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    parity, n, beta = item["parity"], item["N"], item["beta"]
    y_star = float(row["y_star"])
    m = n // 2
    target = cats.cat_state(beta, parity)
    f_star, state = _fidelity_at(parity, m, y_star, target)
    if item["cmd"] == "fidelity-sweep":
        require(abs(f_star - float(row["fidelity"])) <= REL_TOL, f"fidelity {row['fidelity']} vs {f_star!r}")
    else:
        mean_n = float(row["mean_n"])
        direct = state.mean_photon_number()
        require(rel_err(mean_n, direct) <= REL_TOL, f"mean_n {mean_n!r} vs direct {direct!r}")
    for y in (y_star - Y_STEP, y_star + Y_STEP):
        if 0.0 < y < 0.5:
            f_near, _ = _fidelity_at(parity, m, y, target)
            require(f_near <= f_star + OPT_SLACK, f"y={y!r} beats y_star: {f_near!r} > {f_star!r}")
    check_genfunc(n, y_star)


# -------------------------------------------------------------------- oracle

ORACLE_ITEMS = 8  # two of each grid size N = 3..6, all with k = 2
ORACLE_TWO_TAP_N = 3  # the smallest grid carries the costly two-tap lossy run
# Grid t and s stay inside the default oracle-check grid's envelope
# (t 0.7..0.9, s 0.5..1.0, cutoff 40); at t = 0.935, s = 0.995 the cutoff-40
# brute force itself misses the 1e-9 tolerance and the check exits 3.


def oracle_batch(seed: int, index: int) -> list:
    rng = _rng("oracle", seed, index)
    per_kind = ORACLE_ITEMS // 4
    grid_t, grid_s = mirrored(rng, 0.7, 0.9, ORACLE_ITEMS), mirrored(rng, 0.3, 1.0, ORACLE_ITEMS)
    one_s, one_eta = mirrored(rng, 0.3, 0.6, ORACLE_ITEMS - per_kind), mirrored(rng, 0.9, 0.99, ORACLE_ITEMS - per_kind)
    two_s, two_eta = mirrored(rng, 0.3, 0.6, per_kind), mirrored(rng, 0.97, 0.99, per_kind)
    items = []
    for i in range(ORACLE_ITEMS):
        n_max = 3 + i % 4
        grid = {"k": 2, "N": n_max, "t": round(grid_t[i], 3), "s": round(grid_s[i], 3)}
        if n_max == ORACLE_TWO_TAP_N:
            total = rng.randint(0, 2)
            first = rng.randint(0, total)
            taps = tuple(round(rng.uniform(0.8, 0.95), 3) for _ in range(2))
            counts, s, eta = (first, total - first), two_s.pop(), two_eta.pop()
        else:
            taps = (round(rng.uniform(0.75, 0.95), 3),)
            counts, s, eta = (rng.randint(0, 6),), one_s.pop(), one_eta.pop()
        lossy = {"s": round(s, 3), "t": taps, "counts": counts, "eta": round(eta, 4)}
        items.append({"grid": grid, "lossy": lossy})
    rng.shuffle(items)
    return items


def oracle_run(item) -> dict:
    g, lo = item["grid"], item["lossy"]
    out = run_cli(
        ["oracle-check", "--k", g["k"], "--N", g["N"], "--t", g["t"], "--s", g["s"], "--workers", 1]
    )
    cfg = HubConfig(lo["s"], lo["t"])
    out["lossy"] = oracle.simulate_lossy(cfg, Outcome(lo["counts"]), lo["eta"])
    return out


def oracle_check(item, out) -> None:
    require(out["rc"] == 0, f"oracle-check exit code {out['rc']}")
    require("result: PASS" in out["stdout"], "oracle-check did not pass")
    lo = item["lossy"]
    cfg = HubConfig(lo["s"], lo["t"])
    branches, total = out["lossy"]
    p_total = total.to_float()
    require(0.0 < p_total <= 1.0, f"lossy probability {p_total!r} outside (0, 1]")
    if cfg.k == 1:
        n = lo["counts"][0]
        ref = detector.lossy_prob(cfg, n // 2, fock.parity_of(n), lo["eta"])
        require(rel_err(p_total, ref.to_float()) <= REL_TOL, f"simulate_lossy {p_total!r} vs lossy_prob {ref.to_float()!r}")
    else:
        n = sum(lo["counts"])
        lossless = probabilities.joint_success_prob(cfg, Outcome(lo["counts"])).to_float() * lo["eta"] ** n
        require(rel_err(branches[0][0], lossless) <= REL_TOL, f"no-loss branch {branches[0][0]!r} vs {lossless!r}")


# -------------------------------------------------------------------- herald

HERALD_ORDERS = 18  # per-seed pool over [10, 400]
HERALD_YS = 4  # per-seed pool over [0.31, 0.48], all above the 0.3 branch-point switch
# beta is drawn around sqrt(y (2N+1) / (1-2y)), the large-N mean photon number
# of the N-photon heralded state, so the target cat is one the state can
# approximate; far from it the ideal fidelity underflows float64.


def herald_pool(seed: int):
    """Per-seed (orders, ys); every batch uses the same (order, y) pairs."""
    rng = _rng("herald", seed, "pool")
    orders = [round(x) for x in mirrored(rng, 10, 400, HERALD_ORDERS)]
    ys = [round(y, 4) for y in mirrored(rng, 0.31, 0.48, HERALD_YS)]
    return orders, ys


def herald_batch(seed: int, index: int) -> list:
    """One item per pool order; the y paired with each order rotates with the batch index."""
    orders, ys = herald_pool(seed)
    rng = _rng("herald", seed, index)
    etas, factors, headrooms = (mirrored(rng, lo, hi, len(orders)) for lo, hi in ((0.95, 0.995), (0.8, 1.2), (0.5, 0.9)))
    items = []
    for i, order in enumerate(orders):
        y = ys[(i + index) % HERALD_YS]
        n1 = rng.randint(0, order)
        items.append(
            {
                "order": order,
                "y": y,
                "y0": round(y + (0.5 - y) * headrooms.pop(), 6),
                "split": round(rng.uniform(0.3, 0.7), 3),
                "counts": (n1, order - n1),
                "eta": round(etas.pop(), 4),
                "beta": round(factors.pop() * math.sqrt(y * (2 * order + 1) / (1 - 2 * y)), 4),
            }
        )
    rng.shuffle(items)
    return items


def herald_configs(item):
    """One-tap and two-tap hubs that both end at y, from a source at y0."""
    scale = item["y"] / item["y0"]
    one = HubConfig.from_target_y(item["y"], (math.sqrt(scale),))
    a = item["split"]
    two = HubConfig.from_target_y(item["y"], (scale ** (a / 2), scale ** ((1 - a) / 2)))
    return one, two


def herald_run(item) -> dict:
    order, y, eta, beta = item["order"], item["y"], item["eta"], item["beta"]
    parity = fock.parity_of(order)
    one, two = herald_configs(item)
    n1, n2 = item["counts"]
    t_sq = one.transmittances[0] ** 2
    return {
        "joint1": probabilities.joint_success_prob(one, Outcome((order,))),
        "cond1": probabilities.conditional_prob(one, 1, order),
        "lossy_prob": detector.lossy_prob(one, order // 2, parity, eta),
        "lossy_fid": detector.lossy_fidelity_exact(one, order, eta, beta),
        "lossy_fid1": detector.lossy_fidelity_firstorder(t_sq, order, parity, eta, y),
        "trade1": detector.tradeoff_product(one, Outcome((order,)), eta, beta),
        "joint2": probabilities.joint_success_prob(two, Outcome((n1, n2))),
        "chain2": (
            probabilities.conditional_prob(two, 1, n1),
            probabilities.conditional_prob(two, 2, n2, (n1,)),
        ),
        "trade2": detector.tradeoff_product(two, Outcome((n1, n2)), eta, beta),
    }


def herald_check(item, out) -> None:
    order, eta = item["order"], item["eta"]
    joint1 = out["joint1"]
    require(rel_err(out["cond1"], joint1.to_float()) <= REL_TOL, f"conditional {out['cond1']!r} vs joint {joint1!r}")
    c1, c2 = out["chain2"]
    require(c1 > 0.0 and c2 > 0.0, f"conditional chain underflowed: {c1!r}, {c2!r}")
    chain_log = math.log(c1) + math.log(c2)
    require(abs(chain_log - out["joint2"].log_mag) <= REL_TOL, f"chained conditionals {chain_log!r} vs joint {out['joint2']!r}")
    p_lossy = out["lossy_prob"].to_float()
    lossless = joint1.to_float() * eta**order
    require(lossless * (1 - REL_TOL) <= p_lossy <= 1.0, f"lossy probability {p_lossy!r} outside [{lossless!r}, 1]")
    require(0.0 <= out["lossy_fid"] <= 1.0, f"lossy fidelity {out['lossy_fid']!r} outside [0, 1]")
    require(math.isfinite(out["lossy_fid1"]), f"first-order fidelity {out['lossy_fid1']!r}")
    for trade in (out["trade1"], out["trade2"]):
        require(
            abs(trade.closed_form.log_mag - trade.from_multipliers.log_mag) <= REL_TOL,
            f"trade-off routes disagree: {trade.closed_form!r} vs {trade.from_multipliers!r}",
        )
    check_genfunc(order, item["y"])


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    """How one workload makes, runs and checks its items.

    tail_pct is fixed per workload so a faster program is judged at the
    same percentile; it leaves at least ten items beyond it in a 20 s run
    of the seed commit, even on a slow spell of a shared 2-core machine.
    """

    name: str
    batch: Callable[[int, int], list]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], None]
    tail_pct: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_batch, sweep_run, sweep_check, 95),
        Workload("oracle", oracle_batch, oracle_run, oracle_check, 85),
        Workload("herald", herald_batch, herald_run, herald_check, 95),
    )
}


def setup_call(name: str, seed: int) -> None:
    """First item of a workload; the benchmark times a fresh interpreter doing this."""
    w = WORKLOADS[name]
    w.run(w.batch(seed, 0)[0])

