"""Imperfect photon-number detection.

The binomial loss law, the exact lossy fidelity and heralding probability
for a chain of any length, their first-order expansions in detector
inefficiency, and the fidelity-probability trade-off product.

A chain of k splitters with lossy detectors on every tap is exactly its
one-tap equivalent with t = prod t_i: summed over the splits of N photons
across the taps, the tap weights a_l = (1 - t_l^2)/t_l^2 y_l give A^N/N!
with A = sum a_l = (1 - T)/T y_k, the weight of one tap with t^2 = T; the
per-tap binomial losses sum to one loss on the total; and the heralded
state depends only on N and y_k.  So lossy_prob is the probability that
the reported counts sum to the given total, and lossy_fidelity_exact the
fidelity after any split of it.

A detector of efficiency eta is an ideal one behind a splitter of
transmittance eta whose other port is traced out, just like the mode a tap
transmits.  So the counts it reports behind a tap with t^2 = T are exactly
the counts an ideal detector reports behind one tap with

    t_eff^2 = T + (1 - eta)(1 - T)                     (_equivalent_tap),

and lossy_prob is one ideal joint_success_prob on that hub.  The state is
another matter: the missed photons leave a mixture.  A detector that
reports count n may have been hit by any true count j >= n, with weight
C(j, n) eta^n (1-eta)^(j-n), the loss law that _branch_weight_log states
for this module and oracle.simulate_lossy alike.  lossy_fidelity_exact
walks these loss branches (_loss_branches) and sums their log masses as
one float array.  Branches whose true count has the opposite parity
overlap the target cat with weight zero but still carry probability,
which is exactly what produces the first-order fidelity penalty.

At first order in 1-eta everything hangs on one number, the reduction
factor rf = (1-T)/T <n> of a chain with squared transmittance product T:
the fidelity multiplier is 1 - (1-eta) rf, the probability gain
1 + (1-eta) rf and the trade-off penalty ((1-eta) rf)^2.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cats import _cat_overlap, cat_state, mean_photon
from .errors import DomainError, TruncationError, _check_count, _check_unit
from .fock import parity_of, photon_offset
from .hub import HubConfig, Outcome, chain_transmission
from .logreal import LogReal, log_factorials
from .probabilities import joint_success_prob

_BRANCH_EPS = 1e-16
_BRANCH_RUN = 3
_BRANCH_CAP = 2000


def _branch_weight_log(reported, true_count, eta: float) -> np.ndarray:
    """ln of C(j, n) eta^n (1-eta)^(j-n), elementwise over arrays of j >= n."""
    n = np.asarray(reported)
    j = np.asarray(true_count)
    if eta == 1.0:
        return np.where(j == n, 0.0, -math.inf)
    return (
        log_factorials(j)
        - log_factorials(n)
        - log_factorials(j - n)
        + n * math.log(eta)
        + (j - n) * math.log1p(-eta)
    )


def _equivalent_tap(cfg: HubConfig, eta: float) -> HubConfig:
    """The one-tap hub whose ideal detector reports what efficiency-eta ones report on cfg.

    t_eff = sqrt(t^2 + (1 - eta)(1 - t^2)) with t = prod t_i.  At eta = 1
    this is the one-tap equivalent with t itself, since sqrt(t * t) == t in
    binary floating point; that hub is exact for every total-count
    quantity of an ideal detector.
    """
    t = math.prod(cfg.transmittances)
    t_sq = t * t
    return HubConfig(cfg.squeezing, (math.sqrt(t_sq + (1.0 - eta) * (1.0 - t_sq)),))


def _reported_count(m: int, parity: str) -> int:
    return 2 * _check_count(m, "pair count m") + photon_offset(parity)


def _loss_branches(cfg: HubConfig, reported: int, eta: float):
    """(true counts j, ln branch masses) as arrays, mass = weight * ideal prob.

    Walks j = reported, reported + 1, ... and stops once the mass has fallen
    below _BRANCH_EPS of the largest mass seen, sustained over _BRANCH_RUN
    consecutive branches, or at the first j with zero ideal probability; a
    lossless detector has the one branch j = reported.  Raises
    TruncationError when _BRANCH_CAP branches pass without a stop.
    """
    stop = reported + (1 if eta == 1.0 else _BRANCH_CAP + 1)
    log_weights = _branch_weight_log(reported, np.arange(reported, stop), eta)
    counts = []
    log_masses = []
    best = -math.inf
    low = 0
    for true_count, log_w in zip(range(reported, stop), log_weights):
        p = joint_success_prob(cfg, Outcome((true_count,)))
        if p.is_zero():
            break  # on one tap only t = 1 gives a zero, and then for every larger j too
        log_mass = log_w + p.log_mag
        counts.append(true_count)
        log_masses.append(log_mass)
        best = max(best, log_mass)
        low = low + 1 if log_mass < best + math.log(_BRANCH_EPS) else 0
        if low >= _BRANCH_RUN:
            break
    else:
        if eta < 1.0:
            raise TruncationError(f"loss-branch walk hit its cap of {_BRANCH_CAP} at j = {true_count}")
    return np.array(counts, dtype=np.intp), np.array(log_masses)


def lossy_prob(cfg: HubConfig, m: int, parity: str, eta: float) -> LogReal:
    """Exact probability that lossy detectors report 2m or 2m+1 photons.

    On a chain of k taps this is the probability that the reported counts
    sum to 2m (+1).  Detectors of efficiency eta behind taps with squared
    transmittance product T report exactly what an ideal detector reports
    behind one tap with t^2 = T + (1 - eta)(1 - T): the photons they miss
    are traced out like the transmitted ones.  So this is one
    joint_success_prob on that hub; it equals the sum over true counts
    j >= reported of the binomial retention weight times the ideal
    probability of j, both parities of j included.
    """
    reported = _reported_count(m, parity)
    _check_unit(eta, "detector efficiency")
    return joint_success_prob(_equivalent_tap(cfg, eta), Outcome((reported,)))


def lossy_fidelity_exact(cfg: HubConfig, m: int, eta: float, beta: float) -> float:
    """Fidelity of the lossy-heralded mixture against the matching cat.

    m is the reported photon count, on a chain of k taps the total over all
    detectors; every split of it across the taps gives this same fidelity.
    Its parity picks the cat family.  The mixture runs over true counts
    j >= m weighted by branch mass; branches of opposite parity contribute
    probability but zero overlap.  Raises DomainError when no true count
    can be reported as m at this hub.
    """
    cfg = _equivalent_tap(cfg, 1.0)
    m = _check_count(m, "reported count")
    _check_unit(eta, "detector efficiency")
    parity = parity_of(m)
    target = cat_state(beta, parity)
    counts, log_masses = _loss_branches(cfg, m, eta)
    if counts.size == 0:
        raise DomainError(f"reported count {m} carries no probability at this hub")
    weights = np.exp(log_masses - log_masses.max())
    same = counts % 2 == m % 2
    fids = [_cat_overlap(parity, j // 2, cfg.y_out, target) for j in counts[same].tolist()]
    return min(float(weights[same] @ np.array(fids)) / float(weights.sum()), 1.0)


def reduction_factor(t_product_sq: float, mean_n: float) -> float:
    """Per-unit-inefficiency penalty (1-T)/T * mean photon number.

    T is the squared transmittance product of the whole chain.  This is the
    number multiplying (1-eta) in both the fidelity drop and the
    probability gain.
    """
    _check_unit(t_product_sq, "squared transmittance product")
    rf = (1.0 - t_product_sq) / t_product_sq * mean_n
    if not (mean_n >= 0.0 and rf < math.inf):  # nan fails too
        raise DomainError(f"reduction factor needs <n> >= 0 and a finite result, got T = {t_product_sq}, <n> = {mean_n}")
    return rf


class _FirstOrder(NamedTuple):
    """First-order loss quantities for efficiency eta and reduction factor rf."""

    load: float  # (1 - eta) rf
    multiplier: float  # fidelity multiplier 1 - load
    gain: float  # probability gain 1 + load
    penalty: float  # trade-off penalty load^2


def _first_order(eta: float, rf: float) -> _FirstOrder:
    load = (1.0 - eta) * rf
    try:
        penalty = load**2
    except OverflowError:
        raise DomainError(f"first-order load (1 - eta) rf = {load:.4g} overflows its square") from None
    return _FirstOrder(load, 1.0 - load, 1.0 + load, penalty)


def lossy_fidelity_firstorder(t_product_sq: float, N: int, parity: str, eta: float, y: float) -> float:
    """First-order fidelity multiplier 1 - (1-eta)(1-T)/T <n>.

    Holds for any chain, whose one-tap equivalent has t^2 = T.
    """
    _check_unit(eta, "detector efficiency")
    rf = reduction_factor(t_product_sq, mean_photon(parity, N, y))
    return _first_order(eta, rf).multiplier


def lossy_prob_firstorder(cfg: HubConfig, m: int, parity: str, eta: float) -> LogReal:
    """First-order lossy heralding probability of the reported total 2m (+1).

    eta^N * ideal * (1 + (1-eta)(1-T)/T <n>), with ideal the probability of
    the total N on the one-tap equivalent; the expansion whose gap from
    lossy_prob shrinks quadratically in (1-eta).  It is the first Taylor
    term of lossy_prob's equivalent tap: with y = T y0, that tap ends at
    y + c, c = (1-eta)(1-T) y0, and its probability is
    eta^N * ideal * g^(N)(y + c) / g^(N)(y).  g^(N)(y + c) ~ g^(N)(y) +
    c g^(N+1)(y) and <n> = y g^(N+1)(y) / g^(N)(y) give exactly
    1 + (1-eta) rf.
    """
    cfg = _equivalent_tap(cfg, 1.0)
    reported = _reported_count(m, parity)
    _check_unit(eta, "detector efficiency")
    ideal = joint_success_prob(cfg, Outcome((reported,)))
    mean_n = mean_photon(parity, reported, cfg.y_out)
    rf = reduction_factor(chain_transmission(cfg.transmittances), mean_n)
    gain = _first_order(eta, rf).gain
    # eta^N as its log: 0.01^600 underflows as a float
    return ideal * LogReal(reported * math.log(eta)) * LogReal.from_float(gain)


@dataclass(frozen=True, slots=True)
class TradeoffProduct:
    """Both routes to the fidelity-probability trade-off invariant."""

    penalty: float
    closed_form: LogReal
    from_multipliers: LogReal


def tradeoff_product(
    cfg: HubConfig, outcome: Outcome, eta: float, beta: float
) -> TradeoffProduct:
    """Trade-off between fidelity loss and probability gain at first order.

    penalty = (1-eta)^2 ((1-T)/T)^2 <n>^2 depends only on the chain's
    squared transmittance product; closed_form multiplies it by the ideal
    fidelity and outcome probability, and from_multipliers rebuilds the
    same quantity as deltaF * deltaP from the first-order multipliers.
    """
    _check_unit(eta, "detector efficiency")
    parity = outcome.parity
    y = cfg.y_out
    mean_n = mean_photon(parity, outcome.total, y)
    first = _first_order(eta, reduction_factor(chain_transmission(cfg.transmittances), mean_n))

    fid_ideal = float(_cat_overlap(parity, outcome.pairs, y, cat_state(beta, parity)))
    prob_ideal = joint_success_prob(cfg, outcome)

    closed = prob_ideal * LogReal.from_float(first.penalty * fid_ideal)
    delta_f = fid_ideal * first.load
    delta_p = prob_ideal * LogReal.from_float(first.load)
    return TradeoffProduct(first.penalty, closed, delta_p * LogReal.from_float(delta_f))
