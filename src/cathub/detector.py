"""Imperfect photon-number detection.

Binomial-loss POVM elements, the exact lossy fidelity and heralding
probability for a chain of any length, the first/second-order expansions
in detector inefficiency, and the fidelity-probability trade-off product.

A chain of k splitters with lossy detectors on every tap is exactly its
one-tap equivalent with t = prod t_i (_one_tap): summed over the splits of
N photons across the taps, the tap weights a_l = (1 - t_l^2)/t_l^2 y_l give
A^N/N! with A = sum a_l = (1 - T)/T y_k, the weight of one tap with
t^2 = T; the per-tap binomial losses sum to one loss on the total; and the
heralded state depends only on N and y_k.  So lossy_prob is the
probability that the reported counts sum to the given total, and
lossy_fidelity_exact the fidelity after any split of it.

A detector of efficiency eta that reports count n may have been hit by any
true count j >= n, with weight C(j, n) eta^n (1-eta)^(j-n); the conditional
state is then a mixture over these loss branches, whose log masses are
summed as one float array.  Branches whose true count has the opposite
parity overlap the target cat with weight zero but still carry
probability, which is exactly what produces the first-order fidelity
penalty.

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
from .errors import DomainError, TruncationError
from .fock import parity_of, photon_offset
from .hub import HubConfig, Outcome, chain_transmission
from .logreal import LogReal, log_factorials, logreal_sum_logs
from .probabilities import joint_success_prob

_BRANCH_EPS = 1e-16
_BRANCH_RUN = 3
_BRANCH_CAP = 2000


def _check_eta(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"detector efficiency must lie in (0, 1], got {eta}")


@dataclass(frozen=True)
class PovmElement:
    """Diagonal POVM element of a lossy photon-number detector.

    weights[j] is the probability of reporting `reported_count` when the
    true photon number is j; zero for j < reported_count.
    """

    reported_count: int
    eta: float
    weights: np.ndarray

    def weight(self, true_count: int) -> float:
        if true_count < 0 or true_count >= len(self.weights):
            return 0.0
        return float(self.weights[true_count])


def povm_element(m: int, eta: float, cutoff: int) -> PovmElement:
    """Reported-count-m POVM element on true counts 0..cutoff."""
    if m < 0:
        raise DomainError(f"reported count must be >= 0, got {m}")
    if cutoff < m:
        raise DomainError(f"cutoff {cutoff} smaller than reported count {m}")
    _check_eta(eta)
    w = np.zeros(cutoff + 1)
    w[m:] = np.exp(_branch_weight_log(m, np.arange(m, cutoff + 1), eta))
    w.setflags(write=False)
    return PovmElement(m, eta, w)


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


def _one_tap(cfg: HubConfig) -> HubConfig:
    """The one-tap hub with t = prod t_i, exact for every total-count quantity."""
    return HubConfig(cfg.squeezing, (math.prod(cfg.transmittances),))


def _reported_count(m: int, parity: str) -> int:
    if m < 0:
        raise DomainError(f"pair count m must be >= 0, got {m}")
    return 2 * m + photon_offset(parity)


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
    sum to 2m (+1).  Sums the ideal probability of every true count
    j >= reported against the binomial retention weight; both parities of
    j contribute.
    """
    reported = _reported_count(m, parity)
    _check_eta(eta)
    _, log_masses = _loss_branches(_one_tap(cfg), reported, eta)
    return logreal_sum_logs(log_masses)


def lossy_fidelity_exact(cfg: HubConfig, m: int, eta: float, beta: float) -> float:
    """Fidelity of the lossy-heralded mixture against the matching cat.

    m is the reported photon count, on a chain of k taps the total over all
    detectors; every split of it across the taps gives this same fidelity.
    Its parity picks the cat family.  The mixture runs over true counts
    j >= m weighted by branch mass; branches of opposite parity contribute
    probability but zero overlap.  Raises DomainError when no true count
    can be reported as m at this hub.
    """
    cfg = _one_tap(cfg)
    if m < 0:
        raise DomainError(f"reported count must be >= 0, got {m}")
    _check_eta(eta)
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
    if not 0.0 < t_product_sq <= 1.0:
        raise DomainError(
            f"squared transmittance product must lie in (0, 1], got {t_product_sq}"
        )
    rf = (1.0 - t_product_sq) / t_product_sq * mean_n
    if not math.isfinite(rf):
        raise DomainError(f"reduction factor at T = {t_product_sq} and <n> = {mean_n} is not finite")
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


def lossy_fidelity_firstorder(
    t_product_sq: float,
    N: int,
    parity: str,
    eta: float,
    y: float,
    second_order: bool = False,
    beta: float | None = None,
) -> float:
    """First-order fidelity multiplier 1 - (1-eta)(1-T)/T <n>.

    With second_order=True adds the (1-eta)^2 correction, which needs the
    cat amplitude beta to form the overlap ratio of the (N+2)- and N-photon
    heralded states.  Both orders hold for any chain, whose one-tap
    equivalent has t^2 = T.
    """
    _check_eta(eta)
    mean_n = mean_photon(parity, N, y)
    rf = reduction_factor(t_product_sq, mean_n)
    value = _first_order(eta, rf).multiplier
    if not second_order:
        return value
    if beta is None:
        raise DomainError("second-order term needs the target cat amplitude")
    mean_other = mean_photon(parity_of(N + 1), N + 1, y)
    target = cat_state(beta, parity)
    overlap_ratio = _cat_overlap(parity, N // 2 + 1, y, target) / _cat_overlap(parity, N // 2, y, target)
    # (1/2) rf (1-T)/T (2 <n> - <n'> (1 - F_(N+2) / F_N))
    f2 = 0.5 * rf * reduction_factor(
        t_product_sq, 2.0 * mean_n - mean_other * (1.0 - overlap_ratio)
    )
    return value + (1.0 - eta) ** 2 * f2


def lossy_prob_firstorder(cfg: HubConfig, m: int, parity: str, eta: float) -> LogReal:
    """First-order lossy heralding probability of the reported total 2m (+1).

    eta^N * ideal * (1 + (1-eta)(1-T)/T <n>), with ideal the probability of
    the total on the one-tap equivalent; the expansion whose gap from
    lossy_prob shrinks quadratically in (1-eta).
    """
    cfg = _one_tap(cfg)
    reported = _reported_count(m, parity)
    _check_eta(eta)
    ideal = joint_success_prob(cfg, Outcome((reported,)))
    mean_n = mean_photon(parity, reported, cfg.y_out)
    rf = reduction_factor(chain_transmission(cfg.transmittances), mean_n)
    gain = _first_order(eta, rf).gain
    return ideal * LogReal.from_float(eta**reported) * LogReal.from_float(gain)


@dataclass(frozen=True)
class TradeoffProduct:
    """Both routes to the fidelity-probability trade-off invariant."""

    penalty: float
    closed_form: LogReal
    from_multipliers: LogReal
    delta_fidelity: float
    delta_prob: LogReal


def tradeoff_product(
    cfg: HubConfig, outcome: Outcome, eta: float, beta: float
) -> TradeoffProduct:
    """Trade-off between fidelity loss and probability gain at first order.

    penalty = (1-eta)^2 ((1-T)/T)^2 <n>^2 depends only on the chain's
    squared transmittance product; closed_form multiplies it by the ideal
    fidelity and outcome probability, and from_multipliers rebuilds the
    same quantity as deltaF * deltaP from the first-order multipliers.
    """
    _check_eta(eta)
    parity = outcome.parity
    y = cfg.y_out
    mean_n = mean_photon(parity, outcome.total, y)
    first = _first_order(eta, reduction_factor(chain_transmission(cfg.transmittances), mean_n))

    fid_ideal = float(_cat_overlap(parity, outcome.pairs, y, cat_state(beta, parity)))
    prob_ideal = joint_success_prob(cfg, outcome)

    closed = prob_ideal * LogReal.from_float(first.penalty * fid_ideal)
    delta_f = fid_ideal * first.load
    delta_p = prob_ideal * LogReal.from_float(first.load)
    return TradeoffProduct(
        penalty=first.penalty,
        closed_form=closed,
        from_multipliers=delta_p * LogReal.from_float(delta_f),
        delta_fidelity=delta_f,
        delta_prob=delta_p,
    )
