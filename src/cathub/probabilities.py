"""Ideal-detector heralding probabilities for the splitter cascade.

Joint and conditional outcome probabilities, plus the closed-form gain of
splitting one large count across several detectors.  Everything that can
underflow is carried as LogReal; conditionals are O(1) and returned as
plain floats.
"""

import math

from .errors import DomainError, _check_count, _check_unit
from .fock import genfunc_derivative
from .hub import HubConfig, Outcome, _check_taps
from .logreal import LogReal


def _log_tap_weight(t: float, y: float, n: int) -> float:
    # ln(((1 - t^2)/t^2 y)^n / n!): the weight of tapping n photons at one splitter
    return n * (math.log1p(-t * t) - 2.0 * math.log(t) + math.log(y)) - math.lgamma(n + 1)


def joint_success_prob(cfg: HubConfig, outcome: Outcome) -> LogReal:
    """Probability that the k detectors report exactly outcome.counts.

    Product over splitters of the per-splitter tap weight, times the series
    normalization of the heralded state at the end-of-chain parameter.
    """
    _check_taps(cfg, outcome)
    log_p = -math.log(math.cosh(cfg.squeezing))
    for t_l, y_l, n_l in zip(cfg.transmittances, cfg.y_chain, outcome.counts):
        if n_l == 0:
            continue
        if t_l == 1.0:
            return LogReal.zero()
        log_p += _log_tap_weight(t_l, y_l, n_l)
    return LogReal(log_p) * genfunc_derivative(outcome.total, cfg.y_out)


def conditional_prob(cfg: HubConfig, index: int, count: int, prior: tuple = ()) -> float:
    """Probability that splitter `index` (1-based) taps `count` photons.

    `prior` holds the counts already seen at splitters 1..index-1.  For
    index = 1 the ratio of series normalizations degenerates to the source
    normalization 1/cosh s, so chaining these conditionals over a full
    outcome reproduces joint_success_prob exactly.
    """
    if _check_count(index, "splitter index", 1) > cfg.k:
        raise DomainError(f"splitter index {index} outside 1..{cfg.k}")
    if len(prior) != index - 1:
        raise DomainError(f"prior must list {index - 1} counts for splitter {index}, got {len(prior)}")
    count = _check_count(count, "photon counts")
    seen = sum(_check_count(n, "photon counts") for n in prior)
    t_i = cfg.transmittances[index - 1]
    y_i = cfg.y_chain[index - 1]
    y_prev = cfg.y0 if index == 1 else cfg.y_chain[index - 2]
    if t_i == 1.0:
        return 1.0 if count == 0 else 0.0
    log_w = _log_tap_weight(t_i, y_i, count)
    ratio = genfunc_derivative(seen + count, y_i) / genfunc_derivative(seen, y_prev)
    return (LogReal(log_w) * ratio).to_float()


def multinomial_factor(outcome: Outcome) -> int:
    """Exact number of ways to route the total count into the given taps."""
    acc = math.factorial(outcome.total)
    for n in outcome.counts:
        acc //= math.factorial(n)
    return acc


def demux_ratio(outcome: Outcome, t: float) -> LogReal:
    """Gain from splitting one total count across k identical splitters.

    Ratio of the k-splitter outcome probability to the single-splitter
    probability of the same total, with both hubs heralding at the same
    end-of-chain parameter and the source normalizations divided out.
    Always >= 1 for t <= 1: a multinomial factor times t^(-2w), where w
    weights each count by how many splitters it passed before its tap.
    """
    _check_unit(t, "transmittance")
    k = outcome.k
    w = sum((k - pos) * n for pos, n in enumerate(outcome.counts, start=1))
    log_r = (
        -2.0 * w * math.log(t)
        + math.lgamma(outcome.total + 1)
        - sum(math.lgamma(n + 1) for n in outcome.counts)
    )
    return LogReal(log_r)
