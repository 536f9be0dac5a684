"""Ideal-detector heralding probabilities for the splitter cascade.

Joint and conditional outcome probabilities, plus the closed-form gain of
splitting one large count across several detectors.  Everything that can
underflow is carried as LogReal; a conditional, the ratio of two joints
on prefixes of the chain, is at most 1 and returned as a plain float.
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

    `prior` holds the counts already seen at splitters 1..index-1.  This is
    the joint probability of prior + (count,) on the chain's first `index`
    splitters over that of prior on the first index - 1; for index = 1 the
    first joint alone is the answer.  Raises DomainError when the prior
    itself has probability zero.
    """
    if _check_count(index, "splitter index", 1) > cfg.k:
        raise DomainError(f"splitter index {index} outside 1..{cfg.k}")
    if len(prior) != index - 1:
        raise DomainError(f"prior must list {index - 1} counts for splitter {index}, got {len(prior)}")
    ts = cfg.transmittances
    # Outcome gates each count
    p = joint_success_prob(HubConfig(cfg.squeezing, ts[:index]), Outcome((*prior, count)))
    if index > 1:
        p_prior = joint_success_prob(HubConfig(cfg.squeezing, ts[: index - 1]), Outcome(tuple(prior)))
        if p_prior.is_zero():
            raise DomainError(f"prior counts {tuple(prior)} have probability zero at this hub")
        p = p / p_prior
    return p.to_float()


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
