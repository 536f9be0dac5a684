"""Squeezed-vacuum source, beam-splitter chain bookkeeping, heralded states.

A single-mode squeezed vacuum with squeeze parameter s is parameterised by
y0 = tanh(s)/2 in (0, 1/2).  Passing it through a chain of beam splitters
with amplitude transmittances t_1..t_k rescales the parameter step by step,
y_i = t_i^2 * y_(i-1), while photon-number-resolving detectors on the
reflected ports subtract photons.  Registering counts (n_1, ..., n_k) with
total N heralds, up to an overall sign, a pure state that depends only on N
and the final parameter y_k:

    even N = 2m:    a_n ~ y^n (2(n+m))! / (sqrt((2n)!) (n+m)!)      on |2n>
    odd  N = 2m+1:  a_n ~ y^n (2(n+m+1))! / (sqrt((2n+1)!) (n+m+1)!) on |2n+1>

normalised by the N-th derivative of the generating function g(y).  The
chain enters only through y_k = T y0, with T = prod t_i^2 the squared
transmittance product (chain_transmission).  The probability of a
detection record is probabilities.joint_success_prob.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_count, _check_unit, _check_y
from .fock import (
    _TAIL_RATIO,
    FockVector,
    genfunc_derivative,
    log_genfunc_derivative,
    parity_of,
    photon_offset,
)
from .logreal import log_factorials

__all__ = [
    "HubConfig",
    "Outcome",
    "heralded_state",
    "heralded_amps",
    "chain_transmission",
]


def chain_transmission(transmittances) -> float:
    """T = prod t_i^2, the squared transmittance product of a chain; y_k = T y0."""
    ts = [_check_unit(t, "transmittance") for t in transmittances]
    return math.prod(t * t for t in ts)


@dataclass(frozen=True, slots=True)
class HubConfig:
    """Source squeezing plus the transmittance chain of the hub.

    squeezing is the squeeze parameter s > 0 (dimensionless); transmittances
    are the amplitude transmittances t_i in (0, 1], one per splitter.
    """

    squeezing: float
    transmittances: tuple[float, ...]

    def __post_init__(self):
        # y0 = tanh(s)/2 must stay below 1/2, which tanh rounds to past s ~ 19
        if not (self.squeezing > 0.0 and math.tanh(self.squeezing) < 1.0):
            raise DomainError(f"squeezing must be positive with tanh(s) < 1, got {self.squeezing}")
        ts = tuple(_check_unit(float(t), "transmittance") for t in self.transmittances)
        if len(ts) == 0:
            raise DomainError("at least one beam splitter is required")
        object.__setattr__(self, "transmittances", ts)
        if not self.y_out > 0.0:
            raise DomainError(f"y_k = T y0 underflows to 0 on the chain {ts}")

    @property
    def k(self) -> int:
        return len(self.transmittances)

    @property
    def y0(self) -> float:
        return math.tanh(self.squeezing) / 2.0

    @property
    def y_chain(self) -> tuple[float, ...]:
        """y_i after each splitter: y_i = t_i^2 * y_(i-1)."""
        ys = []
        y = self.y0
        for t in self.transmittances:
            y *= t * t
            ys.append(y)
        return tuple(ys)

    @property
    def y_out(self) -> float:
        return self.y_chain[-1]

    @classmethod
    def from_target_y(cls, y_target: float, transmittances) -> "HubConfig":
        """Back-solve the squeezing so the chain ends at y_k = y_target."""
        ts = tuple(float(t) for t in transmittances)
        t_product_sq = chain_transmission(ts)
        # divide only once 2y < T, so that the quotient cannot overflow
        tanh_s = 2.0 * y_target / t_product_sq if 0.0 < 2.0 * y_target < t_product_sq else math.nan
        if not (0.0 < tanh_s < 1.0):
            raise DomainError(
                f"target y = {y_target} needs tanh(s) = 2y/T in (0, 1), but T = {t_product_sq:.6g}"
            )
        return cls(math.atanh(tanh_s), ts)


@dataclass(frozen=True, slots=True)
class Outcome:
    """Photon counts registered by the detectors, one per splitter."""

    counts: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(_check_count(n, "photon counts") for n in self.counts)
        if len(cs) == 0:
            raise DomainError("an outcome needs at least one count")
        object.__setattr__(self, "counts", cs)

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def parity(self) -> str:
        return parity_of(self.total)

    @property
    def pairs(self) -> int:
        """Subtracted pair count m: total = 2m (even) or 2m+1 (odd)."""
        return self.total // 2


def _check_taps(cfg: HubConfig, outcome: Outcome) -> None:
    """DomainError unless the outcome has one count per splitter of the hub."""
    if outcome.k != cfg.k:
        raise DomainError(f"outcome has {outcome.k} counts but the hub has {cfg.k} splitters")


# largest automatic heralded-state window; m <= 400 at y <= 0.499 needs at
# most 416,001 levels (odd, m = 400, y = 0.499)
_WINDOW_CAP = 2**20


def _herald_window(order: int, off: int, y: float) -> int:
    """A window whose last squared amplitude is provably <= _TAIL_RATIO x peak.

    For order N = 2m + off the amplitude ratio is

        a_(n+1)/a_n = 2y (2n + N + off + 1) / sqrt((2n + off + 1)(2n + off + 2))
                   <= 2y (1 + N / (2n + off + 1)),

    a bound that falls as n grows.  With q = sqrt(2y) it is <= q from
    n1 = max(0, ceil((N q / (1 - q) - off - 1) / 2)) on, so the peak lies at
    or before n1 and a_(n1+k)^2 <= (2y)^k peak^2: the window
    n1 + ceil(ln(_TAIL_RATIO) / ln(2y)) passes FockVector.check_tail.
    Raises DomainError, before anything is allocated, for a window above
    _WINDOW_CAP, which includes q rounding to 1 within an ulp of y = 1/2.
    """
    q = math.sqrt(2.0 * y)
    window = math.inf
    if q < 1.0:
        n1 = max(0, math.ceil((order * q / (1.0 - q) - off - 1) / 2.0))
        window = n1 + math.ceil(math.log(_TAIL_RATIO) / math.log(2.0 * y))
    if window > _WINDOW_CAP:
        raise DomainError(f"order {order} at y = {y} needs a window above {_WINDOW_CAP}")
    return window


def heralded_amps(parity: str, m: int, y, n_max: int) -> np.ndarray:
    """Normalised heralded amplitudes for indices 0..n_max.

    y is a scalar, or a 1-D array for one row of amplitudes per y.  The
    normalisation constant comes from the generating-function derivative
    rather than from the stored amplitudes, so a window shorter than the
    state's support still carries exact amplitudes.
    """
    off = photon_offset(parity)
    m = _check_count(m, "pair count m")
    n_max = _check_count(n_max, "cutoff")
    y = np.asarray(y, dtype=np.float64)
    _check_y(y)
    order = 2 * m + off
    if y.ndim == 0:
        log_z = genfunc_derivative(order, float(y)).log_mag
    else:
        log_z = log_genfunc_derivative(order, y)[:, None]
        y = y[:, None]
    n = np.arange(n_max + 1)
    log_y = np.log(y)
    logs = (
        n * log_y
        + log_factorials(2 * (n + m + off))
        - log_factorials(n + m + off)
        - 0.5 * log_factorials(2 * n + off)
        - 0.5 * log_z
    )
    if off:
        logs += 0.5 * log_y
    return np.exp(logs)


def heralded_state(parity: str, m: int, y: float, cutoff: int | None = None) -> FockVector:
    """The state heralded by subtracting 2m (even) or 2m+1 (odd) photons.

    y is the generating-function parameter at the herald point (the end of
    the chain), 0 < y < 0.5.  Without a cutoff the window comes from the
    tail bound of _herald_window.  The result is normalised analytically;
    its norm differing from one therefore cross-checks genfunc_derivative
    against a direct sum.
    """
    if cutoff is None:
        off = photon_offset(parity)
        _check_y(y)
        cutoff = _herald_window(2 * _check_count(m, "pair count m") + off, off, y)
    vec = FockVector(parity, heralded_amps(parity, m, y, cutoff))
    vec.check_tail()
    return vec


def _smsv_amps(s: float, n_max: int) -> np.ndarray:
    """The squeezed-vacuum amplitudes c_0..c_n_max on |0>, |2>, ..., |2 n_max>."""
    n = np.arange(n_max + 1)
    y0 = math.tanh(s) / 2.0
    log_c = n * math.log(y0) + 0.5 * log_factorials(2 * n) - log_factorials(n)
    return np.exp(log_c - 0.5 * math.log(math.cosh(s)))

