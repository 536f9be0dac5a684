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

from .errors import DomainError, TruncationError
from .fock import FockVector, genfunc_derivative, log_genfunc_derivative, parity_of, photon_offset
from .logreal import log_factorials

__all__ = [
    "HubConfig",
    "Outcome",
    "default_cutoff",
    "squeezed_vacuum",
    "heralded_state",
    "heralded_amps",
    "chain_transmission",
]


def chain_transmission(transmittances) -> float:
    """T = prod t_i^2, the squared transmittance product of a chain; y_k = T y0."""
    return math.prod(t * t for t in transmittances)


@dataclass(frozen=True)
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
        ts = tuple(float(t) for t in self.transmittances)
        if len(ts) == 0:
            raise DomainError("at least one beam splitter is required")
        for t in ts:
            if not (0.0 < t <= 1.0):
                raise DomainError(f"transmittance must lie in (0, 1], got {t}")
        object.__setattr__(self, "transmittances", ts)

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

    @property
    def reflectances(self) -> tuple[float, ...]:
        return tuple(math.sqrt(1.0 - t * t) for t in self.transmittances)

    @property
    def squeezing_db(self) -> float:
        """Quadrature noise reduction in dB: -10 log10(exp(-2s))."""
        return 20.0 * self.squeezing / math.log(10.0)

    @property
    def mean_photons_source(self) -> float:
        return math.sinh(self.squeezing) ** 2

    @classmethod
    def from_target_y(cls, y_target: float, transmittances) -> "HubConfig":
        """Back-solve the squeezing so the chain ends at y_k = y_target."""
        ts = tuple(float(t) for t in transmittances)
        tanh_s = 2.0 * y_target / chain_transmission(ts)
        if not (0.0 < tanh_s < 1.0):
            raise DomainError(
                f"target y = {y_target} needs tanh(s) = {tanh_s:.6g}, outside (0, 1)"
            )
        return cls(math.atanh(tanh_s), ts)


@dataclass(frozen=True)
class Outcome:
    """Photon counts registered by the detectors, one per splitter."""

    counts: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(n) for n in self.counts)
        if len(cs) == 0:
            raise DomainError("an outcome needs at least one count")
        for n in cs:
            if n < 0:
                raise DomainError(f"photon counts must be >= 0, got {n}")
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


def _check_open_y(y) -> None:
    if not np.all((0.0 < y) & (y < 0.5)):
        raise DomainError(f"y must lie in (0, 0.5), got {y}")


def default_cutoff(m: int, y: float) -> int:
    """Storage cutoff large enough for a 1e-14 relative amplitude tail.

    Two regimes: the 40/(1-2y) term covers the broadening of the bare
    squeezed distribution as y -> 1/2, while the (2m+24)/(-ln 2y) term covers
    the slow n^m growth of the factorial ratio before geometric decay in
    (2y)^n takes over.  Raises DomainError outside 0 < y < 0.5.
    """
    _check_open_y(y)
    broad = math.ceil((8.0 * (m + 1) + 40.0 / (1.0 - 2.0 * y)) / 2.0)
    slow = math.ceil((2.0 * m + 24.0) / max(-math.log(2.0 * y), 1e-3) + 16.0)
    return max(broad, slow, 16)


def heralded_amps(parity: str, m: int, y, n_max: int) -> np.ndarray:
    """Normalised heralded amplitudes for indices 0..n_max.

    y is a scalar, or a 1-D array for one row of amplitudes per y.  The
    normalisation constant comes from the generating-function derivative
    rather than from the stored amplitudes, so a window shorter than the
    state's support still carries exact amplitudes.
    """
    off = photon_offset(parity)
    if m < 0:
        raise DomainError(f"pair count m must be >= 0, got {m}")
    y = np.asarray(y, dtype=np.float64)
    _check_open_y(y)
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
    the chain), 0 < y < 0.5.  The result is normalised analytically; its
    norm differing from one therefore cross-checks genfunc_derivative
    against a direct sum.
    """
    tries = 4 if cutoff is None else 1
    if cutoff is None:
        cutoff = default_cutoff(m, y)
    for attempt in range(1, tries + 1):
        vec = FockVector(parity, heralded_amps(parity, m, y, cutoff))
        try:
            vec.check_tail()
            return vec
        except TruncationError as exc:
            if attempt == tries:
                raise
            # the default rule can undershoot in odd corners; grow until clean
            cutoff = exc.suggested_cutoff


def squeezed_vacuum(s: float, cutoff: int | None = None) -> FockVector:
    """Single-mode squeezed vacuum over the even sector.

    Amplitudes c_n = y0^n sqrt((2n)!) / n! / sqrt(cosh s) with y0 = tanh(s)/2.
    """
    if not (s > 0.0) or not math.isfinite(s):
        raise DomainError(f"squeezing must be positive and finite, got {s}")
    if cutoff is None:
        cutoff = default_cutoff(0, math.tanh(s) / 2.0)
    vec = FockVector("even", _smsv_amps(s, cutoff))
    vec.check_tail()
    return vec


def _smsv_amps(s: float, n_max: int) -> np.ndarray:
    """The squeezed-vacuum amplitudes c_0..c_n_max on |0>, |2>, ..., |2 n_max>."""
    n = np.arange(n_max + 1)
    y0 = math.tanh(s) / 2.0
    log_c = n * math.log(y0) + 0.5 * log_factorials(2 * n) - log_factorials(n)
    return np.exp(log_c - 0.5 * math.log(math.cosh(s)))

