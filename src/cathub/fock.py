"""Parity-tagged truncated Fock vectors and the normalising generating function.

States that appear in this package occupy either the even or the odd photon
number sector, so a state is stored as a parity tag plus a dense array of
real amplitudes: index n maps to photon number 2n (even) or 2n+1 (odd).

The family of photon-subtracted squeezed states is normalised by derivatives
of the central-binomial generating function

    g(y) = sum_k C(2k, k) y^(2k) = 1 / sqrt(1 - 4 y^2),   0 <= y < 1/2.

log_genfunc_derivative evaluates ln d^m g / dy^m over a scalar or an array
of y as one finite sum of m//2 + 1 positive terms, the Legendre P_m
coefficients in magnitude; genfunc_derivative wraps it as a LogReal.  The
same sum holds on the whole interval, so there is no series truncation and
no switch of method near the y = 1/2 singularity.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TruncationError
from .logreal import LogReal, log_factorials

__all__ = [
    "FockVector",
    "inner_product",
    "genfunc_derivative",
    "log_genfunc_derivative",
    "parity_of",
    "photon_offset",
]

_TAIL_RATIO = 1e-14


def parity_of(n: int) -> str:
    return "even" if n % 2 == 0 else "odd"


def photon_offset(parity: str) -> int:
    """0 for the even sector, 1 for the odd sector."""
    if parity == "even":
        return 0
    if parity == "odd":
        return 1
    raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


@dataclass(frozen=True)
class FockVector:
    """Real amplitudes over a single photon-parity sector.

    amps[n] is the amplitude of Fock state |2n> (even parity) or |2n+1>
    (odd parity).  cutoff is the largest stored index.
    """

    parity: str
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        photon_offset(self.parity)  # validates the tag
        arr = np.asarray(self.amps, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("amps must be a non-empty 1-D array")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    @property
    def cutoff(self) -> int:
        return len(self.amps) - 1

    def photon_numbers(self) -> np.ndarray:
        off = photon_offset(self.parity)
        return 2 * np.arange(len(self.amps)) + off

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.amps**2)))

    def mean_photon_number(self) -> float:
        """Direct second-moment sum; assumes the vector is normalised."""
        return float(np.sum(self.photon_numbers() * self.amps**2))

    def check_tail(self) -> None:
        """Raise TruncationError when the stored tail is not negligible."""
        peak = float(np.max(self.amps**2))
        if peak == 0.0:
            return
        if float(self.amps[-1] ** 2) > _TAIL_RATIO * peak:
            raise TruncationError(
                f"amplitude at cutoff index {self.cutoff} is not negligible; increase the cutoff"
            )

    def __repr__(self):
        return f"FockVector(parity={self.parity!r}, cutoff={self.cutoff})"


def inner_product(a: FockVector, b: FockVector) -> float:
    """<a|b> for real vectors; zero across parity sectors."""
    if a.parity != b.parity:
        return 0.0
    n = min(len(a.amps), len(b.amps))
    return float(np.dot(a.amps[:n], b.amps[:n]))


def _check_y(y: np.ndarray) -> None:
    if not ((0.0 <= y) & (y < 0.5)).all():
        raise DomainError(f"y must lie in [0, 0.5), got {y}")


@functools.lru_cache(maxsize=1024)
def _legendre_terms(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-order constants (logs, powers) of the Legendre sum, k = 0..order//2.

    logs[k] = ln(order! C(order, k) C(2 order - 2k, order)), which is
    order! 2^order times the magnitude of a Legendre P_order coefficient;
    powers[k] = 2 (order//2 - k), the power of w beyond the order % 2 one.
    Both arrays are shared and read-only.
    """
    k = np.arange(order // 2 + 1)
    logs = (
        log_factorials(order)
        + log_factorials(2 * order - 2 * k)
        - log_factorials(k)
        - log_factorials(order - k)
        - log_factorials(order - 2 * k)
    )
    powers = 2.0 * (order // 2 - k)
    logs.flags.writeable = False
    powers.flags.writeable = False
    return logs, powers


def log_genfunc_derivative(order: int, y):
    """ln of the order-th derivative of g(y) = 1/sqrt(1 - 4 y^2).

    y is a scalar (a float is returned) or an array (an array of the same
    shape is returned).  With s = 1 - 4y^2 and w = 2y / sqrt(s),

        g^(m)(y) = m! s^(-(m+1)/2) sum_k C(m, k) C(2m - 2k, m) w^(m - 2k),

    k = 0..m//2, which is 2^m m! s^(-(m+1)/2) times P_m evaluated at the
    imaginary point i w with every sign made positive.  The sum is finite
    and all its terms are positive, so a max-shifted log-sum-exp carries it
    without cancellation or truncation.  Odd orders vanish at y = 0, where
    -inf is returned.  Raises DomainError outside 0 <= y < 0.5.
    """
    if order < 0:
        raise DomainError(f"derivative order must be >= 0, got {order}")
    y = np.asarray(y, dtype=np.float64)
    _check_y(y)
    logs, powers = _legendre_terms(order)
    log_s = np.log1p(-2.0 * y) + np.log1p(2.0 * y)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(2.0 * y) - 0.5 * log_s  # -inf at y = 0
        terms = logs + powers * log_w[..., None]
    terms[..., -1] = logs[-1]  # the w^0 term, also where 0 * ln w is nan
    top = terms.max(axis=-1)
    out = top + np.log(np.exp(terms - top[..., None]).sum(axis=-1)) - 0.5 * (order + 1) * log_s
    if order % 2:
        out = out + log_w  # the odd power of w left out of powers
    return float(out) if out.ndim == 0 else out


def genfunc_derivative(order: int, y: float) -> LogReal:
    """m-th derivative of g(y) = 1/sqrt(1 - 4 y^2) at a scalar y, as a LogReal.

    Positive for every admissible y > 0; odd orders vanish at y = 0.
    Raises DomainError outside 0 <= y < 0.5.
    """
    log_mag = log_genfunc_derivative(order, y)
    return LogReal(1, log_mag) if log_mag > -math.inf else LogReal.zero()
