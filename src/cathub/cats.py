"""Even/odd cat-state targets, overlaps, and the herald-parameter optimum.

An even (odd) Schroedinger cat state is the normalised sum (difference) of
coherent states |beta> and |-beta>.  In the Fock basis it lives entirely in
one parity sector, which is what makes the subtracted-photon states of
hub.heralded_state natural approximations to it.
"""

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import FockVector, genfunc_derivative, inner_product, photon_offset
from .hub import _check_open_y, heralded_amps
from .logreal import log_factorials

__all__ = ["OptResult", "cat_state", "fidelity", "mean_photon", "optimal_y"]

logger = logging.getLogger(__name__)

_Y_LO = 1e-6
_Y_HI = 0.5 - 1e-6
_SCAN_POINTS = 256
_BRACKET_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# largest default cat window: keeps optimal_y's scan matrix near 32 MB (beta ~ 175)
_CAT_WINDOW_CAP = 2**14


def _cat_cutoff(beta: float) -> int:
    window = (beta * beta + 12.0 * beta + 30.0) / 2.0
    if window > _CAT_WINDOW_CAP:
        raise DomainError(f"beta = {beta} needs a cat window of {window:.4g} > {_CAT_WINDOW_CAP}")
    return max(int(math.ceil(window)), 16)


def cat_state(beta: float, parity: str, cutoff: int | None = None) -> FockVector:
    """Even or odd cat state of amplitude beta as a FockVector.

    Even amplitudes: 2 N+ exp(-beta^2/2) beta^(2n) / sqrt((2n)!)
    Odd amplitudes:  2 N- exp(-beta^2/2) beta^(2n+1) / sqrt((2n+1)!)
    with N+- = (2 (1 +- exp(-2 beta^2)))^(-1/2).  beta = 0 is admitted only
    for the even branch, where the state degenerates to vacuum; the odd
    branch needs beta^2 to be a normal float.
    """
    off = photon_offset(parity)
    if beta < 0.0 or not math.isfinite(beta):
        raise DomainError(f"beta must be >= 0 and finite, got {beta}")
    if beta == 0.0 and not off:
        return FockVector("even", np.array([1.0]))
    b2 = beta * beta
    # the odd state is undefined at beta = 0 and its norm is lost once beta^2 is subnormal
    if off and b2 < sys.float_info.min:
        raise DomainError(f"odd cat state needs beta^2 >= {sys.float_info.min:.4g}, got beta = {beta}")
    if cutoff is None:
        cutoff = _cat_cutoff(beta)
    # 1 - exp(-2 beta^2) through expm1, which keeps its digits at small beta
    d = -math.expm1(-2.0 * b2) if off else 1.0 + math.exp(-2.0 * b2)
    log_norm = 0.5 * math.log(2.0 / d)
    photons = 2 * np.arange(cutoff + 1) + off
    logs = photons * math.log(beta) - 0.5 * log_factorials(photons) - 0.5 * b2 + log_norm
    vec = FockVector(parity, np.exp(logs))
    vec.check_tail()
    return vec


def fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2, clipped into [0, 1] against rounding."""
    ov = inner_product(a, b)
    return min(ov * ov, 1.0)


def _check_subtracted(parity: str, n_subtracted: int) -> None:
    if n_subtracted < 0 or n_subtracted % 2 != photon_offset(parity):
        raise DomainError(
            f"subtracted count {n_subtracted} does not match parity {parity!r}"
        )


def _cat_overlap(parity: str, m: int, y, target: FockVector):
    """|<heralded state|target>|^2 for 2m (+1 if odd) subtracted photons.

    y is a scalar, or an array for one overlap per entry.  The heralded
    amplitudes are evaluated on the target's support only; their analytic
    normalisation keeps that exact.  np.square is x * x exactly, also for a
    scalar, where ** 2 would call pow.
    """
    return np.square(heralded_amps(parity, m, y, target.cutoff) @ target.amps)


def mean_photon(parity: str, n_subtracted: int, y: float) -> float:
    """Mean photon number of the heralded state for N subtracted photons.

    Equals y * g^(N+1)(y) / g^(N)(y); this is the same number as the direct
    second-moment sum over the state's amplitudes.
    """
    _check_subtracted(parity, n_subtracted)
    _check_open_y(y)
    ratio = genfunc_derivative(n_subtracted + 1, y) / genfunc_derivative(n_subtracted, y)
    return y * ratio.to_float()


@dataclass(frozen=True)
class OptResult:
    """Result of the herald-parameter search."""

    y_star: float
    fidelity: float
    evaluations: int
    bracket: tuple[float, float]


def optimal_y(parity: str, n_subtracted: int, beta: float) -> OptResult:
    """Herald parameter maximising overlap with the cat state of amplitude beta.

    A 256-point scan over the full admissible interval, evaluated as one
    matrix of heralded amplitudes against the cat state, locates the global
    peak (ties resolved towards smaller y); then a golden-section refinement
    narrows the bracket to 1e-10.  evaluations counts the scan points plus
    the scalar refinement calls.
    """
    _check_subtracted(parity, n_subtracted)
    if not (beta > 0.0):
        raise DomainError(f"beta must be positive, got {beta}")
    target = cat_state(beta, parity)
    m = n_subtracted // 2

    def objective(y: float) -> float:
        nonlocal evals
        evals += 1
        return float(_cat_overlap(parity, m, y, target))

    ys = np.linspace(_Y_LO, _Y_HI, _SCAN_POINTS)
    vals = _cat_overlap(parity, m, ys, target)
    evals = _SCAN_POINTS
    best = int(np.argmax(vals))  # first occurrence wins ties -> smaller y

    peaks = [
        i
        for i in range(1, _SCAN_POINTS - 1)
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1] and vals[i] >= vals[best] - 1e-6
    ]
    if len(peaks) > 1:
        logger.warning(
            "objective for N=%d, beta=%g shows %d near-optimal scan peaks",
            n_subtracted,
            beta,
            len(peaks),
        )

    lo = ys[best - 1] if best > 0 else ys[0]
    hi = ys[best + 1] if best < _SCAN_POINTS - 1 else ys[-1]

    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > _BRACKET_TOL:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = objective(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = objective(c)
    y_star = 0.5 * (lo + hi)
    return OptResult(y_star=y_star, fidelity=objective(y_star), evaluations=evals, bracket=(lo, hi))
