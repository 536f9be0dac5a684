"""Signed log-domain scalars.

Success probabilities and heralded amplitudes in this package are products
of factorial ratios and high powers that overflow float64 long before the
final, perfectly ordinary result is assembled.  Inner loops keep such
quantities as float arrays of logs; a LogReal, a (sign, log magnitude)
pair, carries a result across a function boundary and is exponentiated
last.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["LogReal", "log_factorials", "logreal_sum", "logreal_sum_logs"]


@dataclass(frozen=True, slots=True)
class LogReal:
    """A real number stored as a sign and the natural log of its magnitude.

    sign is -1, 0 or +1; log_mag is ignored (and normalised to 0.0) when
    sign == 0, and otherwise must not be nan or +inf.
    """

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0:
            object.__setattr__(self, "log_mag", 0.0)
        elif not self.log_mag < math.inf:  # nan fails too
            raise DomainError(f"magnitude must be finite, got exp({self.log_mag!r})")

    @classmethod
    def from_float(cls, x: float) -> "LogReal":
        if x == 0.0:
            return cls(0, 0.0)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(0, 0.0)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.log_mag)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    def log10(self) -> float:
        """log10 of the magnitude; -inf for zero."""
        if self.sign == 0:
            return -math.inf
        return self.log_mag / math.log(10.0)

    def is_zero(self) -> bool:
        return self.sign == 0

    # only LogReal operands: mixing in a plain number raises TypeError
    def __mul__(self, other) -> "LogReal":
        if not isinstance(other, LogReal):
            return NotImplemented
        if self.sign == 0 or other.sign == 0:
            return LogReal(0, 0.0)
        return LogReal(self.sign * other.sign, self.log_mag + other.log_mag)

    def __truediv__(self, other) -> "LogReal":
        if not isinstance(other, LogReal):
            return NotImplemented
        if other.sign == 0:
            raise ZeroDivisionError("LogReal division by zero")
        if self.sign == 0:
            return LogReal(0, 0.0)
        return LogReal(self.sign * other.sign, self.log_mag - other.log_mag)

    def __repr__(self):
        if self.sign == 0:
            return "LogReal(0)"
        return f"LogReal({'+' if self.sign > 0 else '-'}exp({self.log_mag:.6g}))"


# ln(k!) for k = 0..len-1; a memo of math.lgamma values, grown on demand.
_LOG_FACTORIALS = np.zeros(1)


def log_factorials(n) -> np.ndarray:
    """ln(n!) elementwise for an array of nonnegative integers.

    Looks the values up in a table of math.lgamma values that at least
    doubles whenever a larger argument arrives, computing only the new
    entries, so repeated calls cost one gather.
    """
    global _LOG_FACTORIALS
    n = np.asarray(n, dtype=np.intp)
    if n.min(initial=0) < 0:
        raise DomainError("factorial of a negative integer")
    top = int(n.max(initial=0))
    old = len(_LOG_FACTORIALS)
    if top >= old:
        size = max(top + 1, 2 * old)
        new = np.fromiter(map(math.lgamma, range(old + 1, size + 1)), np.float64, size - old)
        _LOG_FACTORIALS = np.concatenate((_LOG_FACTORIALS, new))
    return _LOG_FACTORIALS[n]


def logreal_sum(terms) -> LogReal:
    """Sum an iterable of LogReal values without leaving the log domain.

    Magnitudes are rescaled by the largest exponent before accumulation, so
    the result is stable even when individual terms would overflow float64.
    """
    terms = [t for t in terms if t.sign != 0]
    if not terms:
        return LogReal(0, 0.0)
    top = max(t.log_mag for t in terms)
    acc = 0.0
    for t in terms:
        acc += t.sign * math.exp(t.log_mag - top)
    if acc == 0.0:
        return LogReal(0, 0.0)
    return LogReal(1 if acc > 0 else -1, top + math.log(abs(acc)))


def logreal_sum_logs(logs) -> LogReal:
    """Sum of the positive terms exp(logs), given as a float array of logs.

    One max-shifted log-sum-exp, so terms that would overflow or underflow
    float64 one by one still add up; an empty or all -inf array sums to 0.
    Raises DomainError for a nan or +inf log.
    """
    logs = np.asarray(logs, dtype=np.float64)
    top = logs.max(initial=-math.inf)
    if not top < math.inf:  # nan fails too
        raise DomainError(f"logs must be below +inf, got {top}")
    if top == -math.inf:
        return LogReal(0, 0.0)
    return LogReal(1, float(top + np.log(np.exp(logs - top).sum())))
