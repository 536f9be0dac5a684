"""Log-domain scalars.

Success probabilities and heralded amplitudes in this package are products
of factorial ratios and high powers that overflow float64 long before the
final, perfectly ordinary result is assembled.  Inner loops keep such
quantities as float arrays of logs; a LogReal, one number >= 0 held as its
natural log, carries a result across a function boundary and is
exponentiated last.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["LogReal", "log_factorials", "logreal_sum_logs"]


@dataclass(frozen=True, slots=True)
class LogReal:
    """A number >= 0 stored as its natural log; log_mag is -inf for zero.

    log_mag must not be nan or +inf.
    """

    log_mag: float

    def __post_init__(self):
        if not self.log_mag < math.inf:  # nan fails too
            raise DomainError(f"magnitude must be finite, got exp({self.log_mag!r})")

    @classmethod
    def from_float(cls, x: float) -> "LogReal":
        if not x >= 0.0:  # nan fails too
            raise DomainError(f"a LogReal holds a number >= 0, got {x!r}")
        return cls(math.log(x) if x > 0.0 else -math.inf)

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(-math.inf)

    def to_float(self) -> float:
        try:
            return math.exp(self.log_mag)
        except OverflowError:
            return math.inf

    def log10(self) -> float:
        """log10 of the number; -inf for zero."""
        return self.log_mag / math.log(10.0)

    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    # only LogReal operands: mixing in a plain number raises TypeError
    def __mul__(self, other) -> "LogReal":
        if not isinstance(other, LogReal):
            return NotImplemented
        return LogReal(self.log_mag + other.log_mag)

    def __truediv__(self, other) -> "LogReal":
        if not isinstance(other, LogReal):
            return NotImplemented
        if other.is_zero():
            raise DomainError("LogReal division by zero")
        return LogReal(self.log_mag - other.log_mag)

    def __repr__(self):
        return "LogReal(0)" if self.is_zero() else f"LogReal(exp({self.log_mag:.6g}))"


# ln(k!) for k = 0..len-1; a memo of math.lgamma values, grown on demand.
_LOG_FACTORIALS = np.zeros(1)


def log_factorials(n) -> np.ndarray:
    """ln(n!) elementwise for an array of nonnegative integers.

    Looks the values up in a table of math.lgamma values that at least
    doubles whenever a larger argument arrives, computing only the new
    entries, so repeated calls cost one gather.  Raises DomainError for a
    negative entry or a non-integer dtype: 1.5 is rejected, not truncated.
    """
    global _LOG_FACTORIALS
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        raise DomainError(f"factorial of a non-integer array of dtype {n.dtype}")
    if n.min(initial=0) < 0:
        raise DomainError("factorial of a negative integer")
    top = int(n.max(initial=0))
    old = len(_LOG_FACTORIALS)
    if top >= old:
        size = max(top + 1, 2 * old)
        new = np.fromiter(map(math.lgamma, range(old + 1, size + 1)), np.float64, size - old)
        _LOG_FACTORIALS = np.concatenate((_LOG_FACTORIALS, new))
    return _LOG_FACTORIALS[n]


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
        return LogReal.zero()
    return LogReal(float(top + np.log(np.exp(logs - top).sum())))
