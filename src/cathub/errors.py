"""Exceptions shared across the package, and the argument gates that raise them.

Each argument rule that several entry points share, the command line's
parser types included, is written once here, in the package's bottom module.
"""

import operator

import numpy as np

__all__ = ["DomainError", "TruncationError"]


class DomainError(ValueError):
    """A parameter lies outside the physically admissible domain."""


class TruncationError(RuntimeError):
    """A Fock-space cutoff is too small for the requested accuracy."""


def _check_count(n, what: str, low: int = 0) -> int:
    """n as a Python int, or DomainError unless it is an integer >= low; 1.7 is rejected, not truncated."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}") from None
    if n < low:
        raise DomainError(f"{what} must be >= {low}, got {n}")
    return n


def _check_unit(x, what: str):
    """x unchanged, or DomainError unless 0 < x <= 1 (nan fails)."""
    if not 0.0 < x <= 1.0:
        raise DomainError(f"{what} must lie in (0, 1], got {x}")
    return x


def _check_y(y, with_zero: bool = False) -> None:
    """DomainError unless y, a scalar or an array, lies in (0, 1/2), or in [0, 1/2) with_zero."""
    ok = ((0.0 <= y) if with_zero else (0.0 < y)) & (y < 0.5)
    # a scalar y leaves a bool, on which np.all would cost more than the comparisons
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise DomainError(f"y must lie in {'[' if with_zero else '('}0, 0.5), got {y}")
