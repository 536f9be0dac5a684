"""Exceptions shared across the package."""

__all__ = ["DomainError", "TruncationError"]


class DomainError(ValueError):
    """A parameter lies outside the physically admissible domain."""


class TruncationError(RuntimeError):
    """A Fock-space cutoff is too small for the requested accuracy."""
