"""Exception types shared across the package, and its finiteness and
integer checks.

Every error raised on purpose derives from TruncCentroidError so callers
can catch one type at the boundary.  The CLI maps these to exit code 1;
argument-parsing problems are a separate path (exit code 2).
"""

from __future__ import annotations

import math
import operator


class TruncCentroidError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TruncCentroidError):
    """An input value is outside the mathematical domain (NaN, infinity)."""


def _float(value) -> float:
    """float(value), but an int beyond the float range is an infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def require_finite(value: float, name: str) -> float:
    """value as a float; DomainError if it is NaN or infinite."""
    value = _float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


class ParameterError(TruncCentroidError):
    """A parameter is structurally invalid (sigma <= 0, n < 1)."""


def _integer(value, name: str) -> int:
    """value as an int, as operator.index takes it (a bool, a numpy integer)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


class IntervalError(TruncCentroidError):
    """The excluded interval is empty or degenerate (upper <= lower)."""


class DeepTruncationError(TruncCentroidError):
    """The support carries too little probability mass for the requested
    method to produce a trustworthy answer."""


class ToleranceNotMetError(TruncCentroidError):
    """Quadrature could not meet its error tolerances."""
