"""Exception types shared across the package, its finiteness and
integer checks, and the quoting of caller input in their messages.

Every error raised on purpose derives from TruncCentroidError so callers
can catch one type at the boundary.  The CLI maps these to exit code 1;
argument-parsing problems are a separate path (exit code 2).
"""

from __future__ import annotations

import math
import operator


class TruncCentroidError(Exception):
    """Base class for all errors raised by this package."""


def _quote(value) -> str:
    """repr(value), but an int past Python's int-to-str digit limit, alone
    or in a tuple or list, is quoted by its sign and bit length; any other
    value whose repr fails so (a dict holding such an int) by its type name."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
        if type(value) in (tuple, list):
            items = ", ".join(map(_quote, value))
            if type(value) is list:
                return f"[{items}]"
            return f"({items},)" if len(value) == 1 else f"({items})"
        return f"<{type(value).__name__}>"


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
        raise ParameterError(f"{name} must be an integer, got {_quote(value)}") from None


class IntervalError(TruncCentroidError):
    """The excluded interval is empty or degenerate (upper <= lower)."""


class DeepTruncationError(TruncCentroidError):
    """The support carries too little probability mass for the requested
    method to produce a trustworthy answer."""


class ToleranceNotMetError(TruncCentroidError):
    """Quadrature could not meet its error tolerances."""
