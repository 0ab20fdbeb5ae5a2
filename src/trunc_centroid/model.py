"""Shared domain types.

Every record of the package is a named tuple: immutable, equal and
hashed by value, and built without importing inspect (about 10 ms).
GaussianParams and ExcludedInterval, like verification.SweepSpec,
validate their invariants in __new__, which _make and so _replace go
through too, so one that exists is always usable.  Result types
(CentroidResult and friends) carry no behavior; analytic facts about
them, such as the sign of a comparison delta, are checked by the
verification sweeps and the test suite rather than enforced here.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import IntervalError, ParameterError, _float, _quote, require_finite


class Method(str, enum.Enum):
    """How a centroid value was produced."""

    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte_carlo"


# Exterior mass below which a result carries the LOW_SUPPORT_MASS flag.
LOW_MASS_FLOOR = 1e-12
LOW_SUPPORT_MASS = "low_support_mass"


def _make_checked(cls, iterable):
    # namedtuple's own _make, which _replace calls, bypasses __new__.
    return cls(*iterable)


class GaussianParams(NamedTuple("GaussianParams", [("mu", float), ("sigma", float)])):
    """Location and scale of the base Gaussian.

    sigma is the standard deviation (scale), not the variance.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, mu: float, sigma: float) -> GaussianParams:
        mu, scale = require_finite(mu, "mu"), _float(sigma)
        if not math.isfinite(scale) or scale <= 0.0:
            raise ParameterError(f"sigma must be finite and > 0, got {_quote(sigma)}")
        return super().__new__(cls, mu, scale)


class ExcludedInterval(NamedTuple("ExcludedInterval", [("lower", float), ("upper", float)])):
    """The open interval (lower, upper) removed from the support.

    Both endpoints must be finite: a one-sided hole would turn the
    support into a single ray, which is a different (classical) problem
    and is deliberately rejected here.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, lower: float, upper: float) -> ExcludedInterval:
        lo, hi = _float(lower), _float(upper)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IntervalError(
                f"interval endpoints must be finite (one-sided truncation is "
                f"unsupported), got ({_quote(lower)}, {_quote(upper)})"
            )
        if not hi > lo:
            raise IntervalError(f"excluded interval needs upper > lower, got ({lo!r}, {hi!r})")
        return super().__new__(cls, lo, hi)


class CentroidResult(NamedTuple):
    value: float
    method: Method
    support_mass: float
    warnings: tuple[str, ...] = ()
    # Certified bound on |value - exact centroid|, where the method has one.
    abs_error_bound: float | None = None


class ShiftComparison(NamedTuple):
    base: CentroidResult
    shifted: CentroidResult
    shift: float
    delta: float
