"""Shared domain types.

Frozen dataclasses validate their own invariants on construction, so a
GaussianParams or ExcludedInterval that exists is always usable.  Result
types (CentroidResult and friends) carry no behavior; analytic facts
about them, such as the sign of a comparison delta, are checked by the
verification sweeps and the test suite rather than enforced here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import IntervalError, ParameterError, require_finite


class Method(str, enum.Enum):
    """How a centroid value was produced."""

    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte_carlo"


# Exterior mass below which a result carries the LOW_SUPPORT_MASS flag.
LOW_MASS_FLOOR = 1e-12
LOW_SUPPORT_MASS = "low_support_mass"
# Exterior mass below which the sampler raises DeepTruncationError: this
# close to float64 underflow (normal floats stop at 2.2e-308) inverted
# tail masses cannot be trusted.  The quadrature oracle declines only
# where the hole covers its window, and the closed form divides each tail
# by its edge's density.
UNDERFLOW_MASS_FLOOR = 1e-290


@dataclass(frozen=True)
class GaussianParams:
    """Location and scale of the base Gaussian.

    sigma is the standard deviation (scale), not the variance.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", require_finite(self.mu, "mu"))
        sigma = float(self.sigma)
        if not math.isfinite(sigma) or sigma <= 0.0:
            raise ParameterError(f"sigma must be finite and > 0, got {self.sigma!r}")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class ExcludedInterval:
    """The open interval (lower, upper) removed from the support.

    Both endpoints must be finite: a one-sided hole would turn the
    support into a single ray, which is a different (classical) problem
    and is deliberately rejected here.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        lower = float(self.lower)
        upper = float(self.upper)
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise IntervalError(
                f"interval endpoints must be finite (one-sided truncation is "
                f"unsupported), got ({self.lower!r}, {self.upper!r})"
            )
        if not upper > lower:
            raise IntervalError(
                f"excluded interval needs upper > lower, got ({lower!r}, {upper!r})"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class CentroidResult:
    value: float
    method: Method
    support_mass: float
    warnings: tuple[str, ...] = field(default_factory=tuple)
    # Certified bound on |value - exact centroid|, where the method has one.
    abs_error_bound: float | None = None


@dataclass(frozen=True)
class ShiftComparison:
    base: CentroidResult
    shifted: CentroidResult
    shift: float
    delta: float
