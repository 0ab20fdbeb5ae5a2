"""Conditional expectation of a Gaussian outside an excluded interval.

The support is the exterior S = (-inf, lower] U [upper, inf) of an open
hole; the library computes E[X | X in S] for X ~ N(mu + shift, sigma^2)
three ways (stable closed form, Gauss-Kronrod quadrature oracle, seeded
Monte Carlo), certifies the strict inequalities behind the claim that the
centroid grows with the shift, and ships a CLI over all of it.

Importing the package does not import numpy: the closed form, the
quadrature oracle and the reference figure need only the math module.
The sampler and verification names are loaded, with numpy, on first
access.
"""

import importlib

from .centroid import (
    centroid_exterior,
    shift_comparison,
    slope_certificate,
    std_exterior_centroid,
    std_exterior_centroid_slope,
)
from .errors import (
    DeepTruncationError,
    DomainError,
    IntervalError,
    ParameterError,
    ToleranceNotMetError,
    TruncCentroidError,
)
from .model import (
    CentroidResult,
    ExcludedInterval,
    GaussianParams,
    Method,
    ShiftComparison,
)
from .quadrature import centroid_quadrature
from .special import (
    log_std_tail,
    mills_lower_bound_cdf,
    mills_lower_bound_tail,
    mills_ratio,
    std_cdf,
    std_pdf,
    std_tail,
)

# The names of __all__ not imported above live in modules that import
# numpy; __getattr__ imports them on first access and keeps them here.
_NUMPY_MODULES = ("sampler", "verification")


def __getattr__(name: str):
    if name in __all__:
        for module in _NUMPY_MODULES:
            mod = importlib.import_module(f".{module}", __name__)
            if hasattr(mod, name):
                globals()[name] = value = getattr(mod, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "CentroidResult",
    "CheckRecord",
    "DeepTruncationError",
    "DomainError",
    "ExcludedInterval",
    "GaussianParams",
    "IntervalError",
    "Method",
    "MonteCarloEstimate",
    "ParameterError",
    "SampleBatch",
    "ShiftComparison",
    "SweepSpec",
    "ToleranceNotMetError",
    "TruncCentroidError",
    "VerificationReport",
    "centroid_exterior",
    "centroid_quadrature",
    "log_std_tail",
    "mills_lower_bound_cdf",
    "mills_lower_bound_tail",
    "mills_ratio",
    "monte_carlo_centroid",
    "sample_exterior",
    "shift_comparison",
    "slope_certificate",
    "std_cdf",
    "std_exterior_centroid",
    "std_exterior_centroid_slope",
    "std_pdf",
    "std_tail",
    "verify_bounds",
    "verify_certificate_positive",
    "verify_derivative",
    "verify_monotonicity",
]
