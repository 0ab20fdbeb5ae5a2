"""Closed-form centroid of a Gaussian conditioned outside an interval.

Everything reduces to standardized coordinates.  With hole edges
(lower, upper) fixed and the density shifted by `shift`, write
ru = upper - shift and rl = lower - shift.  The centroid of the shifted
standard normal over the exterior support is

    std_exterior_centroid(shift) =
        shift + (std_pdf(ru) - std_pdf(rl)) / (std_tail(ru) + std_cdf(rl))

and the observable-units answer is mu + sigma * std_exterior_centroid.
The derivative of that map in `shift` is strictly positive; its
numerator, after clearing the squared mass denominator, is the
positivity certificate computed by slope_certificate.

When the support mass underflows (denominator < 1e-300) the ratio is
rebuilt in log space from log_std_pdf / log_std_tail, which keeps the
centroid finite essentially without range limits; such results carry the
`deep_truncation` flag.  A merely small denominator (< 1e-12) gets the
`low_support_mass` flag and stays on the direct path.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IntervalError
from .model import CentroidResult, ExcludedInterval, GaussianParams, Method, ShiftComparison, StandardizedProblem
from .special import (
    log_std_cdf,
    log_std_pdf,
    log_std_tail,
    std_cdf,
    std_pdf,
    std_tail,
)

# Below this the direct denominator is useless and the log branch takes over.
DEEP_MASS_FLOOR = 1e-300
# Below this the direct path still works but deserves a condition flag.
LOW_MASS_FLOOR = 1e-12
# Below this, squaring the denominator for the slope would underflow.
_SLOPE_DIRECT_FLOOR = 1e-150

DEEP_TRUNCATION = "deep_truncation"
LOW_SUPPORT_MASS = "low_support_mass"


def _check_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _check_hole(lower: float, upper: float) -> tuple[float, float]:
    lower = _check_finite(lower, "lower")
    upper = _check_finite(upper, "upper")
    if not upper > lower:
        raise IntervalError(f"hole needs upper > lower, got ({lower!r}, {upper!r})")
    return lower, upper


def standardize(
    params: GaussianParams, hole: ExcludedInterval, shift: float
) -> StandardizedProblem:
    """Map an (mu, sigma) problem to standard-normal coordinates."""
    shift = _check_finite(shift, "shift")
    return StandardizedProblem(
        l_hat=(hole.lower - params.mu) / params.sigma,
        u_hat=(hole.upper - params.mu) / params.sigma,
        h_hat=shift / params.sigma,
    )


def _offset_from(f_ru, f_rl, mass):
    """Direct-path centroid offset from the densities at ru, rl and the mass.

    This and the two helpers below hold the closed-form arithmetic once for
    the scalar functions and the array sweeps: they take values already
    evaluated, as floats or as numpy arrays, and return the same bits
    either way.
    """
    return (f_ru - f_rl) / mass


def _certificate_from(x1, x2, f1, f2, m):
    """slope_certificate from std_pdf(x1), std_pdf(x2) and m."""
    d = f1 - f2
    # numpy's ** squares by multiplication, which differs from libm's pow
    # in the last bit on about one input in 1200; float_power calls pow.
    square = np.float_power(d, 2.0) if isinstance(d, np.ndarray) else d**2
    return (x1 * f1 - x2 * f2) * m + m * m - square


def _quotient_slope_from(ru, rl, f_ru, f_rl, m):
    """_slope_quotient_form from the densities at ru, rl and the mass m."""
    ratio = _offset_from(f_ru, f_rl, m)
    return 1.0 + (ru * f_ru - rl * f_rl) / m - ratio * ratio


def _offset_mass_flags(
    shift: float, lower: float, upper: float
) -> tuple[float, float, list[str]]:
    """Centroid offset from `shift`, support mass, and condition flags.

    offset = (std_pdf(ru) - std_pdf(rl)) / mass in standardized units.
    """
    ru = upper - shift
    rl = lower - shift
    mass = std_tail(ru) + std_cdf(rl)
    if mass >= DEEP_MASS_FLOOR:
        offset = _offset_from(std_pdf(ru), std_pdf(rl), mass)
        flags = [LOW_SUPPORT_MASS] if mass < LOW_MASS_FLOOR else []
        return offset, mass, flags

    # Both tail pieces underflow; rebuild the ratio from logarithms.
    log_right = log_std_tail(ru)
    log_left = log_std_cdf(rl)
    hi = max(log_right, log_left)
    log_mass = hi + math.log1p(math.exp(min(log_right, log_left) - hi))
    lf_ru = log_std_pdf(ru)
    lf_rl = log_std_pdf(rl)
    if lf_ru == lf_rl:
        offset = 0.0
    else:
        sign = 1.0 if lf_ru > lf_rl else -1.0
        big, small = (lf_ru, lf_rl) if lf_ru > lf_rl else (lf_rl, lf_ru)
        log_num = big + math.log(-math.expm1(small - big))
        offset = sign * math.exp(log_num - log_mass)
    # exp may flush to zero here; the flag records that the mass is nominal.
    return offset, math.exp(log_mass), [DEEP_TRUNCATION, LOW_SUPPORT_MASS]


def std_exterior_centroid(shift: float, lower: float, upper: float) -> float:
    """Centroid of the shift-translated standard normal outside (lower, upper).

    Strictly increasing in `shift` for any fixed hole; the verification
    sweeps exercise that claim.
    """
    shift = _check_finite(shift, "shift")
    lower, upper = _check_hole(lower, upper)
    offset, _, _ = _offset_mass_flags(shift, lower, upper)
    return shift + offset


def centroid_exterior(
    params: GaussianParams, hole: ExcludedInterval, shift: float
) -> CentroidResult:
    """Closed-form conditional expectation in observable units."""
    problem = standardize(params, hole, shift)
    offset, mass, flags = _offset_mass_flags(
        problem.h_hat, problem.l_hat, problem.u_hat
    )
    value = params.mu + params.sigma * (problem.h_hat + offset)
    return CentroidResult(
        value=value,
        method=Method.CLOSED_FORM,
        support_mass=mass,
        warnings=tuple(flags),
    )


def slope_certificate(x1: float, x2: float) -> float:
    """Certificate whose positivity makes the centroid slope positive.

    certificate(x1, x2) =
        (x1 std_pdf(x1) - x2 std_pdf(x2)) * m + m**2
            - (std_pdf(x1) - std_pdf(x2))**2,
    with m = std_tail(x1) + std_cdf(x2).  The slope of
    std_exterior_centroid at `shift` equals
    certificate(upper - shift, lower - shift) / m**2.
    """
    x1 = _check_finite(x1, "x1")
    x2 = _check_finite(x2, "x2")
    m = std_tail(x1) + std_cdf(x2)
    return _certificate_from(x1, x2, std_pdf(x1), std_pdf(x2), m)


def std_exterior_centroid_slope(shift: float, lower: float, upper: float) -> float:
    """Derivative of std_exterior_centroid with respect to `shift`.

    Strictly positive for every finite input.  Uses the certificate over
    the squared mass while the square is representable, otherwise the
    equivalent 1 + ratio - ratio**2 arrangement in log space.
    """
    shift = _check_finite(shift, "shift")
    lower, upper = _check_hole(lower, upper)
    ru = upper - shift
    rl = lower - shift
    mass = std_tail(ru) + std_cdf(rl)
    if mass >= _SLOPE_DIRECT_FLOOR:
        return slope_certificate(ru, rl) / (mass * mass)

    # mass < 1e-150 forces ru >> 0 and rl << 0, so the first-moment term
    # ru*f(ru) - rl*f(rl) is a sum of two positive magnitudes.
    log_right = log_std_tail(ru)
    log_left = log_std_cdf(rl)
    hi = max(log_right, log_left)
    log_mass = hi + math.log1p(math.exp(min(log_right, log_left) - hi))
    lf_ru = log_std_pdf(ru)
    lf_rl = log_std_pdf(rl)
    la = math.log(ru) + lf_ru
    lb = math.log(-rl) + lf_rl
    top = max(la, lb)
    moment_ratio = math.exp(top + math.log1p(math.exp(min(la, lb) - top)) - log_mass)
    if lf_ru == lf_rl:
        density_ratio = 0.0
    else:
        big, small = (lf_ru, lf_rl) if lf_ru > lf_rl else (lf_rl, lf_ru)
        density_ratio = math.exp(big + math.log(-math.expm1(small - big)) - log_mass)
    return 1.0 + moment_ratio - density_ratio * density_ratio


def _slope_quotient_form(shift: float, lower: float, upper: float) -> float:
    """The 1 + quotient-rule arrangement of the same derivative.

    Algebraically identical to std_exterior_centroid_slope on the direct
    path; kept separate so the verification sweeps can pit the two
    arrangements against each other.
    """
    ru = upper - shift
    rl = lower - shift
    return _quotient_slope_from(
        ru, rl, std_pdf(ru), std_pdf(rl), std_tail(ru) + std_cdf(rl)
    )


def shift_comparison(
    params: GaussianParams, hole: ExcludedInterval, shift: float
) -> ShiftComparison:
    """Centroid before and after translating the density by `shift`.

    delta carries the sign of the shift: translating the density toward
    either ray drags the conditional expectation the same way.
    """
    shift = _check_finite(shift, "shift")
    base = centroid_exterior(params, hole, 0.0)
    shifted = centroid_exterior(params, hole, shift)
    return ShiftComparison(
        base=base,
        shifted=shifted,
        shift=shift,
        delta=shifted.value - base.value,
    )
