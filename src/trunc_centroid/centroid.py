"""Closed-form centroid of a Gaussian conditioned outside an interval.

In standardized coordinates, with a = upper - shift and b = shift - lower
mirrored so that a <= b (a is the nearer edge, negative when the shift
lies beyond it), the centroid of the shifted standard normal outside the
hole is shift + (std_pdf(a) - std_pdf(b)) / (std_tail(a) + std_tail(b)).
Divided by std_pdf(a) that is

    offset = (1 - e) / (R(a) + e R(b)),  e = exp(-(b - a)(b + a) / 2) <= 1,

R the Mills ratio, negated when mirrored; nothing in it underflows.
b - a, b + a and their product are formed in double-double, so e keeps
its relative accuracy near the middle of a wide hole.  From a = 4 up, so
that a deep shift cannot cancel against the offset, the centroid is taken
from the nearer edge (u, or l mirrored), with lam = 1/R = x + r1 fitted:

    centroid - edge = (r1(a) - e lam(a) (1 + a/lam(b))) / (1 + e lam(a)/lam(b)),

in observable units the observable edge + sigma (centroid - edge), which
keeps a small centroid of a huge mu; below 4 mu + sigma * centroid.  A
centroid, or a shift of it, beyond the float range is a DomainError.

The shift is the natural parameter of the exterior law, so the slope is
that law's variance.  slope_certificate is the paper's form of the same
slope's numerator; the verification sweeps test its positivity.
A result carries `low_support_mass` below an exterior mass of 1e-12
(model.LOW_MASS_FLOOR), as the oracle's results do.
"""

from __future__ import annotations

import math

from .errors import DomainError, IntervalError, require_finite
from .model import LOW_MASS_FLOOR, LOW_SUPPORT_MASS  # re-exported here
from .model import CentroidResult, ExcludedInterval, GaussianParams, Method, ShiftComparison
from .special import _TABLE_FROM, _mills, _r1, _tail, _tail_variance, _two_prod, std_pdf

# exp(-x) is 0.0 from x of about 745 up.
_EXP_CAP = 800.0
# Dekker's product splits its factors, which overflows from about 2**996.
_SPLIT_MAX = 2.0**990


def _check_point(
    shift: float, lower: float, upper: float, names=("shift", "lower", "upper")
) -> tuple[float, float, float]:
    """The point as floats: DomainError unless all three are finite,
    IntervalError unless upper > lower."""
    shift = require_finite(shift, names[0])
    lower = require_finite(lower, names[1])
    upper = require_finite(upper, names[2])
    if not upper > lower:
        raise IntervalError(
            f"hole needs {names[2]} > {names[1]}, got ({lower!r}, {upper!r})"
        )
    return shift, lower, upper


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """s + err == a + b exactly, s the rounded sum (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _edges(h: float, l: float, u: float):
    """(sign, a, b, e, 1 - e), sign -1.0 where the nearer edge is the lower one."""
    a, b, sign = u - h, h - l, 1.0
    # (b - a)/2 = h - (l + u)/2 and (b + a)/2 = (u - l)/2 in double-double;
    # halves overflow only where b - a does, and x is then inf or nan.
    m, m_err = _two_sum(0.5 * l, 0.5 * u)
    s, s_err = _two_sum(0.5 * u, -0.5 * l)
    d, d_err = _two_sum(h, -m)
    # Renormalized: where h is near m, d_err - m_err can exceed d itself.
    d, d_err = _two_sum(d, d_err - m_err)
    # a and b round equal when b - a is below their ulp, and d is nan when
    # b - a overflows.
    if a > b or d + d_err < 0.0:
        a, b, sign, d, d_err = b, a, -1.0, -d, -d_err
    x = 2.0 * d * s  # (b - a)(b + a)/2
    if not x < _EXP_CAP:
        return sign, a, b, 0.0, 1.0
    x_err = 0.0
    if abs(d) < _SPLIT_MAX and s < _SPLIT_MAX:
        x, x_err = _two_prod(2.0 * d, s)
    x_err += 2.0 * (d * s_err + d_err * s)
    # exp(-(x + x_err)) = exp(-x) (1 - x_err), to first order.
    g = math.exp(-x)
    return sign, a, b, g - g * x_err, g * x_err - math.expm1(-x)


def _offset(h: float, l: float, u: float):
    """(sign, near, offset): the centroid is h + sign * offset, or where near
    (a >= 4) the nearer edge, u if sign is 1.0 and l if -1.0, + sign * offset."""
    sign, a, b, e, one_minus_e = _edges(h, l, u)
    if a < _TABLE_FROM:
        rb = _mills(b) if e else 0.0
        return sign, False, one_minus_e / (_mills(a) + e * rb)
    r1 = _r1(a)
    if not e:
        return sign, True, r1
    # ((r1 - w) lam(b) - w a) / (lam(b) + w), w = e lam(a); halved, m cannot overflow.
    lam_b, w = b + _r1(b), e * (a + r1)
    m = 0.5 * lam_b + 0.5 * w
    return sign, True, (r1 - w) * (0.5 * lam_b / m) - w * (0.5 * a / m)


def std_exterior_centroid(shift: float, lower: float, upper: float) -> float:
    """Centroid of the shift-translated standard normal outside (lower, upper).

    The exact function is strictly increasing in `shift` for any fixed
    hole; the verification sweeps exercise that claim.  The float result
    need not be: two shifts closer than the centroid's rounding can give
    equal values or values in the wrong order.
    """
    shift, lower, upper = _check_point(shift, lower, upper)
    sign, near, offset = _offset(shift, lower, upper)
    origin = (upper if sign > 0.0 else lower) if near else shift
    return origin + sign * offset


def centroid_exterior(
    params: GaussianParams, hole: ExcludedInterval, shift: float
) -> CentroidResult:
    """Closed-form conditional expectation in observable units."""
    mu, sigma = params.mu, params.sigma
    # edge - mu may overflow where edge/sigma - mu/sigma does not; a
    # finite sigma can still overflow h, l or u, or round l and u equal.
    l, u = (
        (x - mu) / sigma if math.isfinite(x - mu) else x / sigma - mu / sigma
        for x in (hole.lower, hole.upper)
    )
    h, l, u = _check_point(
        require_finite(shift, "shift") / sigma, l, u, ("h_hat", "l_hat", "u_hat")
    )
    # u - h or h - l may overflow; their tails are then exactly 0 or 1.
    mass = _tail(u - h) + _tail(h - l)
    sign, near, offset = _offset(h, l, u)
    origin, base = ((hole.upper if sign > 0.0 else hole.lower), 0.0) if near else (mu, h)
    value = origin + sigma * (base + sign * offset)
    if math.isinf(value):
        raise DomainError(
            f"the centroid overflows the float range, mu + shift = {mu + shift!r}"
        )
    return CentroidResult(
        value=value,
        method=Method.CLOSED_FORM,
        support_mass=mass,
        warnings=(LOW_SUPPORT_MASS,) if mass < LOW_MASS_FLOOR else (),
    )


def _certificate_from(x1, x2, f1, f2, m):
    """slope_certificate from std_pdf(x1), std_pdf(x2) and m, as floats or
    as arrays, with the same bits either way."""
    d = f1 - f2
    return (x1 * f1 - x2 * f2) * m + m * m - d * d


def slope_certificate(x1: float, x2: float) -> float:
    """Certificate whose positivity makes the centroid slope positive.

    certificate(x1, x2) =
        (x1 std_pdf(x1) - x2 std_pdf(x2)) * m + m**2
            - (std_pdf(x1) - std_pdf(x2))**2,
    with m = std_tail(x1) + std_cdf(x2).  The slope of
    std_exterior_centroid at `shift` equals
    certificate(upper - shift, lower - shift) / m**2.
    """
    x1 = require_finite(x1, "x1")
    x2 = require_finite(x2, "x2")
    m = _tail(x1) + _tail(-x2)
    return _certificate_from(x1, x2, std_pdf(x1), std_pdf(x2), m)


def std_exterior_centroid_slope(shift: float, lower: float, upper: float) -> float:
    """Derivative of std_exterior_centroid with respect to `shift`.

    The variance of the exterior law by the law of total variance, w_a v(a)
    + w_b v(b) + w_a w_b (lam(a) + lam(b))**2: the tails have weights w,
    variances v and means lam(a) and -lam(b), lam = 1/R; w_b/w_a = e R(b)/R(a).
    """
    shift, lower, upper = _check_point(shift, lower, upper)
    _, a, b, e, _ = _edges(shift, lower, upper)
    ra, rb = _mills(a), _mills(b) if e else 0.0
    t = e * rb / ra
    if not t:
        return _tail_variance(a, ra)
    # spread / (1 + t) first: spread squared overflows where the variance does not.
    q = (1.0 / ra + 1.0 / rb) / (1.0 + t)
    within = (_tail_variance(a, ra) + t * _tail_variance(b, rb)) / (1.0 + t)
    return within + t * q * q


def shift_comparison(
    params: GaussianParams, hole: ExcludedInterval, shift: float
) -> ShiftComparison:
    """Centroid before and after translating the density by `shift`.

    The exact delta carries the sign of the shift: translating the density
    toward either ray drags the conditional expectation the same way.  The
    float delta can be 0 or have the wrong sign where it lies within the
    two centroids' rounding: `compare --mu 0.1865150373949822 --sigma 1
    --lower=-2.9412845306127644 --upper 0.5980417398300539 --shift
    2.252225287591326e-16` prints `delta: -2.2204460492503131e-16`.
    """
    base = centroid_exterior(params, hole, 0.0)
    shifted = centroid_exterior(params, hole, shift)
    delta = shifted.value - base.value
    if math.isinf(delta):
        raise DomainError(
            f"the centroid moves by more than the float range, shift = {shift!r}"
        )
    return ShiftComparison(
        base=base,
        shifted=shifted,
        shift=float(shift),
        delta=delta,
    )
