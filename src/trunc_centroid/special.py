"""Standard normal density, tails, and Mills-ratio bounds.

The centroid formulas divide tail probabilities by densities in regimes
where naive expressions cancel or underflow, so both tails are routed
through erfc evaluated on its decaying side:

    std_tail(x) = erfc(x / sqrt(2)) / 2        upper tail Q(x)
    std_cdf(x)  = erfc(-x / sqrt(2)) / 2       lower tail

This keeps full relative accuracy out to |x| ~ 37.5 and makes the
reflection identity std_tail(-x) == std_cdf(x) hold bit for bit.

Log variants extend the usable range far beyond the underflow point of
the linear-scale functions.  log_std_tail switches to a continued
fraction for the Mills ratio once erfc loses precision, so ratios of
astronomically small tail masses remain representable.

The two algebraic tail bounds certify strict inequalities used by the
monotonicity argument:

    std_tail(x) / (2 std_pdf(x)) > 1 / (x + sqrt(x*x + 4))
    std_cdf(x)  / (2 std_pdf(x)) > 1 / (-x + sqrt(x*x + 4))

Both right-hand sides are evaluated in the cancellation-free form
(sqrt(x*x + 4) -/+ x) / 4 so the bound itself never loses digits.

std_pdf_array, std_tail_array and std_cdf_array evaluate the density and
the tails over numpy arrays, element for element the same bits as the
scalar functions: they call math.exp and math.erfc on each element,
because numpy's exp differs from math.exp in the last bit on some inputs
and numpy has no erfc.  They skip the finiteness check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# erfc keeps full precision on the decaying side well past this point;
# beyond it the continued fraction for the Mills ratio takes over.
_MILLS_SWITCH = 33.0
_MILLS_TERMS = 40


def _finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def std_pdf(x: float) -> float:
    """Density of the standard normal at x.

    Written as exp(-0.5 * (x * x)) so std_pdf(-x) == std_pdf(x) exactly.
    """
    x = _finite(x)
    return INV_SQRT_2PI * math.exp(-0.5 * (x * x))


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn applied to every element of x, in an array of x's shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def std_pdf_array(x: np.ndarray) -> np.ndarray:
    """std_pdf at every element of x."""
    return INV_SQRT_2PI * _elementwise(math.exp, -0.5 * (x * x))


def std_cdf_array(x: np.ndarray) -> np.ndarray:
    """std_cdf at every element of x."""
    return 0.5 * _elementwise(math.erfc, -x * INV_SQRT2)


def std_tail_array(x: np.ndarray) -> np.ndarray:
    """std_tail at every element of x."""
    return 0.5 * _elementwise(math.erfc, x * INV_SQRT2)


def std_cdf(x: float) -> float:
    """P(Z <= x) for standard normal Z, accurate in the lower tail."""
    x = _finite(x)
    return 0.5 * math.erfc(-x * INV_SQRT2)


def std_tail(x: float) -> float:
    """P(Z >= x) for standard normal Z, accurate in the upper tail."""
    x = _finite(x)
    return 0.5 * math.erfc(x * INV_SQRT2)


def log_std_pdf(x: float) -> float:
    """log of std_pdf(x); exact reflection symmetry like std_pdf."""
    x = _finite(x)
    return -0.5 * (x * x) - _LOG_SQRT_2PI


def mills_ratio(x: float) -> float:
    """std_tail(x) / std_pdf(x) for x > 0, stable for arbitrarily large x.

    Uses the linear-scale quotient while erfc still has full precision
    and the classical continued fraction

        R(x) = 1 / (x + 1 / (x + 2 / (x + 3 / ...)))

    evaluated backward beyond that.  Inputs must be positive; the ratio
    for x <= 0 is not needed by any caller and the continued fraction
    does not converge there.
    """
    x = _finite(x)
    if x <= 0.0:
        raise DomainError(f"mills_ratio requires x > 0, got {x!r}")
    if x < _MILLS_SWITCH:
        return std_tail(x) / std_pdf(x)
    r = 0.0
    for k in range(_MILLS_TERMS, 0, -1):
        r = k / (x + r)
    return 1.0 / (x + r)


def log_std_tail(x: float) -> float:
    """log of the upper tail probability, usable far past underflow.

    Three regimes:
      x >= 33   log std_pdf plus log of the continued-fraction Mills
                ratio; valid for arbitrarily large x.
      x >= -1   direct log of std_tail, which is well scaled there.
      x < -1    tail is close to 1; log1p on the opposite small tail.
    """
    x = _finite(x)
    if x >= _MILLS_SWITCH:
        return log_std_pdf(x) + math.log(mills_ratio(x))
    if x >= -1.0:
        return math.log(std_tail(x))
    return math.log1p(-std_tail(-x))


def log_std_cdf(x: float) -> float:
    """log of the lower tail probability; reflection of log_std_tail."""
    return log_std_tail(-float(x))


def mills_lower_bound_tail(x: float) -> float:
    """Strict lower bound for std_tail(x) / (2 std_pdf(x)).

    Equals 1 / (x + sqrt(x*x + 4)), computed as (sqrt(x*x + 4) - x) / 4
    so no digits cancel when x is large and positive.
    """
    x = _finite(x)
    return (math.sqrt(x * x + 4.0) - x) / 4.0


def mills_lower_bound_cdf(x: float) -> float:
    """Strict lower bound for std_cdf(x) / (2 std_pdf(x)).

    Mirror image of mills_lower_bound_tail: 1 / (-x + sqrt(x*x + 4)).
    """
    x = _finite(x)
    return (math.sqrt(x * x + 4.0) + x) / 4.0
