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
and numpy has no erfc.  They skip the finiteness check.  They import
numpy on their first call; the scalar functions need only math, so the
closed form runs without numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError, require_finite

if TYPE_CHECKING:
    import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# erfc keeps full precision on the decaying side well past this point;
# beyond it the continued fraction for the Mills ratio takes over.
_MILLS_SWITCH = 33.0
_MILLS_TERMS = 40
# sqrt(pi / 2) correctly rounded, and 1/sqrt(2) - INV_SQRT2.
_SQRT_HALF_PI = 1.2533141373155003
_INV_SQRT2_TAIL = 6.268583589525109e-17
# Veltkamp's splitter 2**27 + 1; it overflows from about 2**996 up.
_SPLITTER = 134217729.0


def std_pdf(x: float) -> float:
    """Density of the standard normal at x.

    Written as exp(-0.5 * (x * x)) so std_pdf(-x) == std_pdf(x) exactly.
    """
    x = require_finite(x, "x")
    return INV_SQRT_2PI * math.exp(-0.5 * (x * x))


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn applied to every element of x, in an array of x's shape."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    # A memoryview yields the elements as Python floats without a list.
    return np.fromiter(map(fn, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def std_pdf_array(x: np.ndarray) -> np.ndarray:
    """std_pdf at every element of x."""
    return INV_SQRT_2PI * _elementwise(math.exp, -0.5 * (x * x))


def std_cdf_array(x: np.ndarray) -> np.ndarray:
    """std_cdf at every element of x."""
    return 0.5 * _elementwise(math.erfc, -x * INV_SQRT2)


def std_tail_array(x: np.ndarray) -> np.ndarray:
    """std_tail at every element of x."""
    return 0.5 * _elementwise(math.erfc, x * INV_SQRT2)


def _tail(x: float) -> float:
    """std_tail, unchecked: erfc(+-inf) is exact, so a distance that
    overflowed to +-inf still gets its tail, 0 or 1."""
    return 0.5 * math.erfc(x * INV_SQRT2)


def std_cdf(x: float) -> float:
    """P(Z <= x) for standard normal Z, accurate in the lower tail."""
    x = require_finite(x, "x")
    return _tail(-x)


def std_tail(x: float) -> float:
    """P(Z >= x) for standard normal Z, accurate in the upper tail."""
    x = require_finite(x, "x")
    return _tail(x)


def log_std_pdf(x: float) -> float:
    """log of std_pdf(x); exact reflection symmetry like std_pdf."""
    x = require_finite(x, "x")
    return -0.5 * (x * x) - _LOG_SQRT_2PI


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """hi + lo == a * b exactly (Dekker 1971), from 26-bit halves of a, b."""
    c, d = _SPLITTER * a, _SPLITTER * b
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    hi = a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _mills_tails(x: float) -> tuple[float, float]:
    """(r1, r2): R(x) = 1 / (x + r1), r_k = k / (x + r_(k+1)), r_41 = 0."""
    r = 0.0
    for k in range(_MILLS_TERMS, 1, -1):
        r = k / (x + r)
    return 1 / (x + r), r


def _mills(x: float) -> float:
    """mills_ratio for either sign of x, unchecked; inf where std_pdf(x)
    underflows.  The rounding errors dsq of x*x and dt of x/sqrt(2), which
    exp and erfc would magnify to x**2 ulps, take one derivative term each:
    erfc(t + dt) = erfc(t) - 2 exp(-t*t) dt / sqrt(pi)."""
    if x >= _MILLS_SWITCH:
        return 1.0 / (x + _mills_tails(x)[0])
    sq, dsq = _two_prod(x, x)
    g = math.exp(-0.5 * sq)
    if not g:
        return math.inf
    t, dt = _two_prod(x, INV_SQRT2)
    dt += x * _INV_SQRT2_TAIL
    return _SQRT_HALF_PI * math.erfc(t) / (g * (1.0 - 0.5 * dsq)) - dt / INV_SQRT2


def mills_ratio(x: float) -> float:
    """std_tail(x) / std_pdf(x) for x > 0, stable for arbitrarily large x.

    Uses the linear-scale quotient while erfc still has full precision and
    the classical continued fraction R(x) = 1 / (x + 1 / (x + 2 / (x + ...)))
    beyond that.  The closed form calls _mills, unchecked, for either sign.
    """
    x = require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"mills_ratio requires x > 0, got {x!r}")
    return _mills(x)


def log_std_tail(x: float) -> float:
    """log of the upper tail probability, usable far past underflow.

    Three regimes:
      x >= 33   log std_pdf plus log of the continued-fraction Mills
                ratio; valid for arbitrarily large x.
      x >= -1   direct log of std_tail, which is well scaled there.
      x < -1    tail is close to 1; log1p on the opposite small tail.
    """
    x = require_finite(x, "x")
    if x >= _MILLS_SWITCH:
        return log_std_pdf(x) + math.log(mills_ratio(x))
    if x >= -1.0:
        return math.log(_tail(x))
    return math.log1p(-_tail(-x))


def log_std_cdf(x: float) -> float:
    """log of the lower tail probability; reflection of log_std_tail."""
    return log_std_tail(-float(x))


def mills_lower_bound_tail(x: float) -> float:
    """Strict lower bound for std_tail(x) / (2 std_pdf(x)).

    Equals 1 / (x + sqrt(x*x + 4)), computed as (sqrt(x*x + 4) - x) / 4
    so no digits cancel when x is large and positive.
    """
    x = require_finite(x, "x")
    return (math.sqrt(x * x + 4.0) - x) / 4.0


def mills_lower_bound_cdf(x: float) -> float:
    """Strict lower bound for std_cdf(x) / (2 std_pdf(x)).

    Mirror image of mills_lower_bound_tail: 1 / (-x + sqrt(x*x + 4)).
    """
    x = require_finite(x, "x")
    return (math.sqrt(x * x + 4.0) + x) / 4.0
