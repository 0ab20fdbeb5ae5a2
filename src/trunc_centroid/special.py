"""Standard normal density, tails, Mills ratio and its bounds.

The centroid formulas divide tail probabilities by densities in regimes
where naive expressions cancel or underflow, so both tails are routed
through erfc evaluated on its decaying side:

    std_tail(x) = erfc(x / sqrt(2)) / 2        upper tail Q(x)
    std_cdf(x)  = erfc(-x / sqrt(2)) / 2       lower tail

This keeps full relative accuracy out to |x| ~ 37.5 and makes the
reflection identity std_tail(-x) == std_cdf(x) hold bit for bit.

From x = 4 up, the Mills ratio is R(x) = 1 / (x + r1(x)) and the tail
variance v(x) = Var(Z | Z >= x), with x r1(x) and x*x v(x) each 1 - z
P(z)/Q(z), z = 1/x**2: rationals fitted by tools/make_mills_table.py after
Cody 1969 (Math. Comp. 23).  Where x*x overflows, z = 0 gives r1 = 1/x.

The two algebraic tail bounds certify strict inequalities used by the
monotonicity argument:

    std_tail(x) / (2 std_pdf(x)) > 1 / (x + sqrt(x*x + 4))
    std_cdf(x)  / (2 std_pdf(x)) > 1 / (-x + sqrt(x*x + 4))

The root is hypot(x, 2), which does not overflow, and where the bound
decays it is taken as that reciprocal, so no digits cancel.
"""

from __future__ import annotations

import math

from .errors import DomainError, require_finite

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# From here up R and v come from the fits: (P, Q) pairs, highest power first.
_TABLE_FROM = 4.0
_R1_TABLE = (
    (56981.646025735005, 2150016.5140057807), (1568450.4016683039, 3736335.6100944346),
    (1711341.4270882483, 2010695.5724214185), (578894.9275970075, 471880.3269169649),
    (83227.74415091594, 54735.73846949212), (5625.472743133937, 3238.1594814581154),
    (174.96924395642782, 92.48462197821387), (2.0, 1.0),
)
_VARIANCE_TABLE = (
    (72556.13003268682, 11693409.71197925), (11448514.066278066, 13443185.767233243),
    (10337967.262544762, 5273655.659063961), (2959368.4728412246, 957923.0400041506),
    (366414.44260708324, 89595.58310765102), (21594.351926008214, 4403.449828413643),
    (591.3216453366803, 106.8869408894466), (6.0, 1.0),
)
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


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """hi + lo == a * b exactly (Dekker 1971), from 26-bit halves of a, b."""
    c, d = _SPLITTER * a, _SPLITTER * b
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    hi = a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _fitted(table, x: float) -> float:
    """1 - z P(z)/Q(z), z = 1/x**2, for x >= 4 and one fitted table."""
    z = 1.0 / (x * x)
    p = q = 0.0
    for c, d in table:
        p = p * z + c
        q = q * z + d
    return 1.0 - z * (p / q)


def _r1(x: float) -> float:
    """1/R(x) - x for x >= 4."""
    return _fitted(_R1_TABLE, x) / x


def _tail_variance(x: float, r: float) -> float:
    """v(x) with r = R(x): 1 + x lam - lam**2, lam = 1/r the tail's mean,
    or from 4 up, where that cancels, the fitted x*x v(x) over x*x."""
    if x >= _TABLE_FROM:
        return _fitted(_VARIANCE_TABLE, x) / x / x
    lam = 1.0 / r
    # lam is 0.0 where the density at x underflows: the tail is the line.
    return 1.0 + x * lam - lam * lam if lam else 1.0


def _mills(x: float) -> float:
    """mills_ratio for either sign of x, unchecked; inf where std_pdf(x)
    underflows.  Below 4, the rounding errors dsq of x*x and dt of
    x/sqrt(2), which exp and erfc would magnify to x**2 ulps, take one
    derivative term each: erfc(t + dt) = erfc(t) - 2 exp(-t*t) dt / sqrt(pi)."""
    if x >= _TABLE_FROM:
        return 1.0 / (x + _r1(x))
    sq, dsq = _two_prod(x, x)
    g = math.exp(-0.5 * sq)
    if not g:
        return math.inf
    t, dt = _two_prod(x, INV_SQRT2)
    dt += x * _INV_SQRT2_TAIL
    return _SQRT_HALF_PI * math.erfc(t) / (g * (1.0 - 0.5 * dsq)) - dt / INV_SQRT2


def mills_ratio(x: float) -> float:
    """std_tail(x) / std_pdf(x) for x > 0, stable for arbitrarily large x: the
    erfc quotient below 4, 1 / (x + r1(x)) from the fitted table from 4 up.
    The closed form calls _mills, unchecked, for either sign."""
    x = require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"mills_ratio requires x > 0, got {x!r}")
    return _mills(x)


def log_std_tail(x: float) -> float:
    """log of the upper tail probability, usable far past underflow: log
    std_pdf + log R from 4 up, log std_tail, which is well scaled there,
    down to -1, and below that log1p of the opposite small tail."""
    x = require_finite(x, "x")
    if x >= _TABLE_FROM:
        return (-0.5 * (x * x) - _LOG_SQRT_2PI) + math.log(_mills(x))
    if x >= -1.0:
        return math.log(_tail(x))
    return math.log1p(-_tail(-x))


def mills_lower_bound_tail(x: float) -> float:
    """Strict lower bound 1 / (x + sqrt(x*x + 4)) for std_tail(x) / (2 std_pdf(x))."""
    x = require_finite(x, "x")
    root = math.hypot(x, 2.0)
    return 1.0 / (x + root) if x > 0.0 else (root - x) / 4.0


def mills_lower_bound_cdf(x: float) -> float:
    """Strict lower bound 1 / (-x + sqrt(x*x + 4)) for std_cdf(x) / (2 std_pdf(x))."""
    return mills_lower_bound_tail(-require_finite(x, "x"))
