"""Quadrature ground truth for the exterior centroid.

This module answers the same question as the closed form by integrating
the exterior mass numerically.  It never calls the closed-form machinery.

It works in standardized coordinates t = (x - loc) / sigma, loc = mu +
shift, with a, b the hole edges clamped to the window [-c, c], c =
TAIL_CUTOFF_SIGMAS = 12.  The first moment is exact: -phi is an
antiderivative of t * phi(t), so the rays [-c, a] and [b, c] have moment
T = phi(b) - phi(a), their phi(+-c) terms cancelling.  The mass is cut
at every integer inside each ray; phi is even, so the left ray runs as
its mirror [-a, c], both rays climb one ladder of panels to c and a
shared panel is evaluated once.  A panel is QUADPACK's Gauss-Kronrod
7-15 rule (Piessens et al., 1983) for phi, evaluated inline once per
node, with its rescaled |K15 - G7| ** 1.5 error estimate, its sums in
one fixed order, so its bits do not depend on how sum() rounds.  It sums
mirror node pairs, and a mirrored panel's nodes are its nodes negated in
reverse order, so the mirror keeps its bits; fsum rounds each column
once, in any order.  phi > 0, so the rounding floor's sum of w |y| is
|sum of w y|: one abs, not 15.

The result maps back once: mass m, capped at 1, and centroid loc +
sigma * r, r = T / m; a centroid beyond the float range is a DomainError.
The window leaves out at most 2 phi(c) / c = 3.6e-33 of mass and 2 phi(c)
= 4.3e-32 of |moment|.  With Dm the summed estimates plus 3.6e-33, the
oracle has one rule: it answers where m > Dm, with abs_error_bound below,
which carries Dm, and declines with DeepTruncationError where m <= Dm.
Every ray is [x, c] cut at the integers, so its estimate depends on x
alone; scanned over x it peaks at 1.11e-14, so no ray needs a tolerance
of its own (tests/test_quadrature.py holds it to 1.2e-14).

T rounds in its two phi and one subtraction.  In INV_SQRT_2PI * exp(-0.5
* (e * e)), e * e rounds by eps/2 of itself, which exp turns into e^2/4
eps; libm's exp is within one ulp, eps; the constant (0.57 of eps/2 off)
and the product round by eps/2 each; the subtraction adds eps/2 of |T|
<= phi(a) + phi(b).  So, to first order, with |e| <= c, T is within

    DT = 2 phi(c) + (c^2/4 + 5/2) eps (phi(a) + phi(b))

of the exact moment at the rounded, unclamped edges.  abs_error_bound,
the bound on |value - exact centroid|, is

    sigma * (DT + |r| * Dm) / (m - Dm) + eps * (|value| + sigma * |r|
        + (1 + S) * (|loc| + sigma * max(|a|, |b|)))

with S = sum of phi(e) * |e - r| / m over e = a, b, the ratio's
sensitivity to the edges.  The first term carries the mass's integration
error and T's rounding, the second the rounding of loc, of the edges and
of the map back.  A panel's nodes come from its rounded center and
half-width, so the mass is integrated between ends a little off the
cuts, while T is taken at the edges themselves.  That rounding of the
mass is left to the edge term, eps * (1 + S) * sigma * max(|a|, |b|).
"""

from __future__ import annotations

import math
from math import exp

from .errors import DeepTruncationError, DomainError
from .errors import _float, require_finite
from .model import LOW_MASS_FLOOR, LOW_SUPPORT_MASS
from .model import CentroidResult, ExcludedInterval, GaussianParams, Method
from .special import INV_SQRT_2PI, std_pdf

# 15-point Kronrod abscissae on [0, 1); even indices interleave the
# 7-point Gauss rule whose nodes are xgk[1], xgk[3], xgk[5] and 0.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.022935322010529224, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.2044329400752989, 0.20948214108472782,
)
_WG = (
    0.12948496616886969, 0.2797053914892766, 0.3818300505051189,
    0.4179591836734694,
)

# The 15 nodes on [-1, 1] in ascending order.
_NODES = tuple(-x for x in _XGK[:7]) + _XGK[7:] + _XGK[6::-1]

_EPS = 2.220446049250313e-16

# The window [-c, c] in sigmas.
TAIL_CUTOFF_SIGMAS = 12.0
# Bounds on the standardized mass and |moment| beyond the window.
MOMENT_REMAINDER = 2.0 * std_pdf(TAIL_CUTOFF_SIGMAS)
MASS_REMAINDER = MOMENT_REMAINDER / TAIL_CUTOFF_SIGMAS
# The rounding of T, per phi(a) + phi(b): (c^2/4 + 5/2) eps.
_MOMENT_ROUNDING = (0.25 * TAIL_CUTOFF_SIGMAS**2 + 2.5) * _EPS


def _rule(ys: list, half: float) -> tuple[float, float]:
    """K15 integral and QUADPACK error estimate from 15 node values of one
    sign, a zero counting for either: the rounding floor's sum of w |y| is
    then |sum of w y|, summed in the same order.  Mirror nodes are summed
    in pairs, so for an even integrand a panel mirrored about 0 gives the
    same bits."""
    y0, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14 = ys
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    p0, p1, p2, p3 = y0 + y14, y1 + y13, y2 + y12, y3 + y11
    p4, p5, p6 = y4 + y10, y5 + y9, y6 + y8
    resk = w7 * y7 + (w0 * p0 + w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6)
    resg = _WG[3] * y7 + _WG[0] * p1 + _WG[1] * p3 + _WG[2] * p5
    m = 0.5 * resk
    resabs = abs(w7 * y7 + w0 * p0 + w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6)
    resasc = (w7 * abs(y7 - m) + w0 * (abs(y0 - m) + abs(y14 - m))
              + w1 * (abs(y1 - m) + abs(y13 - m)) + w2 * (abs(y2 - m) + abs(y12 - m))
              + w3 * (abs(y3 - m) + abs(y11 - m)) + w4 * (abs(y4 - m) + abs(y10 - m))
              + w5 * (abs(y5 - m) + abs(y9 - m)) + w6 * (abs(y6 - m) + abs(y8 - m)))
    err = abs((resk - resg) * half)
    resasc *= half
    if resasc != 0.0 and err != 0.0:
        scale = (200.0 * err / resasc) ** 1.5
        err = resasc * scale if scale < 1.0 else resasc
    floor = 50.0 * _EPS * resabs * half
    return resk * half, floor if floor > err else err


def _kronrod_panel(a: float, b: float) -> tuple[float, float]:
    """The 7-15 rule for phi on [a, b], phi evaluated once per node with
    the bits of special.std_pdf: (integral, error estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ts = [center + half * x for x in _NODES]
    return _rule([INV_SQRT_2PI * exp(-0.5 * (t * t)) for t in ts], half)


def _integrate(a: float, b: float, panels: dict | None = None) -> tuple[float, float]:
    """Composite 7-15 rule for phi over [a, b]: (integral, error estimate),
    each the fsum of its panels'.  [a, b] is cut at every integer strictly
    inside it, one panel a piece, taken by its ends from `panels` or
    evaluated and stored there."""
    if not b > a:
        return 0.0, 0.0
    cuts = [a, *range(math.floor(a) + 1, math.ceil(b)), b]
    ends = list(zip(cuts, cuts[1:]))
    panels = {} if panels is None else panels
    panels.update((key, _kronrod_panel(*key)) for key in ends if key not in panels)
    # A list: star-unpacking a map grows a tuple in steps, fragmenting the heap.
    return tuple(map(math.fsum, zip(*[panels[key] for key in ends])))


def centroid_quadrature(
    params: GaussianParams, hole: ExcludedInterval, shift: float
) -> CentroidResult:
    """Centroid as the ratio of the exact moment and the integrated mass."""
    loc = require_finite(params.mu + _float(shift), "mu + shift")
    sigma, cut = params.sigma, TAIL_CUTOFF_SIGMAS
    # The standardized hole edges, clamped to the window, and phi there.
    edges = [min(max((x - loc) / sigma, -cut), cut) for x in (hole.lower, hole.upper)]
    pdfs = [INV_SQRT_2PI * exp(-0.5 * (e * e)) for e in edges]
    panels: dict = {}  # both rays end at c on the same cuts and share panels
    left = _integrate(-edges[0], cut, panels)  # [-c, a] as its mirror [-a, c]
    right = _integrate(edges[1], cut, panels)
    # The rounded panels can sum past 1.
    mass = min(left[0] + right[0], 1.0)
    d_mass = left[1] + right[1] + MASS_REMAINDER
    if not mass > d_mass:
        raise DeepTruncationError(
            f"the support mass inside the window of +-{TAIL_CUTOFF_SIGMAS!r} sigmas "
            f"(the tail cut-off), {mass!r}, does not exceed its error bound "
            f"{d_mass!r}: the exterior mass lies beyond the window; the quadrature "
            f"oracle declines (the closed form still applies)"
        )
    ratio = (pdfs[1] - pdfs[0]) / mass
    value = loc + sigma * ratio
    if math.isinf(value):
        raise DomainError(f"the centroid overflows the float range, mu + shift = {loc!r}")
    d_moment = MOMENT_REMAINDER + _MOMENT_ROUNDING * (pdfs[0] + pdfs[1])
    spread = (d_moment + abs(ratio) * d_mass) / (mass - d_mass)
    sensitivity = sum(p * abs(e - ratio) for e, p in zip(edges, pdfs)) / mass
    inputs = abs(loc) + sigma * max(map(abs, edges))
    rounding = abs(value) + sigma * abs(ratio) + (1.0 + sensitivity) * inputs
    return CentroidResult(
        value=value,
        method=Method.QUADRATURE,
        support_mass=mass,
        warnings=(LOW_SUPPORT_MASS,) if mass < LOW_MASS_FLOOR else (),
        abs_error_bound=sigma * spread + _EPS * rounding,
    )
