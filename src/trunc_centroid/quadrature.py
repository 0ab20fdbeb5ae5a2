"""Quadrature ground truth for the exterior centroid.

This module answers the same question as the closed form but by direct
numerical integration of the defining ratio: first moment over mass on
the exterior support.  It never calls the closed-form machinery.

It works in standardized coordinates t = (x - loc) / sigma, loc = mu +
shift.  Each exterior ray, clipped to the fixed window [-c, c] with c =
TAIL_CUTOFF_SIGMAS = 12, is cut at every integer inside it.  The left
ray [-c, a] runs as its mirror [-a, c], so both rays climb one ladder of
panels to c and a panel they share is evaluated once.  A panel is
QUADPACK's Gauss-Kronrod 7-15 rule (Piessens et al., 1983) for the one
pair (phi(t), t * phi(t)), phi evaluated inline once per node: the
K15/G7 estimates of both integrals and QUADPACK's rescaled |K15 - G7|
** 1.5 error estimator, its sums in one fixed order, so its bits do not
depend on how sum() rounds.  It sums mirror node pairs, and a mirrored
panel's nodes are the nodes negated in reverse order, so the mirror
keeps the mass and errors and negates the moment, bit for bit; fsum
rounds each column once, in any order.  The rule takes node values of
one sign: phi > 0 on the window, and t keeps one sign on a panel, as 0
is among the cuts.  So the rounding floor's sum of w |y| is |sum of w y|
in the same order, bit for bit, as negation is exact: one abs, not 15.

The ray's mass error and moment error, summed over its panels, must each
meet max(ABS_TOL, REL_TOL * |value|), ABS_TOL = 1e-13 and REL_TOL =
1e-12, or ToleranceNotMetError is raised.  So the tolerances apply to
the standardized integrals.  The result maps back once: mass m, capped
at 1, and centroid loc + sigma * r, r = T / m with T the standardized
first moment; a centroid beyond the float range is a DomainError.

What the window leaves out, both tails together, is bounded by two
constants (used only to certify smallness, never added to the value):

    mass beyond c <= 2 * phi(c) / c = 3.6e-33
    |moment| beyond c <= 2 * phi(c) = 4.3e-32

Both lie below ABS_TOL.  With Dm and DT the summed error estimates plus
these remainders, the oracle declines with DeepTruncationError unless
m > Dm: where the hole covers the whole window, and where the window
keeps no more mass than Dm.  Otherwise abs_error_bound bounds |value -
exact centroid| by

    sigma * (DT + |r| * Dm) / (m - Dm) + eps * (|value| + sigma * |r|
        + (1 + S) * (|loc| + sigma * max(|a|, |b|)))

with a, b the standardized hole edges clamped to [-c, c] and S = sum of
phi(e) * |e - r| / m over e = a, b, the ratio's sensitivity to them.  The
first term carries the integration error through the ratio, the second
the rounding of loc, of the edges and of the map back.
"""

from __future__ import annotations

import math
from math import exp
from operator import mul

from .errors import DeepTruncationError, DomainError, ToleranceNotMetError
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

# The window [-c, c] in sigmas, and the tolerances of each ray's
# standardized mass and moment.
TAIL_CUTOFF_SIGMAS = 12.0
ABS_TOL = 1e-13
REL_TOL = 1e-12
# Bounds on the standardized mass and |moment| beyond the window.
MOMENT_REMAINDER = 2.0 * std_pdf(TAIL_CUTOFF_SIGMAS)
MASS_REMAINDER = MOMENT_REMAINDER / TAIL_CUTOFF_SIGMAS


def _rule(ys: list, half: float) -> tuple[float, float]:
    """K15 integral and QUADPACK error estimate from 15 node values of one
    sign, a zero counting for either: the rounding floor's sum of w |y| is
    then |sum of w y|, summed in the same order.

    Mirror nodes are summed in pairs, so a panel mirrored about 0 gives the
    same error and, for an odd integrand, exactly the opposite value.
    """
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


def _kronrod_panel(a: float, b: float) -> tuple[float, float, float, float]:
    """One 7-15 panel on [a, b], which must not straddle 0, for the pair
    phi(t) and t * phi(t), so that each has one sign on it.

    phi is evaluated once per node, with the bits of special.std_pdf.
    Returns (integral of phi, integral of t * phi, error of the first,
    error of the second).
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ts = [center + half * x for x in _NODES]
    fs = [INV_SQRT_2PI * exp(-0.5 * (t * t)) for t in ts]
    value, err = _rule(fs, half)
    moment, moment_err = _rule(list(map(mul, ts, fs)), half)
    return value, moment, err, moment_err


def _integrate(a: float, b: float, panels: dict | None = None, mirrored=False) -> tuple:
    """Composite 7-15 rule over [a, b] for the pair (phi(t), t * phi(t)).

    [a, b] is cut at every integer strictly between a and b, one panel per
    piece, taken by its ends from `panels` or evaluated and stored there.
    Mirrored, it runs over [-b, -a] and negates the moment, the same bits.
    Returns (integral of phi, integral of t * phi, their error estimates),
    each column summed with fsum; ToleranceNotMetError, naming [a, b],
    unless both errors meet max(ABS_TOL, REL_TOL * |value|).
    """
    lo, hi = (-b, -a) if mirrored else (a, b)
    if not hi > lo:
        return 0.0, 0.0, 0.0, 0.0
    cuts = [lo, *range(math.floor(lo) + 1, math.ceil(hi)), hi]
    ends = list(zip(cuts, cuts[1:]))
    panels = {} if panels is None else panels
    panels.update((key, _kronrod_panel(*key)) for key in ends if key not in panels)
    # A list: star-unpacking a map grows a tuple in steps, fragmenting the heap.
    value, moment, err, moment_err = map(math.fsum, zip(*[panels[key] for key in ends]))
    if (err > max(ABS_TOL, REL_TOL * abs(value))
            or moment_err > max(ABS_TOL, REL_TOL * abs(moment))):
        raise ToleranceNotMetError(f"error estimates {err:.3e}, {moment_err:.3e} on "
                                   f"[{a!r}, {b!r}] miss the tolerances")
    return value, -moment if mirrored else moment, err, moment_err


def centroid_quadrature(
    params: GaussianParams, hole: ExcludedInterval, shift: float
) -> CentroidResult:
    """Centroid as the ratio of the integrated moment and mass."""
    loc = require_finite(params.mu + _float(shift), "mu + shift")
    sigma, cut = params.sigma, TAIL_CUTOFF_SIGMAS
    # The standardized hole edges, clamped to the window.
    edges = [min(max((x - loc) / sigma, -cut), cut) for x in (hole.lower, hole.upper)]
    panels: dict = {}  # both rays end at c on the same cuts and share panels
    left = _integrate(-cut, edges[0], panels, mirrored=True)
    right = _integrate(edges[1], cut, panels)
    # The rounded panels can sum past 1.
    mass = min(left[0] + right[0], 1.0)
    d_mass = left[2] + right[2] + MASS_REMAINDER
    if not mass > d_mass:
        raise DeepTruncationError(
            f"the support mass inside the window of +-{TAIL_CUTOFF_SIGMAS!r} sigmas "
            f"(the tail cut-off), {mass!r}, does not exceed its error bound "
            f"{d_mass!r}: the exterior mass lies beyond the window; the quadrature "
            f"oracle declines (the closed form still applies)"
        )
    ratio = (left[1] + right[1]) / mass
    value = loc + sigma * ratio
    if math.isinf(value):
        raise DomainError(f"the centroid overflows the float range, mu + shift = {loc!r}")
    d_moment = left[3] + right[3] + MOMENT_REMAINDER
    spread = (d_moment + abs(ratio) * d_mass) / (mass - d_mass)
    sensitivity = sum(std_pdf(e) * abs(e - ratio) for e in edges) / mass
    inputs = abs(loc) + sigma * max(map(abs, edges))
    rounding = abs(value) + sigma * abs(ratio) + (1.0 + sensitivity) * inputs
    return CentroidResult(
        value=value,
        method=Method.QUADRATURE,
        support_mass=mass,
        warnings=(LOW_SUPPORT_MASS,) if mass < LOW_MASS_FLOOR else (),
        abs_error_bound=sigma * spread + _EPS * rounding,
    )
