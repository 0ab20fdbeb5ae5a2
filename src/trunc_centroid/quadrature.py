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
shared panel is evaluated once.  A panel is the 15-point Kronrod rule
(K15) for phi, evaluated inline and summed over mirror node pairs in one
fixed order: its bits do not depend on how sum() rounds, and a mirrored
panel, its nodes negated in reverse order, keeps them; fsum rounds once.

K15 is exact to degree 22 with positive weights, so on [-1, 1] it misses
by at most 4 times the distance to the degree-22 Chebyshev truncation,
2 M rho^-22 / (rho - 1) for |integrand| <= M on the Bernstein ellipse
E_rho (Trefethen, ATAP, 2013, Thm 8.2).  Around the unit panel [k, k +
1], E_rho reaches down to real part k + 1/2 - a_rho/2 and out to
imaginary part b_rho/2, a_rho, b_rho = (rho +- 1/rho) / 2, so M =
phi(max(0, k + 1/2 - a_rho/2)) exp(b_rho^2 / 8); times the half-width
1/2, the panel misses by U_k = 4 M rho^-22 / (rho - 1), minimised over
rho.  A panel [a, b] inside [k, k + 1] has its ellipse inside that one,
so it misses by (b - a) U_k.

Rounding (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
ch. 3; to first order, u = eps/2, F = max(|a|, |b|)) adds a relative
error to each node value.  The center and half-width round by u |center|
and u half, which moves the panel's ends and nodes by up to u F; the
abscissa, its product with half <= 1/2 and the sum move a node by up to
u (F + 1) more; a move d of t moves phi(t) by |t| d, relative.  t * t,
exp, the constant and the product add u (F^2/2 + 4), as for T below;
the weights and the half-width u each; the ten roundings of a term in
the K15 sum and its scaling 10 u; the rays' fsum and sum 2 u.  All terms
are positive, so a panel is within (b - a) U_k + (1.25 F^2 + 0.5 F + 9)
eps * value of the mass between its cuts, its ends' shift included (a
panel under 2^-1021 long rounds more, but holds under 1e-308).

The result maps back once: mass m, capped at 1, and centroid loc +
sigma * r, r = T / m; a centroid beyond the float range is a DomainError.
The window leaves out at most 2 phi(c) / c = 3.6e-33 of mass and 2 phi(c)
= 4.3e-32 of |moment|.  With Dm the summed panel bounds plus 3.6e-33, the
oracle answers where m > Dm, with abs_error_bound below, which carries
Dm, and declines with DeepTruncationError where m <= Dm.

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
sensitivity to the edges.  The first term carries the mass's error
bound and T's rounding, the second the rounding of loc, of the edges and
of the map back.
"""

from __future__ import annotations

import math
from math import exp

from .errors import DeepTruncationError, DomainError
from .errors import _float, require_finite
from .model import LOW_MASS_FLOOR, LOW_SUPPORT_MASS
from .model import CentroidResult, ExcludedInterval, GaussianParams, Method
from .special import INV_SQRT_2PI, std_pdf

# 15-point Kronrod abscissae on [0, 1) and their weights.
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993944,
        0.5860872354676911, 0.4058451513773972, 0.2077849550078985, 0.0)
_WGK = (0.022935322010529224, 0.06309209262997855, 0.10479001032225018, 0.14065325971552592,
        0.1690047266392679, 0.19035057806478542, 0.2044329400752989, 0.20948214108472782)
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
# U_k, k = 0..11: K15's error on the unit panel [k, k + 1], rounded up.
_UNIT_BOUNDS = (4.86e-25,) * 5 + (3.11e-25, 3.76e-26, 9.67e-28, 6.1e-30, 1.04e-32, 5e-36, 7.26e-40)


def _rule(ys: list, half: float) -> float:
    """K15 integral from 15 node values.  Mirror nodes are summed in pairs,
    so for an even integrand a panel mirrored about 0 gives the same bits."""
    y0, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14 = ys
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    p0, p1, p2, p3 = y0 + y14, y1 + y13, y2 + y12, y3 + y11
    p4, p5, p6 = y4 + y10, y5 + y9, y6 + y8
    resk = w7 * y7 + (w0 * p0 + w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6)
    return resk * half


def _kronrod_panel(a: float, b: float) -> tuple[float, float]:
    """K15 for phi on [a, b], inside a unit panel of the window, phi with the
    bits of special.std_pdf: (integral, error bound).  a and b have one
    sign, so max(a, -b) and max(-a, b) are the nearer and farther |end|."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ts = [center + half * x for x in _NODES]
    value = _rule([INV_SQRT_2PI * exp(-0.5 * (t * t)) for t in ts], half)
    far = max(-a, b)
    rounding = (1.25 * far * far + 0.5 * far + 9.0) * _EPS * value
    return value, (b - a) * _UNIT_BOUNDS[int(max(a, -b))] + rounding


def _integrate(a: float, b: float, panels: dict | None = None) -> tuple[float, float]:
    """Composite K15 rule for phi over [a, b]: (integral, error bound),
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
    mass = min(left[0] + right[0], 1.0)  # the rounded panels can sum past 1
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
