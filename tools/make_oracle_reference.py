"""Write the 60-digit reference tables of the oracle and closed-form tests.

tests/data/oracle_reference.json holds exact centroids for the oracle
test.  Each problem is a float input (mu, sigma, lower, upper, shift) of
centroid_quadrature, and its reference centroid and exterior mass are
computed from those floats by mpmath at 60 significant digits, then
stored as 30-digit decimal strings.  tests/test_oracle_reference.py reads
only the JSON, so the test needs no mpmath.

Regimes, in standardized units (edges and shift divided by sigma):

    moderate    edges in [-5, 5], shift in [-3, 3]
    wide        edges in [-30, 30], shift in [-10, 10]
    degenerate  a hole 1e-12 to 1e-3 wide inside [-5, 5], shift in [-3, 3]
    scale       moderate problems with sigma from 1e-300 to 1e307 and mu
                a multiple of sigma
    offset      moderate problems with |mu| from 1e3 to 1e9, sigma near 1

tests/data/closed_form_reference.json holds standardized points
(shift, lower, upper) of std_exterior_centroid and its slope, with the
exact centroid and slope (the variance of the exterior law) of those
floats as 30-digit strings, for tests/test_closed_form_reference.py.
About 100 points a regime, edges uniform within the bound, the upper one
a uniform fraction of the way to it, and the shift uniform within its
bound:

    moderate    edges in [-5, 5], shift in [-3, 3]
    wide        edges in [-30, 30], shift in [-10, 10]
    deep        edges in [-200, 200], shift in [-20, 20]
    degenerate  a hole 1e-12 to 1e-3 wide inside [-8, 8], the shift
                within 0.5 of its middle
    far         the holes (-1e5, 5e4), (-1e8, 5e7), (-1e10, 5e9) and
                (-1e160, 5e159) at shift 0
    inside      the shift 4 to 80 inside the hole from its nearer edge,
                which lies within 2 of 0, the far edge 1e-3 to 32 farther
                still (log-uniform), mirrored half the time: the centroid
                is of order 1 where the far edge has no weight

The inside points come last, after the far holes, from the same stream.

The slope is 1 + (a phi(a) + b phi(b))/m - offset**2, with a = upper -
shift, b = shift - lower and m the exterior mass; its terms cancel like
max(a, b)**4, so the working precision grows by four digits a decade.

Run from the root of a checkout (needs mpmath; the output is committed):

    python tools/make_oracle_reference.py
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath

DIGITS = 60
SEED = 6
PER_REGIME = 40
OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "oracle_reference.json"
SCALES = (1e-300, 1e-150, 1e-20, 1e20, 1e200, 1e307)

CLOSED_FORM_OUT = OUT.parent / "closed_form_reference.json"
CLOSED_FORM_SEED = 11
CLOSED_FORM_PER_REGIME = 100
# (edge bound, shift bound) of the standardized point; _problem reads them too.
CLOSED_FORM_REGIMES = {
    "moderate": (5.0, 3.0),
    "wide": (30.0, 10.0),
    "deep": (200.0, 20.0),
    "degenerate": (8.0, 0.5),
}
FAR_HOLES = ((-1e5, 5e4), (-1e8, 5e7), (-1e10, 5e9), (-1e160, 5e159))


def _problem(rng: random.Random, regime: str) -> dict:
    if regime == "degenerate":
        edge, shift_bound = CLOSED_FORM_REGIMES["moderate"]
        l = rng.uniform(-edge, edge)
        u = l + 10.0 ** rng.uniform(-12.0, -3.0)
        h = rng.uniform(-shift_bound, shift_bound)
    else:
        # One edge uniform, the other a uniform fraction of the way to the
        # far bound, as in the benchmark's oracle problems.
        point = _point(rng, "wide" if regime == "wide" else "moderate")
        h, l, u = point["shift"], point["lower"], point["upper"]
    t_mu = rng.uniform(-1.0, 1.0)
    if regime == "scale":
        sigma = rng.choice(SCALES) * 2.0 ** rng.uniform(-1.0, 0.0)
        mu = t_mu * sigma
    elif regime == "offset":
        sigma = 2.0 ** rng.uniform(-1.0, 1.0)
        mu = math.copysign(10.0 ** rng.uniform(3.0, 9.0), t_mu)
    else:
        sigma = 2.0 ** rng.uniform(-1.0, 1.0)
        mu = 2.0 * t_mu
    lower = mu + sigma * l
    upper = mu + sigma * u
    if not upper > lower:
        upper = math.nextafter(lower, math.inf)
    return {"regime": regime, "mu": mu, "sigma": sigma, "lower": lower,
            "upper": upper, "shift": sigma * h}


def _reference(p: dict) -> tuple[str, str]:
    """(centroid, exterior mass) of the float inputs, as decimal strings."""
    mpf = mpmath.mpf
    loc = mpf(p["mu"]) + mpf(p["shift"])
    sigma = mpf(p["sigma"])
    a = (mpf(p["lower"]) - loc) / sigma
    b = (mpf(p["upper"]) - loc) / sigma
    mass = mpmath.ncdf(a) + mpmath.ncdf(-b)
    # The standardized first moment of the two rays is phi(b) - phi(a).
    centroid = loc + sigma * (mpmath.npdf(b) - mpmath.npdf(a)) / mass
    return mpmath.nstr(centroid, 30, min_fixed=1, max_fixed=0), mpmath.nstr(
        mass, 30, min_fixed=1, max_fixed=0
    )


def _point(rng: random.Random, regime: str) -> dict:
    if regime == "inside":
        u = rng.uniform(-2.0, 2.0)
        h = u - rng.uniform(4.0, 80.0)
        l = h - (u - h) - 10.0 ** rng.uniform(-3.0, 1.5)
        if rng.random() < 0.5:
            h, l, u = -h, -u, -l
        return {"regime": regime, "shift": h, "lower": l, "upper": u}
    edge, shift_bound = CLOSED_FORM_REGIMES[regime]
    l = rng.uniform(-edge, edge)
    if regime == "degenerate":
        u = l + 10.0 ** rng.uniform(-12.0, -3.0)
        h = 0.5 * (l + u) + rng.uniform(-shift_bound, shift_bound)
    else:
        u = rng.uniform(l, edge)
        if not u > l:
            u = l + 1e-3
        h = rng.uniform(-shift_bound, shift_bound)
    return {"regime": regime, "shift": h, "lower": l, "upper": u}


def _upper_tail(x):
    """P(Z >= x) from the incomplete gamma function, whose argument check
    does not overflow at the far holes as mpmath.ncdf's does."""
    q = mpmath.gammainc(0.5, x * x / 2) / (2 * mpmath.sqrt(mpmath.pi))
    return q if x >= 0 else 1 - q


def _closed_form_reference(p: dict) -> tuple[str, str]:
    """(centroid, slope) of the float point, as decimal strings."""
    h, l, u = (mpmath.mpf(p[k]) for k in ("shift", "lower", "upper"))
    size = max(abs(u - h), abs(h - l), 1)
    with mpmath.workdps(DIGITS + 4 * int(mpmath.log10(size))):
        a, b = u - h, h - l
        mass = _upper_tail(a) + _upper_tail(b)
        offset = (mpmath.npdf(a) - mpmath.npdf(b)) / mass
        second = 1 + (a * mpmath.npdf(a) + b * mpmath.npdf(b)) / mass
        centroid, slope = h + offset, second - offset**2
    return (
        mpmath.nstr(centroid, 30, min_fixed=1, max_fixed=0),
        mpmath.nstr(slope, 30, min_fixed=1, max_fixed=0),
    )


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    rng = random.Random(f"oracle-reference:{SEED}")
    problems = []
    with mpmath.workdps(DIGITS):
        for regime in ("moderate", "wide", "degenerate", "scale", "offset"):
            for _ in range(PER_REGIME):
                p = _problem(rng, regime)
                p["centroid"], p["mass"] = _reference(p)
                problems.append(p)
    payload = {
        "generator": "tools/make_oracle_reference.py",
        "mpmath": mpmath.__version__,
        "digits": DIGITS,
        "seed": SEED,
        "problems": problems,
    }
    _write(OUT, payload)
    print(f"wrote {len(problems)} problems to {OUT}")

    rng = random.Random(f"closed-form-reference:{CLOSED_FORM_SEED}")
    points = [
        _point(rng, regime)
        for regime in CLOSED_FORM_REGIMES
        for _ in range(CLOSED_FORM_PER_REGIME)
    ]
    points += [
        {"regime": "far", "shift": 0.0, "lower": l, "upper": u} for l, u in FAR_HOLES
    ]
    points += [_point(rng, "inside") for _ in range(CLOSED_FORM_PER_REGIME)]
    with mpmath.workdps(DIGITS):
        for p in points:
            p["centroid"], p["slope"] = _closed_form_reference(p)
    _write(
        CLOSED_FORM_OUT,
        {
            "generator": "tools/make_oracle_reference.py",
            "mpmath": mpmath.__version__,
            "digits": DIGITS,
            "seed": CLOSED_FORM_SEED,
            "points": points,
        },
    )
    print(f"wrote {len(points)} points to {CLOSED_FORM_OUT}")


if __name__ == "__main__":
    main()
