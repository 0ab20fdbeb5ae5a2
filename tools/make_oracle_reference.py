"""Write tests/data/oracle_reference.json: exact centroids for the oracle test.

Each problem is a float input (mu, sigma, lower, upper, shift) of
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


def _problem(rng: random.Random, regime: str) -> dict:
    edge, shift_bound = {"wide": (30.0, 10.0)}.get(regime, (5.0, 3.0))
    if regime == "degenerate":
        l = rng.uniform(-edge, edge)
        u = l + 10.0 ** rng.uniform(-12.0, -3.0)
    else:
        # One edge uniform, the other a uniform fraction of the way to the
        # far bound, as in the benchmark's oracle problems.
        l = rng.uniform(-edge, edge)
        u = rng.uniform(l, edge)
        if not u > l:
            u = l + 1e-3
    h = rng.uniform(-shift_bound, shift_bound)
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
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(problems)} problems to {OUT}")


if __name__ == "__main__":
    main()
