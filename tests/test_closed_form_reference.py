"""The closed form and its slope against 60-digit references, regime by regime.

tests/data/closed_form_reference.json is written by
tools/make_oracle_reference.py (mpmath 1.3.0): standardized float points
(shift, lower, upper) and the exact centroid and slope of those floats,
as 30-digit decimal strings.  The test reads only the JSON, so it needs
no mpmath.  Errors are compared exactly, as fractions.

The centroid error is counted in ulps of max(|c|, 1), c the exact
centroid.  The slope error is relative, to the exact slope or to the
smallest normal double where the slope is below it: one far hole has a
slope of 4e-320, a subnormal with a dozen significant bits.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from trunc_centroid.centroid import (
    centroid_exterior,
    std_exterior_centroid,
    std_exterior_centroid_slope,
)
from trunc_centroid.model import ExcludedInterval, GaussianParams
from trunc_centroid.special import std_tail

TABLE = json.loads(
    (Path(__file__).parent / "data" / "closed_form_reference.json").read_text(
        encoding="utf-8"
    )
)

# (centroid ulps, slope relative error): twice the largest error of the
# closed form on the regime's points, rounded up; inside, where the shift
# lies 4 to 80 inside the hole, 4 ulps and 1e-15 (2.8 ulps and 5.6e-16).
BOUNDS = {
    "moderate": (4, 4e-14),
    "wide": (6, 2e-13),
    "deep": (1, 3e-15),
    "degenerate": (1, 6e-16),
    "far": (1, 2e-16),
    "inside": (4, 1e-15),
}


def test_table_covers_every_regime():
    regimes = [p["regime"] for p in TABLE["points"]]
    assert TABLE["digits"] == 60
    assert {r: regimes.count(r) for r in BOUNDS} == {
        "moderate": 100, "wide": 100, "deep": 100, "degenerate": 100, "far": 4,
        "inside": 100,
    }


@pytest.mark.parametrize("regime", sorted(BOUNDS))
def test_closed_form_within_bounds(regime):
    max_ulps, max_rel = BOUNDS[regime]
    for p in TABLE["points"]:
        if p["regime"] != regime:
            continue
        point = (p["shift"], p["lower"], p["upper"])
        centroid, slope = Fraction(p["centroid"]), Fraction(p["slope"])
        ulp = Fraction(math.ulp(max(abs(float(centroid)), 1.0)))
        error = abs(Fraction(std_exterior_centroid(*point)) - centroid)
        assert error <= max_ulps * ulp, (p, float(error / ulp))
        value = std_exterior_centroid_slope(*point)
        assert math.isfinite(value) and value > 0.0, p
        scale = max(slope, Fraction(sys.float_info.min))
        error = abs(Fraction(value) - slope)
        assert error <= Fraction(max_rel) * scale, (p, float(error / scale))
        # On N(0, 1) the closed form flags exactly the masses below 1e-12.
        h, l, u = point
        mass = std_tail(u - h) + std_tail(h - l)
        result = centroid_exterior(GaussianParams(0.0, 1.0), ExcludedInterval(l, u), h)
        assert result.warnings == (("low_support_mass",) if mass < 1e-12 else ()), p
