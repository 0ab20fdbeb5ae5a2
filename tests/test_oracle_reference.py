"""The quadrature oracle against 60-digit references, with its error bound.

tests/data/oracle_reference.json is written by
tools/make_oracle_reference.py (mpmath 1.3.0): float inputs in five
regimes and the exact centroid and exterior mass of those floats, as
30-digit decimal strings.  The test reads only the JSON, so it needs no
mpmath.  Errors are compared exactly, as fractions.
"""

import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

from trunc_centroid.errors import DeepTruncationError
from trunc_centroid.model import ExcludedInterval, GaussianParams, LOW_SUPPORT_MASS
from trunc_centroid.quadrature import MASS_REMAINDER, centroid_quadrature

TABLE = json.loads(
    (Path(__file__).parent / "data" / "oracle_reference.json").read_text(encoding="utf-8")
)

# Caps on abs_error_bound / max(sigma, |centroid|): (median over the
# regime's answers, maximum over the answers without low_support_mass).
# The maximum grows as the exterior mass shrinks, because the bound carries
# the mass's error estimates, which shrink more slowly than the mass (8e-12
# of it at 5e-11, 1e-14 at 6e-3); offset problems are scaled by
# |centroid| >> sigma.
CAPS = {
    "moderate": (1e-12, 1e-9),
    "wide": (1e-12, 1e-7),
    "degenerate": (1e-12, 1e-12),
    "scale": (1e-12, 1e-8),
    "offset": (1e-14, 1e-13),
}


def _solve(p):
    params = GaussianParams(p["mu"], p["sigma"])
    hole = ExcludedInterval(p["lower"], p["upper"])
    return centroid_quadrature(params, hole, p["shift"])


def test_table_covers_every_regime():
    regimes = [p["regime"] for p in TABLE["problems"]]
    assert TABLE["digits"] == 60 and len(regimes) >= 200
    assert {r: regimes.count(r) for r in CAPS} == {r: 40 for r in CAPS}


@pytest.mark.parametrize("regime", sorted(CAPS))
def test_error_within_bound(regime):
    scaled, unflagged = [], []
    for p in TABLE["problems"]:
        if p["regime"] != regime:
            continue
        try:
            result = _solve(p)
        except DeepTruncationError:
            # Declined only where the window holds no mass at all.
            assert Fraction(p["mass"]) < Fraction(MASS_REMAINDER)
            continue
        bound = result.abs_error_bound
        assert math.isfinite(bound) or float(p["mass"]) < 1e-9
        if math.isfinite(bound):
            error = abs(Fraction(result.value) - Fraction(p["centroid"]))
            assert error <= Fraction(bound), p
        size = bound / max(p["sigma"], abs(float(p["centroid"])))
        scaled.append(size)
        if LOW_SUPPORT_MASS not in result.warnings:
            unflagged.append(size)
    median_cap, max_cap = CAPS[regime]
    assert len(unflagged) >= 35
    assert statistics.median(scaled) <= median_cap
    assert max(unflagged) <= max_cap



def test_refusal_names_the_window():
    # The wide problems the oracle declines carry exterior mass of 1e-40 and
    # less, far above underflow but all of it beyond the +-12 sigma window.
    declined = [
        p for p in TABLE["problems"]
        if p["regime"] == "wide" and Fraction(p["mass"]) < Fraction(MASS_REMAINDER)
    ]
    assert declined and float(declined[0]["mass"]) > 1e-290
    with pytest.raises(DeepTruncationError) as info:
        _solve(declined[0])
    message = str(info.value)
    assert "inside the window of +-12.0 sigmas (the tail cut-off)" in message
    assert "the exterior mass lies beyond the window;" in message
    assert "too wide" not in message
    assert "underflow" not in message
