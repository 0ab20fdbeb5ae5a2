"""The fitted Mills tables of special.py against 60-digit references.

tests/data/mills_table_reference.json is written by
tools/make_mills_table.py (mpmath 1.3.0): seeded x in [4, 1e300] with
r1(x) = 1/R(x) - x and x*x v(x), v the variance of Z given Z >= x, from
the continued fraction at 60 digits, as 30-digit decimal strings.  The
test reads only the JSON, so it needs no mpmath.  Errors are compared
exactly, as fractions, relative to the reference, in units of
eps = 2**-52.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

from trunc_centroid.special import _TABLE_FROM, _VARIANCE_TABLE, _fitted, _mills, _r1

TABLE = json.loads(
    (Path(__file__).parent / "data" / "mills_table_reference.json").read_text(
        encoding="utf-8"
    )
)
EPS = Fraction(2) ** -52


def _relative(got: float, want: str) -> Fraction:
    want = Fraction(want)
    return abs(Fraction(got) - want) / want


def test_table_spans_the_fitted_range():
    xs = [p["x"] for p in TABLE["points"]]
    assert TABLE["digits"] == 60 and len(xs) == 309
    assert min(xs) == _TABLE_FROM and max(xs) == 1e300
    # Where x*x overflows, z = 1/x**2 is 0.0 and both fits return 1.
    assert sum(x * x == math.inf for x in xs) >= 40


def test_r1_within_two_eps():
    for p in TABLE["points"]:
        error = _relative(_r1(p["x"]), p["r1"])
        assert error <= 2 * EPS, (p, float(error / EPS))


def test_scaled_variance_within_four_eps():
    for p in TABLE["points"]:
        error = _relative(_fitted(_VARIANCE_TABLE, p["x"]), p["scaled_variance"])
        assert error <= 4 * EPS, (p, float(error / EPS))


def test_mills_ratio_is_continuous_at_the_switch():
    # The erfc quotient below 4 and 1 / (x + r1(x)) from 4 up.
    below, above = _mills(math.nextafter(_TABLE_FROM, 0.0)), _mills(_TABLE_FROM)
    assert abs(below - above) <= 4 * math.ulp(above)
