"""Standard-normal primitive tests.

Frozen reference values were produced at 50-digit precision with an
independent arbitrary-precision erfc and rounded to nearest double.
"""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from trunc_centroid.errors import DomainError
from trunc_centroid.special import (
    log_std_tail,
    mills_lower_bound_cdf,
    mills_lower_bound_tail,
    mills_ratio,
    std_cdf,
    std_pdf,
    std_tail,
)
from trunc_centroid.verification import std_cdf_array, std_pdf_array, std_tail_array

GRID = [x * 0.25 for x in range(-32, 33)]


def test_frozen_values():
    assert math.isclose(std_pdf(1.5), 0.12951759566589173, rel_tol=1e-15)
    assert math.isclose(std_pdf(0.0), 0.3989422804014327, rel_tol=1e-15)
    assert math.isclose(std_cdf(-1.0), 0.15865525393145705, rel_tol=1e-14)
    assert math.isclose(std_cdf(-2.0), 0.022750131948179195, rel_tol=1e-14)
    assert math.isclose(std_tail(1.5), 0.06680720126885807, rel_tol=1e-14)
    assert math.isclose(std_tail(0.5), 0.3085375387259869, rel_tol=1e-14)
    assert math.isclose(2.0 * std_tail(1.0), 0.3173105078629141, rel_tol=1e-14)
    assert math.isclose(2.0 * std_tail(6.0), 1.9731752900753963e-09, rel_tol=1e-13)
    assert math.isclose(2.0 * std_tail(8.0), 1.2441921148543568e-15, rel_tol=1e-13)
    assert math.isclose(
        std_tail(0.0) / (2.0 * std_pdf(0.0)), 0.6266570686577501, rel_tol=1e-15
    )


def test_cdf_tail_reflection_is_bitwise():
    for x in GRID:
        assert std_tail(-x) == std_cdf(x)
        assert std_pdf(-x) == std_pdf(x)


def test_cdf_tail_sum_to_one():
    for x in GRID:
        assert math.isclose(std_cdf(x) + std_tail(x), 1.0, rel_tol=1e-15)


def test_cdf_monotone_and_in_range():
    values = [std_cdf(x) for x in GRID]
    for lo, hi in zip(values, values[1:]):
        assert lo < hi
    assert all(0.0 < v < 1.0 for v in values)


def test_pdf_positive_and_peaked_at_zero():
    assert std_pdf(0.0) == max(std_pdf(x) for x in GRID)
    assert all(std_pdf(x) > 0.0 for x in GRID)


def test_log_tail_matches_direct_log_in_linear_range():
    # Agreement in log space: relative where the log is of order one,
    # absolute near zero where direct log of a value ~1 is itself only
    # good to about an ulp of 1.
    for x in [-8.0, -3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 5.0, 20.0, 30.0, 32.9]:
        assert math.isclose(
            log_std_tail(x), math.log(std_tail(x)), rel_tol=5e-14, abs_tol=1e-15
        )


def test_log_tail_frozen_deep_values():
    # Independent 50-digit references, far past linear-scale underflow.
    assert math.isclose(log_std_tail(33.0), -548.9163622697381, rel_tol=1e-15)
    assert math.isclose(log_std_tail(50.0), -1254.8313611394199, rel_tol=1e-15)
    assert math.isclose(log_std_tail(100.0), -5005.524208694205, rel_tol=1e-15)
    assert math.isclose(log_std_tail(1000.0), -500007.8266948122, rel_tol=1e-15)
    assert math.isclose(log_std_tail(-5.0), -2.8665161296376427e-07, rel_tol=1e-13)


def test_log_tail_branch_formulas_agree_at_same_abscissa():
    # Around each branch switch both formulas are still valid; evaluated
    # at the same x they must agree (straddling the switch would instead
    # measure the function's own slope).
    for x in (33.0, 34.0, 37.0):
        via_erfc = math.log(std_tail(x))  # representable down to ~1e-308
        assert math.isclose(log_std_tail(x), via_erfc, rel_tol=1e-13)
    for x in (-0.999999, -1.0, -1.000001, -1.5):
        via_log1p = math.log1p(-std_tail(-x))
        assert math.isclose(log_std_tail(x), via_log1p, rel_tol=1e-13)


def test_mills_ratio_matches_quotient_in_linear_range():
    for x in [0.5, 1.0, 5.0, 20.0, 32.9]:
        assert math.isclose(mills_ratio(x), std_tail(x) / std_pdf(x), rel_tol=1e-13)


def test_mills_ratio_continued_fraction_frozen_values():
    # 50-digit references rounded to doubles; the fitted table, which
    # replaced the continued fraction, lands within one ulp of each.
    for x, want in (
        (33.0, 0.030275280136159863),
        (40.0, 0.02498440420572057),
        (100.0, 0.009999000299850106),
        (1000.0, 0.0009999990000029999),
    ):
        assert math.isclose(mills_ratio(x), want, rel_tol=3e-16)


def test_mills_ratio_asymptotic_series_consistency():
    # R(x) = (1/x)(1 - 1/x^2 + 3/x^4 - 15/x^6 + O(x^-8)); the truncation
    # error is below 110/x^8 in relative terms.
    for x in [40.0, 100.0, 1000.0]:
        approx = (1.0 / x) * (1.0 - 1.0 / x**2 + 3.0 / x**4 - 15.0 / x**6)
        assert math.isclose(mills_ratio(x), approx, rel_tol=110.0 / x**8 + 1e-13)


def test_mills_ratio_rejects_nonpositive():
    with pytest.raises(DomainError):
        mills_ratio(0.0)
    with pytest.raises(DomainError):
        mills_ratio(-1.0)


def test_bound_frozen_values():
    # (sqrt(8) - 2)/4 and (sqrt(8) + 2)/4
    assert math.isclose(
        mills_lower_bound_tail(2.0), 0.20710678118654752, rel_tol=1e-15
    )
    assert math.isclose(
        mills_lower_bound_cdf(2.0), 1.2071067811865475, rel_tol=1e-15
    )
    assert mills_lower_bound_tail(1.5) == pytest.approx(0.25, rel=1e-15)
    assert mills_lower_bound_tail(0.0) == pytest.approx(0.5, rel=1e-15)


def test_bounds_hold_strictly_on_grid():
    for x in GRID:
        f = std_pdf(x)
        assert std_tail(x) / (2.0 * f) > mills_lower_bound_tail(x)
        assert std_cdf(x) / (2.0 * f) > mills_lower_bound_cdf(x)


def test_bound_reflection_is_bitwise():
    for x in GRID:
        assert mills_lower_bound_cdf(x) == mills_lower_bound_tail(-x)


def test_bound_stable_for_large_arguments():
    # The cancellation-free form stays positive and finite out far.
    for x in [50.0, 500.0, 1e6]:
        tail_bound = mills_lower_bound_tail(x)
        assert 0.0 < tail_bound < 1.0 / x
        assert mills_lower_bound_cdf(x) > x / 2.0


@pytest.mark.parametrize("x", [1e4, 1e8, 1e200, -1e200])
def test_bound_keeps_its_digits_where_the_paper_form_fails(x):
    # (sqrt(x*x + 4) - x) / 4 cancels from x of about 1e4 up and x*x
    # overflows from about 1.3e154; the bound is 1 / (x + sqrt(x*x + 4)),
    # here with digits enough for its cancellation at -1e200.
    with localcontext() as ctx:
        ctx.prec = 1000
        d = Decimal(x)
        want = float(1 / (d + (d * d + 4).sqrt()))
    assert math.isclose(mills_lower_bound_tail(x), want, rel_tol=4e-16)
    assert mills_lower_bound_cdf(-x) == mills_lower_bound_tail(x)


@pytest.mark.parametrize(
    "func",
    [std_pdf, std_cdf, std_tail, log_std_tail, mills_lower_bound_tail, mills_lower_bound_cdf],
)
def test_nonfinite_inputs_rejected(func):
    # An int beyond the float range is an infinity, not an OverflowError.
    for bad in (math.nan, math.inf, -math.inf, 10**400, -(10**400)):
        with pytest.raises(DomainError):
            func(bad)


def test_array_twins_match_scalars_bit_for_bit():
    rng = random.Random(20)
    # Moderate values, the subnormal range near |x| = 38, and past underflow.
    xs = [rng.uniform(-10.0, 10.0) for _ in range(3000)]
    xs += [rng.choice((-1.0, 1.0)) * rng.uniform(37.0, 39.5) for _ in range(3000)]
    xs += [0.0, -0.0, 60.0, -60.0, 1e-160, 1e10]
    grid = np.array(xs).reshape(6, 1001)
    for array_fn, scalar_fn in (
        (std_pdf_array, std_pdf),
        (std_tail_array, std_tail),
        (std_cdf_array, std_cdf),
    ):
        got = array_fn(grid)
        assert got.shape == grid.shape
        assert got.ravel().tolist() == [scalar_fn(x) for x in xs]
        # Non-contiguous views: transposed and strided.
        for view in (grid.T, grid[::2, ::3], grid[:, ::-7]):
            got = array_fn(view)
            assert got.shape == view.shape
            assert got.ravel().tolist() == [scalar_fn(x) for x in view.ravel().tolist()]
        # 0-d and empty inputs.
        assert array_fn(np.array(xs[0])).tolist() == scalar_fn(xs[0])
        assert array_fn(np.empty((0, 3))).shape == (0, 3)
