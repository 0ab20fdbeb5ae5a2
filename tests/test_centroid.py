"""Closed-form centroid tests.

Reference values: 50-digit erfc-based computation for the formulas, the
in-repo quadrature oracle for integral cross-checks.  The closed form
and the oracle share only the standard-normal density, so agreement is
evidence, not tautology.
"""

import math
import random

import pytest

from trunc_centroid.centroid import (
    _certificate_from,
    centroid_exterior,
    shift_comparison,
    slope_certificate,
    std_exterior_centroid,
    std_exterior_centroid_slope,
)
from trunc_centroid.errors import DomainError, IntervalError, ParameterError
from trunc_centroid.model import ExcludedInterval, GaussianParams, Method
from trunc_centroid.quadrature import _integrate, centroid_quadrature
from trunc_centroid.special import std_cdf, std_pdf, std_tail

REF_PARAMS = GaussianParams(mu=1.0, sigma=2.0)
REF_HOLE = ExcludedInterval(lower=-1.0, upper=4.0)
BIG = 1.7976931348623157e308


def _ray_means(params, hole, shift):
    """The left and right ray means, each edge within the oracle's window:
    a ray [lo, hi] has the oracle's mass and the moment phi(lo) - phi(hi)."""
    loc = params.mu + shift
    a, b = ((x - loc) / params.sigma for x in (hole.lower, hole.upper))
    rays = ((-12.0, a), (b, 12.0))
    return [
        loc + params.sigma * (std_pdf(lo) - std_pdf(hi)) / _integrate(lo, hi)[0]
        for lo, hi in rays
    ]


def _quotient_form(h, l, u):
    """The sweeps' quotient-rule slope at one point."""
    pytest.importorskip("numpy")
    from trunc_centroid.verification import _quotient_slope_from

    ru, rl = u - h, l - h
    return _quotient_slope_from(ru, rl, std_pdf(ru), std_pdf(rl), std_tail(ru) + std_cdf(rl))


def test_input_validation():
    with pytest.raises(ParameterError):
        GaussianParams(0.0, 0.0)
    with pytest.raises(ParameterError):
        GaussianParams(0.0, -1.0)
    with pytest.raises(ParameterError):
        GaussianParams(0.0, math.inf)
    with pytest.raises(DomainError):
        GaussianParams(math.nan, 1.0)
    # Ints beyond the float range raise the package's errors.
    with pytest.raises(ParameterError):
        GaussianParams(0, 10**400)
    with pytest.raises(DomainError):
        GaussianParams(10**400, 1)
    with pytest.raises(IntervalError):
        ExcludedInterval(0, 10**400)
    with pytest.raises(DomainError):
        std_exterior_centroid(0.0, 0.0, 10**400)
    with pytest.raises(IntervalError):
        ExcludedInterval(1.0, 1.0)
    with pytest.raises(IntervalError):
        ExcludedInterval(2.0, 1.0)
    with pytest.raises(IntervalError):
        ExcludedInterval(-math.inf, 0.0)
    with pytest.raises(DomainError):
        centroid_exterior(REF_PARAMS, REF_HOLE, math.nan)
    with pytest.raises(IntervalError):
        std_exterior_centroid(0.0, 1.5, -1.0)
    with pytest.raises(DomainError):
        slope_certificate(math.inf, 0.0)


# A finite sigma still takes the standardized point (h, l, u) out of range:
# an edge or the shift overflows, or the two edges round equal.
@pytest.mark.parametrize(
    "sigma, lower, upper, shift, error, name",
    [
        (1e-300, -1e10, 1e10, 0.0, DomainError, "l_hat must be finite"),
        (1e-300, -1.0, 1.0, 1e10, DomainError, "h_hat must be finite"),
        (1e300, 0.0, 1e-300, 0.0, IntervalError, "u_hat > l_hat"),
    ],
    ids=["edge_overflows", "shift_overflows", "edges_round_equal"],
)
def test_standardized_point_is_checked(sigma, lower, upper, shift, error, name):
    params, hole = GaussianParams(0.0, sigma), ExcludedInterval(lower, upper)
    with pytest.raises(error, match=name):
        centroid_exterior(params, hole, shift)
    with pytest.raises(error, match=name):
        shift_comparison(params, hole, shift)


def test_edge_minus_mu_overflow_is_standardized_by_parts():
    # lower - mu overflows, but lower/sigma - mu/sigma = -270 does not: the
    # answer is bit for bit the oracle's, which standardizes about mu too.
    params, hole = GaussianParams(1.7e308, 1e306), ExcludedInterval(-1e308, 1.7e308)
    closed = centroid_exterior(params, hole, 0.0)
    assert (closed.value, closed.support_mass) == (1.7079788456080286e308, 0.5)
    assert centroid_quadrature(params, hole, 0.0).value == closed.value
    moved = shift_comparison(params, hole, 1.0)
    assert all(map(math.isfinite, (moved.base.value, moved.shifted.value, moved.delta)))


def test_one_point_check_names_what_it_was_given():
    # The shift as given, before it is divided by sigma.
    for fn in (centroid_exterior, shift_comparison):
        with pytest.raises(DomainError, match="^shift must be finite, got nan$"):
            fn(REF_PARAMS, REF_HOLE, math.nan)
        with pytest.raises(DomainError, match="^shift must be finite, got inf$"):
            fn(REF_PARAMS, REF_HOLE, 10**400)
    for fn in (std_exterior_centroid, std_exterior_centroid_slope):
        with pytest.raises(DomainError, match="^upper must be finite, got inf$"):
            fn(0.0, -1.0, math.inf)
        with pytest.raises(IntervalError, match="^hole needs upper > lower"):
            fn(0.0, 1.0, 1.0)


def test_std_centroid_frozen_values():
    assert math.isclose(
        std_exterior_centroid(0.0, -1.0, 1.5), -0.49876654076769076, rel_tol=1e-13
    )
    assert math.isclose(
        std_exterior_centroid(1.0, -1.0, 1.5), 1.8997448037970564, rel_tol=1e-13
    )


def test_std_centroid_symmetric_hole_is_exactly_zero():
    for a in (0.25, 0.5, 1.0, 2.0, 4.0, 7.5):
        assert std_exterior_centroid(0.0, -a, a) == 0.0


def test_reference_centroids():
    base = centroid_exterior(REF_PARAMS, REF_HOLE, 0.0)
    shifted = centroid_exterior(REF_PARAMS, REF_HOLE, 2.0)
    assert abs(base.value - 0.0025) < 5e-4
    assert abs(shifted.value - 4.7995) < 5e-4
    assert math.isclose(base.value, 0.0024669184646184749, rel_tol=1e-10)
    assert math.isclose(shifted.value, 4.799489607594113, rel_tol=1e-13)
    assert math.isclose(base.support_mass, 0.22546245520031512, rel_tol=1e-13)
    assert math.isclose(shifted.support_mass, 0.3312876706741661, rel_tol=1e-13)
    assert base.method is Method.CLOSED_FORM
    assert base.warnings == ()


def test_certificate_frozen_values():
    assert slope_certificate(0.0, 0.0) == 1.0
    # x1 == x2 collapses to (tail + cdf)^2 == 1
    for a in (0.5, 1.0, 2.0):
        assert math.isclose(slope_certificate(a, a), 1.0, rel_tol=1e-14)
    assert math.isclose(
        slope_certificate(1.5, -1.0), 0.1365449588184637, rel_tol=1e-13
    )


def test_certificate_squares_by_multiplication():
    # The square (f1 - f2)**2 is d * d, correctly rounded, not libm's pow
    # (a Python float's **), which differs in the last bit on about one
    # input in 1200 and moves about a quarter of those certificates.
    rng = random.Random(1)
    moved_by_pow = 0
    for _ in range(20_000):
        x1, x2 = rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)
        f1, f2 = std_pdf(x1), std_pdf(x2)
        m = std_tail(x1) + std_cdf(x2)
        d = f1 - f2
        expected = (x1 * f1 - x2 * f2) * m + m * m - d * d
        assert slope_certificate(x1, x2) == expected, (x1, x2)
        moved_by_pow += (x1 * f1 - x2 * f2) * m + m * m - d**2 != expected
    assert moved_by_pow > 0


def test_slope_frozen_values():
    assert math.isclose(
        std_exterior_centroid_slope(0.0, -1.0, 1.5), 2.6861311104040967, rel_tol=1e-13
    )
    assert math.isclose(
        std_exterior_centroid_slope(1.0, -1.0, 1.5), 1.047764348112489, rel_tol=1e-13
    )


def test_slope_equals_certificate_over_squared_mass():
    from trunc_centroid.special import std_cdf, std_tail

    for (h, l, u) in [(0.0, -1.0, 1.5), (0.7, -2.0, 0.3), (-1.2, -0.5, 2.5)]:
        mass = std_tail(u - h) + std_cdf(l - h)
        direct = slope_certificate(u - h, l - h) / mass**2
        assert math.isclose(
            std_exterior_centroid_slope(h, l, u), direct, rel_tol=1e-14
        )


def test_slope_two_forms_agree():
    for (h, l, u) in [(0.0, -1.0, 1.5), (0.0, -1.0, 1.0), (1.5, -3.0, 0.5)]:
        a = std_exterior_centroid_slope(h, l, u)
        b = _quotient_form(h, l, u)
        assert math.isclose(a, b, rel_tol=1e-12)


def test_slope_matches_finite_difference():
    eps = 1e-5
    for (h, l, u) in [(0.3, -1.0, 1.5), (-0.8, -2.5, 2.0), (1.9, -0.4, 0.9)]:
        fd = (
            std_exterior_centroid(h + eps, l, u)
            - std_exterior_centroid(h - eps, l, u)
        ) / (2.0 * eps)
        analytic = std_exterior_centroid_slope(h, l, u)
        assert math.isclose(analytic, fd, rel_tol=1e-7)


def test_underflowed_mass_keeps_its_centroid():
    # mass ~ 3.7e-350: both tails underflow, the ratio to the density at
    # the nearer edge does not.
    value = std_exterior_centroid(0.0, -40.0, 41.0)
    assert math.isclose(value, -40.024968847207264, rel_tol=1e-12)
    result = centroid_exterior(
        GaussianParams(0.0, 1.0), ExcludedInterval(-40.0, 41.0), 0.0
    )
    assert result.warnings == ("low_support_mass",)
    assert result.value == value
    # Such a hole still moves its centroid with the shift.
    moved = shift_comparison(GaussianParams(0.0, 1.0), ExcludedInterval(-40.0, 41.0), 1.0)
    assert moved.delta > 0.0
    assert moved.base.warnings == moved.shifted.warnings == result.warnings


def test_mass_near_underflow_is_kept_and_flagged():
    # mass ~ 5.7e-300 does not underflow: support_mass keeps it.
    value = std_exterior_centroid(-2.0, -39.0, 39.0)
    assert math.isclose(value, -39.02698768612699, rel_tol=1e-12)
    result = centroid_exterior(
        GaussianParams(0.0, 1.0), ExcludedInterval(-39.0, 39.0), -2.0
    )
    assert result.warnings == ("low_support_mass",)
    assert result.support_mass > 0.0


@pytest.mark.parametrize(
    "h, l, u, centroid",
    [
        (0.0, -1e308, 1e308, 0.0),  # upper - lower overflows
        (1e-310, -1e308, 1e308, None),  # a subnormal tilt of that hole
        (1.7e308, -1.7e308, -1e308, 1.7e308),  # shift - lower overflows
        (-1.7e308, 8.0e-218, 8.9e307, -1.7e308),  # upper - shift overflows
        (1e308, 1e308 - 2.0**971, 1e308 + 2.0**971, 1e308),  # 2 shift overflows
        # R(a) is subnormal: 1/R(a) overflows, or loses 3 ulps.
        (-93.36, -BIG, BIG, -BIG),
        (93.36, -BIG, BIG, BIG),
        (1.0, -1.7e308, 1.7e308, 1.7e308),
        (0.0, -1e10, 5e9, 5e9),  # a far hole keeps its centroid
    ],
)
def test_extreme_points_stay_finite(h, l, u, centroid):
    value = std_exterior_centroid(h, l, u)
    assert math.isfinite(value)
    if centroid is not None:
        assert value == centroid
    slope = std_exterior_centroid_slope(h, l, u)
    assert not math.isnan(slope) and slope >= 0.0


def test_deep_slope_positive():
    for (h, l, u) in [(0.0, -40.0, 41.0), (3.0, -50.0, 44.0)]:
        assert std_exterior_centroid_slope(h, l, u) > 0.0


@pytest.mark.parametrize("e", [7.5e153, 1e154, 1.3e154])
def test_slope_of_a_wide_hole_does_not_overflow(e):
    # The exterior variance of hole (-e, e) at shift 0 is about e*e + 2,
    # finite although the spread of the tail means squared, (2e)**2, is not.
    assert math.isclose(std_exterior_centroid_slope(0.0, -e, e), e * e, rel_tol=1e-15)


def test_hole_a_few_ulps_wide_far_from_zero():
    # (l + u)/2 rounds by 8, half of h - l: e = exp(-384) needs the
    # double-double h - (l + u)/2 renormalized, or its first-order
    # correction reads e = 1 - 384.  Exact (80-digit mpmath): the centroid
    # rounds to l, the slope is 0.0038175623701787832.
    h, l, u = 1.12650029902087e17, 1.1265002990208699e17, 1.1265002990208704e17
    assert std_exterior_centroid(h, l, u) == l
    slope = std_exterior_centroid_slope(h, l, u)
    assert math.isclose(slope, 0.0038175623701787832, rel_tol=1e-14)


def test_low_mass_flag_threshold():
    # mass 2Q(8) ~ 1.2e-15 < 1e-12
    result = centroid_exterior(
        GaussianParams(0.0, 1.0), ExcludedInterval(-8.0, 8.0), 0.0
    )
    assert result.warnings == ("low_support_mass",)
    ordinary = centroid_exterior(REF_PARAMS, REF_HOLE, 0.0)
    assert ordinary.warnings == ()


def test_shift_comparison_reference():
    comparison = shift_comparison(REF_PARAMS, REF_HOLE, 2.0)
    assert math.isclose(comparison.delta, 4.797022689129494, rel_tol=1e-13)
    assert abs(comparison.delta - 4.7970) < 5e-4
    assert comparison.delta > 0.0
    assert comparison.base.value == centroid_exterior(REF_PARAMS, REF_HOLE, 0.0).value


def test_shift_comparison_zero_shift():
    comparison = shift_comparison(REF_PARAMS, REF_HOLE, 0.0)
    assert comparison.delta == 0.0


def test_shift_comparison_negative_shift():
    comparison = shift_comparison(REF_PARAMS, REF_HOLE, -1.5)
    assert comparison.delta < 0.0


def test_shift_comparison_sign_matches_oracle():
    # The oracle confirms the sign of the move, not just the closed form.
    params = GaussianParams(0.3, 1.7)
    hole = ExcludedInterval(-0.9, 2.1)
    comparison = shift_comparison(params, hole, 0.1)
    oracle_base = centroid_quadrature(params, hole, 0.0).value
    oracle_shifted = centroid_quadrature(params, hole, 0.1).value
    assert comparison.delta > 0.0
    assert oracle_shifted - oracle_base > 0.0
    assert math.isclose(comparison.delta, oracle_shifted - oracle_base, rel_tol=1e-6)


def test_translation_equivariance_spot():
    for c in (-3.0, 0.25, 7.0):
        moved = centroid_exterior(
            GaussianParams(REF_PARAMS.mu + c, REF_PARAMS.sigma),
            ExcludedInterval(REF_HOLE.lower + c, REF_HOLE.upper + c),
            0.7,
        )
        still = centroid_exterior(REF_PARAMS, REF_HOLE, 0.7)
        assert abs(moved.value - (still.value + c)) < 1e-12


def test_scale_equivariance_spot():
    for s in (0.25, 3.0, 50.0):
        scaled = centroid_exterior(
            GaussianParams(0.0, s),
            ExcludedInterval(-0.8 * s, 1.3 * s),
            0.4 * s,
        )
        unit = centroid_exterior(
            GaussianParams(0.0, 1.0), ExcludedInterval(-0.8, 1.3), 0.4
        )
        assert abs(scaled.value - s * unit.value) < 1e-12 * max(1.0, s)


def test_centroid_between_tail_means():
    # The centroid is a mass-weighted mix of the two one-sided means,
    # computed here by the oracle ray by ray.
    configs = [
        (REF_PARAMS, REF_HOLE, 0.0),
        (REF_PARAMS, REF_HOLE, 2.0),
        (GaussianParams(0.0, 1.0), ExcludedInterval(-0.5, 0.5), 0.0),
        (GaussianParams(-2.0, 0.7), ExcludedInterval(-3.0, -1.0), 1.2),
    ]
    for params, hole, shift in configs:
        left_mean, right_mean = _ray_means(params, hole, shift)
        value = centroid_exterior(params, hole, shift).value
        assert min(left_mean, right_mean) - 1e-12 <= value
        assert value <= max(left_mean, right_mean) + 1e-12


def test_tail_means_reference_values():
    # Standard params: the standardized ray means are the means themselves.
    left, right = _ray_means(GaussianParams(0.0, 1.0), ExcludedInterval(-1.0, 1.5), 0.0)
    assert math.isclose(left, -1.5251352761609812, rel_tol=1e-11)
    assert math.isclose(right, 1.9386771666225432, rel_tol=1e-11)


def test_array_helpers_match_scalar_functions():
    # The certificate helper is shared by slope_certificate and the sweeps,
    # and gives floats and arrays the same bits.
    np = pytest.importorskip("numpy")
    from trunc_centroid import verification as v

    rng = random.Random(8)
    holes = [sorted((rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0))) for _ in range(4000)]
    shifts = [rng.uniform(-3.0, 3.0) for _ in holes]
    l = np.array([a for a, _ in holes])
    u = np.array([b for _, b in holes])
    h = np.array(shifts)
    ru, rl = u - h, l - h
    f_ru, f_rl = v.std_pdf_array(ru), v.std_pdf_array(rl)
    m = v.std_tail_array(ru) + v.std_tail_array(-rl)
    certificate = _certificate_from(ru, rl, f_ru, f_rl, m)
    assert certificate.tolist() == [slope_certificate(a, b) for a, b in zip(ru, rl)]
    assert v._quotient_slope_from(ru, rl, f_ru, f_rl, m).tolist() == [
        _quotient_form(s, a, b) for s, (a, b) in zip(shifts, holes)
    ]
