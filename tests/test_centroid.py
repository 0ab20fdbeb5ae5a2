"""Closed-form centroid tests.

Reference values: 50-digit erfc-based computation for the formulas, the
in-repo quadrature oracle for integral cross-checks.  The closed form
and the oracle share only the standard-normal density, so agreement is
evidence, not tautology.
"""

import math
import random

import numpy as np
import pytest

from trunc_centroid.centroid import (
    _certificate_from,
    _offset_from,
    _offset_mass_flags,
    _quotient_slope_from,
    _slope_quotient_form,
    centroid_exterior,
    shift_comparison,
    slope_certificate,
    standardize,
    std_exterior_centroid,
    std_exterior_centroid_slope,
)
from trunc_centroid.errors import DomainError, IntervalError, ParameterError
from trunc_centroid.model import ExcludedInterval, GaussianParams, Method
from trunc_centroid.quadrature import QuadratureConfig, _ray_integrals, centroid_quadrature
from trunc_centroid.special import std_cdf_array, std_pdf_array, std_tail_array

REF_PARAMS = GaussianParams(mu=1.0, sigma=2.0)
REF_HOLE = ExcludedInterval(lower=-1.0, upper=4.0)
CFG = QuadratureConfig()


def test_standardize_reference_config():
    problem = standardize(REF_PARAMS, REF_HOLE, 2.0)
    assert problem.l_hat == -1.0
    assert problem.u_hat == 1.5
    assert problem.h_hat == 1.0


def test_standardize_identity():
    problem = standardize(GaussianParams(0.0, 1.0), ExcludedInterval(-0.3, 0.7), 0.4)
    assert (problem.l_hat, problem.u_hat, problem.h_hat) == (-0.3, 0.7, 0.4)


def test_standardize_direct_arithmetic():
    problem = standardize(GaussianParams(5.0, 0.5), ExcludedInterval(4.0, 6.0), 1.0)
    assert (problem.l_hat, problem.u_hat, problem.h_hat) == (-2.0, 2.0, 2.0)


def test_input_validation():
    with pytest.raises(ParameterError):
        GaussianParams(0.0, 0.0)
    with pytest.raises(ParameterError):
        GaussianParams(0.0, -1.0)
    with pytest.raises(ParameterError):
        GaussianParams(0.0, math.inf)
    with pytest.raises(DomainError):
        GaussianParams(math.nan, 1.0)
    with pytest.raises(IntervalError):
        ExcludedInterval(1.0, 1.0)
    with pytest.raises(IntervalError):
        ExcludedInterval(2.0, 1.0)
    with pytest.raises(IntervalError):
        ExcludedInterval(-math.inf, 0.0)
    with pytest.raises(DomainError):
        standardize(REF_PARAMS, REF_HOLE, math.nan)
    with pytest.raises(IntervalError):
        std_exterior_centroid(0.0, 1.5, -1.0)
    with pytest.raises(DomainError):
        slope_certificate(math.inf, 0.0)


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
        b = _slope_quotient_form(h, l, u)
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


def test_deep_truncation_branch():
    # mass ~ 3.7e-350: both tails underflow, ratio rebuilt from logs.
    value = std_exterior_centroid(0.0, -40.0, 41.0)
    assert math.isclose(value, -40.024968847207264, rel_tol=1e-12)
    offset, mass, flags = _offset_mass_flags(0.0, -40.0, 41.0)
    assert "deep_truncation" in flags and "low_support_mass" in flags
    result = centroid_exterior(
        GaussianParams(0.0, 1.0), ExcludedInterval(-40.0, 41.0), 0.0
    )
    assert "deep_truncation" in result.warnings
    assert math.isfinite(result.value)


def test_direct_branch_survives_down_to_floor():
    # mass ~ 5.7e-300 stays on the direct path, flagged but accurate.
    value = std_exterior_centroid(-2.0, -39.0, 39.0)
    assert math.isclose(value, -39.02698768612699, rel_tol=1e-12)
    _, mass, flags = _offset_mass_flags(-2.0, -39.0, 39.0)
    assert flags == ["low_support_mass"]
    assert mass > 0.0


def test_deep_slope_positive():
    for (h, l, u) in [(0.0, -40.0, 41.0), (3.0, -50.0, 44.0)]:
        assert std_exterior_centroid_slope(h, l, u) > 0.0


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
    oracle_base = centroid_quadrature(params, hole, 0.0, CFG).value
    oracle_shifted = centroid_quadrature(params, hole, 0.1, CFG).value
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
        pieces = _ray_integrals(params, hole, shift, CFG, True)
        left_mean = pieces["left_moment"] / pieces["left_mass"]
        right_mean = pieces["right_moment"] / pieces["right_mass"]
        value = centroid_exterior(params, hole, shift).value
        assert min(left_mean, right_mean) - 1e-12 <= value
        assert value <= max(left_mean, right_mean) + 1e-12


def test_tail_means_reference_values():
    pieces = _ray_integrals(
        GaussianParams(0.0, 1.0), ExcludedInterval(-1.0, 1.5), 0.0, CFG, True
    )
    assert math.isclose(
        pieces["left_moment"] / pieces["left_mass"], -1.5251352761609812, rel_tol=1e-11
    )
    assert math.isclose(
        pieces["right_moment"] / pieces["right_mass"], 1.9386771666225432, rel_tol=1e-11
    )


def test_array_helpers_match_scalar_functions():
    # (f1 - f2) ** 2 is libm's pow on floats; on arrays the helper must not
    # square by multiplication, which differs on about 1 input in 1200.
    rng = random.Random(8)
    holes = [sorted((rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0))) for _ in range(4000)]
    shifts = [rng.uniform(-3.0, 3.0) for _ in holes]
    l = np.array([a for a, _ in holes])
    u = np.array([b for _, b in holes])
    h = np.array(shifts)
    ru, rl = u - h, l - h
    f_ru, f_rl = std_pdf_array(ru), std_pdf_array(rl)
    m = std_tail_array(ru) + std_cdf_array(rl)
    certificate = _certificate_from(ru, rl, f_ru, f_rl, m)
    assert certificate.tolist() == [slope_certificate(a, b) for a, b in zip(ru, rl)]
    assert (h + _offset_from(f_ru, f_rl, m)).tolist() == [
        std_exterior_centroid(s, a, b) for s, (a, b) in zip(shifts, holes)
    ]
    assert (certificate / (m * m)).tolist() == [
        std_exterior_centroid_slope(s, a, b) for s, (a, b) in zip(shifts, holes)
    ]
    assert _quotient_slope_from(ru, rl, f_ru, f_rl, m).tolist() == [
        _slope_quotient_form(s, a, b) for s, (a, b) in zip(shifts, holes)
    ]
