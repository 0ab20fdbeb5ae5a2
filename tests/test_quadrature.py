"""Oracle integrator tests.

The integrator is the package's ground truth, so it gets checked against
things it cannot share with the closed form: polynomial exactness of the
panel rule, analytically known tail masses (from the erfc-based module,
whose own tests pin it to an independent high-precision reference), and
its own reported error estimates.
"""

import math

import pytest

from trunc_centroid import centroid, model, quadrature
from trunc_centroid.centroid import centroid_exterior
from trunc_centroid.errors import DeepTruncationError, DomainError, ToleranceNotMetError
from trunc_centroid.model import ExcludedInterval, GaussianParams, Method
from trunc_centroid.quadrature import (
    _WG,
    _WGK,
    _integrate,
    _kronrod_panel,
    _phi,
    ABS_TOL,
    MASS_REMAINDER,
    MOMENT_REMAINDER,
    REL_TOL,
    centroid_quadrature,
)
from trunc_centroid.special import std_cdf, std_pdf, std_tail

STD = GaussianParams(mu=0.0, sigma=1.0)
REF_PARAMS, REF_HOLE = GaussianParams(1.0, 2.0), ExcludedInterval(-1.0, 4.0)


def _rays(params, hole, shift):
    """loc, the standardized edges clamped to the window, and the passes
    over the left and the right ray, as centroid_quadrature forms them."""
    loc = params.mu + shift
    a, b = (
        min(max((x - loc) / params.sigma, -12.0), 12.0) for x in (hole.lower, hole.upper)
    )
    return loc, (a, b), _integrate(_phi, -12.0, a), _integrate(_phi, b, 12.0)


def _mass(params, hole, shift):
    return centroid_quadrature(params, hole, shift).support_mass


def _first_moment(params, hole, shift):
    """The unnormalized exterior first moment, in x units."""
    loc, _, left, right = _rays(params, hole, shift)
    return loc * (left[0] + right[0]) + params.sigma * (left[1] + right[1])


def test_weights_sum_to_interval_length():
    assert math.isclose(2.0 * sum(_WGK[:7]) + _WGK[7], 2.0, rel_tol=1e-14)
    assert math.isclose(2.0 * sum(_WG[:3]) + _WG[3], 2.0, rel_tol=1e-14)


def test_panel_exact_on_polynomials():
    # Kronrod 15 integrates degree <= 22 exactly; check a few.  The panel
    # also integrates t * f, one degree higher.
    for degree in (3, 8, 13, 20):
        value, moment, _, _ = _kronrod_panel(
            lambda ts: [t**degree for t in ts], 0.0, 1.0
        )
        assert math.isclose(value, 1.0 / (degree + 1), rel_tol=1e-13)
        assert math.isclose(moment, 1.0 / (degree + 2), rel_tol=1e-13)
    value, moment, _, _ = _kronrod_panel(
        lambda ts: [4.0 * t**3 - 2.0 * t for t in ts], -1.0, 2.0
    )
    assert math.isclose(value, (2.0**4 - 1.0) - (4.0 - 1.0), rel_tol=1e-13)
    expected_moment = 0.8 * (2.0**5 + 1.0) - (2.0 / 3.0) * (2.0**3 + 1.0)
    assert math.isclose(moment, expected_moment, rel_tol=1e-13)


def test_panel_mirror_is_exact():
    # Node values are summed in mirror pairs: a panel reflected about 0
    # gives the same mass and error and exactly the opposite moment.
    for a, b in ((0.3, 2.9), (1.0, 12.0), (-0.7, 4.1)):
        right = _kronrod_panel(_phi, a, b)
        left = _kronrod_panel(_phi, -b, -a)
        assert left == (right[0], -right[1], right[2], right[3])


def test_integrate_known_gaussian_masses():
    value, moment, err, moment_err = _integrate(_phi, -1.0, 1.0)
    assert math.isclose(value, 1.0 - 0.3173105078629141, rel_tol=1e-13)
    assert err <= max(ABS_TOL, REL_TOL * abs(value))
    assert moment == 0.0 and moment_err <= ABS_TOL
    value, moment, _, _ = _integrate(_phi, -12.0, -1.0)
    assert math.isclose(value, 0.15865525393145705, rel_tol=1e-12)
    # the integral of t * phi(t) from -12 to -1 is phi(12) - phi(1)
    assert math.isclose(moment, std_pdf(12.0) - std_pdf(1.0), rel_tol=1e-12)


def test_integrate_error_estimate_is_honest(monkeypatch):
    # Halving the tolerances moves the value by less than the reported error.
    coarse = _integrate(_phi, -12.0, -1.0)
    monkeypatch.setattr(quadrature, "ABS_TOL", 0.5 * ABS_TOL)
    monkeypatch.setattr(quadrature, "REL_TOL", 0.5 * REL_TOL)
    tight_pass = _integrate(_phi, -12.0, -1.0)
    assert abs(coarse[0] - tight_pass[0]) <= coarse[2]
    assert abs(coarse[1] - tight_pass[1]) <= coarse[3]


def test_integrate_empty_interval():
    assert _integrate(_phi, 1.0, 1.0) == (0.0, 0.0, 0.0, 0.0)
    assert _integrate(_phi, 2.0, 1.0) == (0.0, 0.0, 0.0, 0.0)


def test_integrate_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 1)
    with pytest.raises(ToleranceNotMetError):
        _integrate(lambda ts: [abs(t - 0.123456) ** 0.5 for t in ts], -4.0, 9.0)


def test_exterior_mass_symmetric_hole():
    mass = _mass(STD, ExcludedInterval(-1.0, 1.0), 0.0)
    assert math.isclose(mass, 0.3173105078629141, rel_tol=1e-12)


def test_exterior_mass_reference_config():
    mass = _mass(REF_PARAMS, REF_HOLE, 0.0)
    assert math.isclose(mass, 0.22546245520031512, rel_tol=1e-12)


def test_exterior_mass_nearly_gone():
    mass = _mass(STD, ExcludedInterval(-8.0, 8.0), 0.0)
    assert math.isclose(mass, 1.2441921148543568e-15, rel_tol=1e-6)


def test_exterior_mass_uses_shift():
    # Shifting by 2 re-centers the density, same as moving the hole.
    shifted = _mass(STD, ExcludedInterval(-1.0, 4.0), 2.0)
    direct = _mass(STD, ExcludedInterval(-3.0, 2.0), 0.0)
    assert math.isclose(shifted, direct, rel_tol=1e-12)
    assert math.isclose(
        shifted, std_tail(2.0) + std_cdf(-3.0), rel_tol=1e-12
    )


def test_first_moment_odd_symmetry():
    for a in (0.5, 1.0, 2.0):
        moment = _first_moment(STD, ExcludedInterval(-a, a), 0.0)
        assert abs(moment) <= ABS_TOL


def test_first_moment_reference_config():
    # centroid * mass for the base reference configuration
    moment = _first_moment(REF_PARAMS, REF_HOLE, 0.0)
    assert math.isclose(
        moment, 0.0024669184646184749 * 0.22546245520031512, rel_tol=1e-9, abs_tol=1e-15
    )
    shifted = _first_moment(REF_PARAMS, REF_HOLE, 2.0)
    assert math.isclose(
        shifted, 4.799489607594113 * 0.3312876706741661, rel_tol=1e-12
    )


def test_centroid_quadrature_reference_values():
    base = centroid_quadrature(REF_PARAMS, REF_HOLE, 0.0)
    shifted = centroid_quadrature(REF_PARAMS, REF_HOLE, 2.0)
    assert base.method is Method.QUADRATURE
    assert abs(base.value - 0.0025) < 5e-4
    assert abs(shifted.value - 4.7995) < 5e-4
    assert math.isclose(base.support_mass, 0.22546245520031512, rel_tol=1e-12)


def test_centroid_quadrature_symmetric_is_zero():
    result = centroid_quadrature(STD, ExcludedInterval(-1.0, 1.0), 0.0)
    assert abs(result.value) <= ABS_TOL


def test_low_mass_warning_flag():
    result = centroid_quadrature(STD, ExcludedInterval(-8.0, 8.0), 0.0)
    assert "low_support_mass" in result.warnings
    ordinary = centroid_quadrature(STD, ExcludedInterval(-1.0, 1.0), 0.0)
    assert ordinary.warnings == ()


def test_deep_truncation_declined():
    with pytest.raises(DeepTruncationError):
        centroid_quadrature(STD, ExcludedInterval(-40.0, 41.0), 0.0)


def test_remainders_below_abs_tol():
    # What the window leaves out is below the tolerance of every ray.
    assert MASS_REMAINDER < MOMENT_REMAINDER < ABS_TOL <= REL_TOL


def test_hole_edge_outside_window_is_not_missed():
    # A far-away hole edge must not hide the density bump from the panel
    # nodes: the window is clipped to the support pieces.
    params = GaussianParams(0.0, 0.5)
    hole = ExcludedInterval(-200.0, 0.25)
    mass = _mass(params, hole, 0.0)
    assert math.isclose(mass, std_tail(0.5), rel_tol=1e-12)


def test_ray_integrals_split_and_errors():
    # Each ray's pass is standardized: (mass, moment, mass_err, moment_err)
    # with t = (x - loc) / sigma, loc = 1 and sigma = 2 here.
    loc, _, left, right = _rays(REF_PARAMS, REF_HOLE, 0.0)
    assert loc == 1.0
    assert math.isclose(left[0], 0.15865525393145705, rel_tol=1e-12)
    assert math.isclose(right[0], 0.06680720126885807, rel_tol=1e-12)
    assert left[2] <= ABS_TOL
    assert _mass(REF_PARAMS, REF_HOLE, 0.0) == left[0] + right[0]
    total = loc * (left[0] + right[0]) + 2.0 * (left[1] + right[1])
    assert math.isclose(
        total, 0.0024669184646184749 * 0.22546245520031512, rel_tol=1e-9, abs_tol=1e-15
    )


@pytest.mark.parametrize("sigma", [1e-300, 1e20, 1e200, 1e307])
def test_scale_invariance_at_extreme_sigma(sigma):
    # Everything is integrated in units of sigma, so neither the window
    # nor the moment remainder depends on the scale of the problem.
    def solve(s):
        params = GaussianParams(0.5 * s, s)
        return centroid_quadrature(params, ExcludedInterval(-s, 1.5 * s), 0.25 * s)

    unit = solve(1.0)
    scaled = solve(sigma)
    assert math.isclose(scaled.value / sigma, unit.value, rel_tol=1e-12)
    assert math.isclose(scaled.support_mass, unit.support_mass, rel_tol=1e-12)
    assert math.isclose(scaled.abs_error_bound / sigma, unit.abs_error_bound, rel_tol=1e-6)


def test_symmetric_hole_is_exactly_zero_at_any_scale():
    # Mirror rays give exactly opposite moments, so no residue is scaled up.
    for sigma in (1.0, 1e200, 1e308):
        params = GaussianParams(0.0, sigma)
        result = centroid_quadrature(params, ExcludedInterval(-1.0, 1.0), 0.0)
        assert result.value == 0.0


def test_abs_error_bound_reported():
    params = GaussianParams(1.0, 2.0)
    hole = ExcludedInterval(-1.0, 4.0)
    result = centroid_quadrature(params, hole, 2.0)
    closed = centroid_exterior(params, hole, 2.0)
    assert closed.abs_error_bound is None
    assert 0.0 < result.abs_error_bound < 1e-11
    assert abs(result.value - closed.value) <= result.abs_error_bound


def test_abs_error_bound_formula():
    # The bound as the module docstring states it, rebuilt from the rays.
    eps = 2.220446049250313e-16
    assert MOMENT_REMAINDER == 2.0 * std_pdf(12.0)
    assert MASS_REMAINDER == MOMENT_REMAINDER / 12.0
    for params, hole, shift in (
        (REF_PARAMS, REF_HOLE, 2.0),
        (GaussianParams(3e5, 0.1), ExcludedInterval(3e5 - 0.2, 3e5 + 0.05), 0.03),
    ):
        loc, (a, b), left, right = _rays(params, hole, shift)
        m, r = left[0] + right[0], (left[1] + right[1]) / (left[0] + right[0])
        d_mass = left[2] + right[2] + MASS_REMAINDER
        d_moment = left[3] + right[3] + MOMENT_REMAINDER
        result = centroid_quadrature(params, hole, shift)
        s = (std_pdf(a) * abs(a - r) + std_pdf(b) * abs(b - r)) / m
        rounding = eps * (
            abs(result.value) + params.sigma * abs(r)
            + (1.0 + s) * (abs(loc) + params.sigma * max(abs(a), abs(b)))
        )
        expected = params.sigma * (d_moment + abs(r) * d_mass) / (m - d_mass) + rounding
        assert math.isclose(result.abs_error_bound, expected, rel_tol=1e-12)


def test_low_mass_flag_defined_once():
    assert quadrature.LOW_SUPPORT_MASS is model.LOW_SUPPORT_MASS
    assert centroid.LOW_SUPPORT_MASS is model.LOW_SUPPORT_MASS
    assert quadrature.LOW_MASS_FLOOR is model.LOW_MASS_FLOOR is centroid.LOW_MASS_FLOOR


def test_non_finite_location_rejected():
    for shift in (math.nan, math.inf):
        with pytest.raises(DomainError):
            centroid_quadrature(STD, ExcludedInterval(-1.0, 1.0), shift)
    with pytest.raises(DomainError, match="mu \\+ shift"):
        centroid_quadrature(GaussianParams(1e308, 1.0), ExcludedInterval(-1.0, 1.0), 1e308)
