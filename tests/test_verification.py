"""Sweep-report tests: counts, determinism, CSV rendering, reference CSV."""

import math

import pytest

from trunc_centroid.centroid import centroid_exterior
from trunc_centroid.errors import ParameterError
from trunc_centroid.special import std_pdf
from trunc_centroid.verification import (
    CheckRecord,
    REFERENCE_HOLE,
    REFERENCE_PARAMS,
    REFERENCE_SHIFT,
    SweepSpec,
    VerificationReport,
    reference_example_rows,
    render_reference_figure,
    render_report_csv,
    verify_bounds,
    verify_certificate_positive,
    verify_derivative,
    verify_monotonicity,
    write_reference_figure,
    write_report_csv,
)

WIDE_RANDOM = dict(
    l_range=(-60.0, 60.0, 1.0),
    u_range=(-60.0, 60.0, 1.0),
    h_range=(-30.0, 30.0, 1.0),
    mode="random",
    n_random=500,
)

COARSE_PLANE = SweepSpec(
    l_range=(-8.0, 8.0, 0.25),
    u_range=(-8.0, 8.0, 0.25),
    h_range=(0.0, 1.0, 1.0),
)


def test_monotonicity_default_grid_clean():
    report = verify_monotonicity()
    # 210 ordered hole pairs x (12 adjacent shift pairs + 11 nonzero signs)
    assert report.checks_run == 210 * 23
    assert report.violations == ()
    assert report.untestable == ()
    assert report.passed
    assert report.min_margin > 0.0
    assert report.min_margin_record.check in ("monotonicity", "shift_sign")


def test_monotonicity_random_mode_deterministic():
    spec = SweepSpec(
        l_range=(-5.0, 5.0, 0.5),
        u_range=(-5.0, 5.0, 0.5),
        h_range=(0.0, 3.0, 0.5),
        mode="random",
        n_random=300,
        seed=71,
    )
    a = verify_monotonicity(spec)
    b = verify_monotonicity(spec)
    assert a == b
    assert a.violations == ()
    assert a.checks_run >= 2 * 290  # a few pairs may collapse to equal draws
    other = verify_monotonicity(
        SweepSpec(
            l_range=spec.l_range,
            u_range=spec.u_range,
            h_range=spec.h_range,
            mode="random",
            n_random=300,
            seed=72,
        )
    )
    assert other.min_margin_record != a.min_margin_record


def test_certificate_plane_clean():
    report = verify_certificate_positive(COARSE_PLANE)
    assert report.checks_run == 65 * 65
    assert report.violations == ()
    assert report.min_margin > 0.0


def test_bounds_plane_clean():
    report = verify_bounds(COARSE_PLANE)
    # 65 abscissae x 4 single checks + 65x65 summed checks
    assert report.checks_run == 65 * 4 + 65 * 65
    assert report.violations == ()
    assert report.untestable == ()
    assert report.min_margin > 0.0


def test_derivative_default_grid_clean():
    report = verify_derivative()
    assert report.violations == ()
    assert report.checks_run == 6885
    assert report.min_margin > 0.0


def test_bounds_wide_range_sets_faint_densities_aside():
    # Past |x| ~ 37.6 the density is subnormal or 0; the ratio checks there
    # are untestable, not violations or a division by zero.
    spec = SweepSpec(**WIDE_RANDOM, seed=3)
    report = verify_bounds(spec)
    assert report.checks_run == 500 * 5
    assert type(report.checks_run) is int
    assert report.violations == ()
    assert report.untestable
    checks = {r.check for r in report.untestable}
    assert {"tail_ratio_bound", "cdf_ratio_bound"} <= checks
    faint = [r for r in report.untestable if r.check.endswith("ratio_bound")]
    assert all(abs(r.x1) > 37.5 for r in faint)
    assert report.min_margin > 0.0
    assert verify_bounds(spec) == report


def test_derivative_wide_range_zero_mass_raises():
    # The quotient-rule form divides by the support mass, which is exactly
    # 0 for some of these holes.
    with pytest.raises(ZeroDivisionError):
        verify_derivative(SweepSpec(**WIDE_RANDOM, seed=3))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(l_range=(1.0, 0.0, 0.5)),
        dict(l_range=(0.0, 1.0, 0.0)),
        dict(l_range=(0.0, 1.0, -0.5)),
        dict(l_range=(0.0, math.inf, 0.5)),
        dict(mode="fuzz"),
        dict(mode="random", n_random=0),
    ],
)
def test_sweep_spec_validation(kwargs):
    base = dict(
        l_range=(-1.0, 1.0, 0.5),
        u_range=(-1.0, 1.0, 0.5),
        h_range=(-1.0, 1.0, 0.5),
    )
    base.update(kwargs)
    with pytest.raises(ParameterError):
        SweepSpec(**base)


def test_report_csv_rendering_exact():
    bad = CheckRecord("monotonicity", -1.0, 1.0, 0.5, 0.25, 0.5, -0.25)
    tiny = CheckRecord("certificate_positive", 8.0, -8.0, math.nan, 1e-290, 0.0, 1e-290)
    report = VerificationReport(
        name="demo",
        checks_run=3,
        violations=(bad,),
        untestable=(tiny,),
        min_margin=-0.25,
        min_margin_record=bad,
    )
    text = render_report_csv([report])
    lines = text.splitlines()
    assert lines[0] == "check,x1,x2,h,lhs,rhs,margin"
    assert lines[1] == "monotonicity,-1,1,0.5,0.25,0.5,-0.25"
    assert (
        lines[2]
        == "certificate_positive:untestable-strict,8,-8,nan,1.0000000000000001e-290,0,1.0000000000000001e-290"
    )
    assert lines[3] == "monotonicity:min_margin,-1,1,0.5,0.25,0.5,-0.25"
    assert len(lines) == 4
    assert text.endswith("\n")


def test_report_csv_round_trips_to_disk(tmp_path):
    report = verify_certificate_positive(
        SweepSpec(
            l_range=(-2.0, 2.0, 1.0),
            u_range=(-2.0, 2.0, 1.0),
            h_range=(0.0, 1.0, 1.0),
        )
    )
    path = tmp_path / "report.csv"
    write_report_csv([report], str(path))
    assert path.read_bytes().decode("utf-8") == render_report_csv([report])
    assert b"\r" not in path.read_bytes()


def test_reference_rows_shape_and_mask():
    rows = reference_example_rows()
    assert len(rows) == 2001
    assert rows[0][0] == -8.0
    assert rows[-1][0] == 12.0
    by_x = {x: (fx, fy) for x, fx, fy in rows}
    # closed support: both edges carry density
    assert by_x[-1.0][0] > 0.0
    assert by_x[4.0][0] > 0.0
    # strictly inside the hole: masked to zero
    assert by_x[0.0] == (0.0, 0.0)
    assert by_x[3.99][0] == 0.0
    assert by_x[-0.99][1] == 0.0
    assert by_x[-2.0][0] == std_pdf(-1.5) / 2.0
    assert by_x[-2.0][1] == std_pdf(-2.5) / 2.0


def test_reference_figure_text():
    text, base, shifted = render_reference_figure()
    lines = text.splitlines()
    assert len(lines) == 2003
    assert lines[0] == "x,fX_masked,fY_masked"
    assert lines[801] == "0,0,0"
    expected_fx = format(std_pdf(-1.5) / 2.0, ".17g")
    expected_fy = format(std_pdf(-2.5) / 2.0, ".17g")
    assert lines[601] == f"-2,{expected_fx},{expected_fy}"
    tag, base_cell, shifted_cell = lines[-1].split(",")
    assert tag == "centroid"
    assert float(base_cell) == base
    assert float(shifted_cell) == shifted
    assert abs(base - 0.0025) < 5e-4
    assert abs(shifted - 4.7995) < 5e-4
    assert "\r" not in text


def test_reference_figure_file(tmp_path):
    path = tmp_path / "figure.csv"
    base, shifted = write_reference_figure(str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    expected_text, expected_base, expected_shifted = render_reference_figure()
    assert text == expected_text
    assert (base, shifted) == (expected_base, expected_shifted)
    assert base == centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, 0.0).value
    assert (
        shifted
        == centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, REFERENCE_SHIFT).value
    )
