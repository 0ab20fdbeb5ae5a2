"""Sweep-report tests: counts, determinism, CSV rendering, reference CSV."""

import math
import sys
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from trunc_centroid import verification
from trunc_centroid.centroid import centroid_exterior
from trunc_centroid.cli import _csv, run
from trunc_centroid.errors import ParameterError
from trunc_centroid.figure import (
    REFERENCE_HOLE,
    REFERENCE_PARAMS,
    REFERENCE_SHIFT,
    reference_example_rows,
    reference_figure,
)
from trunc_centroid.philox import CounterStream
from trunc_centroid.special import std_cdf, std_pdf, std_tail
from trunc_centroid.verification import (
    CheckRecord,
    SweepSpec,
    VerificationReport,
    report_rows,
    verify_bounds,
    verify_certificate_positive,
    verify_derivative,
    verify_monotonicity,
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
    # Their ratios are computed nans (0 / 0); each is the one math.nan
    # object, so a second run of the sweep compares equal.
    assert all(type(r) is CheckRecord for r in report.untestable)
    nans = [v for r in report.untestable for v in r[1:] if v != v]
    assert nans and all(v is math.nan for v in nans)
    assert verify_bounds(spec) == report


@pytest.mark.parametrize("sweep", [verify_certificate_positive, verify_bounds])
def test_plane_sweeps_run_in_bounded_memory(sweep):
    # A grid runs in tiles of rows, so no temporary spans its plane: on
    # 1601 x 1601 points (20 MB a float64 plane) the peak stays under
    # 4 MiB.  numpy reports its allocations to tracemalloc.
    spec = SweepSpec((-8.0, 8.0, 0.01), (-8.0, 8.0, 0.01), (0.0, 1.0, 1.0))
    tracemalloc.start()
    try:
        report = sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.checks_run >= 1601 * 1601 and report.passed
    assert peak < 4 * 2**20


_RANDOM_60 = SweepSpec(
    (-60.0, 60.0, 1.0), (-60.0, 60.0, 1.0), (-30.0, 30.0, 1.0), "random", 3000, 7
)
_TILED_SPECS = [
    *(
        (sweep, spec)
        for sweep in (verify_certificate_positive, verify_bounds)
        for spec in (
            # An x1 axis whose values repeat: at 1e16 a step of 0.5 rounds to 0 or 2.
            SweepSpec((1e16, 1e16 + 64.0, 0.5), (-40.0, 40.0, 0.05), (0.0, 1.0, 1.0)),
            SweepSpec((-40.0, 40.0, 2.5), (-40.0, 40.0, 2.5), (0.0, 1.0, 1.0)),
            _RANDOM_60,
        )
    ),
    (verify_monotonicity, SweepSpec((-45.0, 45.0, 5.0), (-45.0, 45.0, 5.0), (-40.0, 40.0, 10.0))),
    (verify_monotonicity, _RANDOM_60),
    # The derivative refuses holes as wide as those above, which leave no
    # support mass, so it takes narrower ones.
    (verify_derivative, verification.DEFAULT_DERIVATIVE_SPEC),
    (verify_derivative, SweepSpec((-8.0, 8.0, 0.5), (-8.0, 8.0, 0.5), (-2.0, 2.0, 0.5))),
    (verify_derivative, verification.DEFAULT_DERIVATIVE_SPEC._replace(mode="random", n_random=3000)),
]


@pytest.mark.parametrize("sweep,spec", _TILED_SPECS)
def test_report_does_not_depend_on_the_tile_size(monkeypatch, sweep, spec):
    monkeypatch.setattr(verification, "_TILE_POINTS", 8192)
    whole = sweep(spec)
    for points in (1, 2, 7, 64):
        monkeypatch.setattr(verification, "_TILE_POINTS", points)
        assert sweep(spec) == whole, points


def test_derivative_wide_range_zero_mass_raises():
    # The quotient-rule form divides by the support mass, which is exactly
    # 0 for some of these holes.
    with pytest.raises(ZeroDivisionError):
        verify_derivative(SweepSpec(**WIDE_RANDOM, seed=3))


def test_derivative_sets_a_subnormal_squared_mass_aside():
    # These holes keep a positive mass whose square is subnormal.  The slope
    # divides by m**2, so its rows there are untestable, not violations.
    # (derivative_fd's verdicts here are rounding, ROADMAP item 7.)
    spec = SweepSpec((-27.0, -26.0, 0.125), (26.0, 27.5, 0.125), (-0.5, 0.5, 0.0625))
    report = verify_derivative(spec)
    assert report.checks_run == 3 * 9 * 13 * 17
    checks = ("derivative_positive", "derivative_forms")
    assert not [r for r in report.violations if r.check in checks]
    for check in checks:
        rows = [r for r in report.untestable if r.check == check]
        assert len(rows) == 609, check
        masses = [std_tail(r.x2 - r.h) + std_cdf(r.x1 - r.h) for r in rows]
        assert all(0.0 < m and m * m < sys.float_info.min for m in masses), check


class _Served:
    """A stand-in stream serving fixed values in order, one take after another."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.at = 0

    def take(self, n):
        self.at += n
        return self.values[self.at - n : self.at]


def _drawn_in_order(stream, spec: SweepSpec, shift_runs: int):
    """A random sweep's points from sequential takes on `stream`: n_random
    lows, n_random highs, then `shift_runs` runs of one shift per hole that
    is kept (a pair whose edges draw equal is dropped)."""

    def take(rng, n):
        return rng[0] + stream.take(n) * (rng[1] - rng[0])

    raw_l, raw_u = take(spec.l_range, spec.n_random), take(spec.u_range, spec.n_random)
    if not shift_runs:
        return raw_l, raw_u
    lower, upper = np.minimum(raw_l, raw_u), np.maximum(raw_l, raw_u)
    keep = upper > lower
    shifts = [take(spec.h_range, int(keep.sum())) for _ in range(shift_runs)]
    return lower[keep], upper[keep], *shifts


def _checks(monkeypatch, sweep, spec: SweepSpec) -> dict:
    """The checks, by name, that a sweep hands to its report."""
    seen = {}
    monkeypatch.setattr(
        verification, "_report", lambda name, checks: seen.update((c.name, c) for c in checks)
    )
    sweep(spec)
    return seen


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def _assert_points(monkeypatch, make_stream, spec: SweepSpec) -> None:
    """Each random sweep evaluates the points of its stream read in order."""
    x1, x2 = _drawn_in_order(make_stream(spec.seed, 3), spec, 0)
    check = _checks(monkeypatch, verify_certificate_positive, spec)["certificate_positive"]
    assert _same(check.x1, x1) and _same(check.x2, x2)

    xs1, xs2 = _drawn_in_order(make_stream(spec.seed, 4), spec, 0)
    checks = _checks(monkeypatch, verify_bounds, spec)
    assert _same(checks["tail_ratio_bound"].x1, xs1)
    assert _same(checks["summed_bound"].x1, xs1) and _same(checks["summed_bound"].x2, xs2)

    l, u, h = _drawn_in_order(make_stream(spec.seed, 5), spec, 1)
    check = _checks(monkeypatch, verify_derivative, spec)["derivative_positive"]
    assert _same(check.x1, l) and _same(check.x2, u) and _same(check.h, h)

    l, u, raw_h1, raw_h2 = _drawn_in_order(make_stream(spec.seed, 2), spec, 2)
    checks = _checks(monkeypatch, verify_monotonicity, spec)
    rise = checks["monotonicity"]
    assert _same(rise.x1, l) and _same(rise.x2, u)
    assert _same(rise.h, np.maximum(raw_h1, raw_h2))
    assert _same(rise.where, raw_h1 != raw_h2)
    # rhs is the centroid at the smaller shift of each pair.
    h1 = np.minimum(raw_h1, raw_h2)
    psi1, _ = verification._centroids(h1, *verification._densities(h1, l, u))
    assert _same(rise.rhs, psi1)


@pytest.mark.parametrize("seed", [5, 6])
def test_random_sweeps_read_their_streams_in_order(monkeypatch, seed):
    spec = SweepSpec(
        l_range=(-5.0, 5.0, 0.5),
        u_range=(-4.0, 6.0, 0.5),
        h_range=(-3.0, 3.0, 0.5),
        mode="random",
        n_random=300,
        seed=seed,
    )
    _assert_points(monkeypatch, CounterStream, spec)


def test_hole_whose_edges_draw_equal_shortens_the_shift_runs(monkeypatch):
    # The second pair draws 0.5 twice and is dropped: three holes remain,
    # so the shifts are the next three values and, for monotonicity, the
    # three after those; the values past them are never read.
    lows, highs = [0.1, 0.5, 0.7, 0.2], [0.3, 0.5, 0.1, 0.9]
    values = lows + highs + [0.11, 0.12, 0.13, 0.21, 0.22, 0.23, 0.98, 0.99]
    monkeypatch.setattr(verification, "CounterStream", lambda seed, stream: _Served(values))
    unit = (0.0, 1.0, 0.5)
    spec = SweepSpec(unit, unit, unit, mode="random", n_random=4, seed=0)
    l, u, h1, h2 = _drawn_in_order(_Served(values), spec, 2)
    assert l.tolist() == [0.1, 0.1, 0.2] and u.tolist() == [0.3, 0.7, 0.9]
    assert h1.tolist() == [0.11, 0.12, 0.13] and h2.tolist() == [0.21, 0.22, 0.23]
    _assert_points(monkeypatch, lambda seed, stream: _Served(values), spec)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(l_range=(1.0, 0.0, 0.5)),
        dict(l_range=(0.0, 1.0, 0.0)),
        dict(l_range=(0.0, 1.0, -0.5)),
        dict(l_range=(0.0, math.inf, 0.5)),
        dict(l_range=(0, 10**400, 1)),
        dict(mode="fuzz"),
        dict(mode="random", n_random=0),
        dict(mode="random", n_random=2.5),
        dict(mode="random", n_random="3"),
        dict(mode="random", n_random=1, seed=1.5),
        dict(mode="random", n_random=1, seed=None),
        dict(n_random=2.0),
        dict(l_range=(0.0, 1.0)),
        dict(u_range=None),
        dict(h_range=("a", 1.0, 1.0)),
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


@pytest.mark.parametrize(
    "field,value",
    [
        ("l_range", (0.0, 1.0)),
        ("u_range", None),
        ("h_range", ("a", 1.0, 1.0)),
        # float() would parse these; the sweeps would not.
        ("u_range", ("0", "1", 0.5)),
        # Ints past Python's 4300-digit int-to-str limit are quoted short.
        ("l_range", (0, 10**5000)),
        ("h_range", [10**5000, 0, 1, 2]),
    ],
)
def test_sweep_spec_names_a_malformed_range(field, value):
    ranges = dict(l_range=(0.0, 1.0, 1.0), u_range=(0.0, 1.0, 1.0), h_range=(0.0, 1.0, 1.0))
    with pytest.raises(ParameterError, match=f"^{field} must be three numbers, got "):
        SweepSpec(**{**ranges, field: value})


@pytest.mark.parametrize("field,value", [("n_random", 2.5), ("n_random", "3"), ("seed", None)])
def test_sweep_spec_names_a_count_that_is_not_an_integer(field, value):
    unit = (0.0, 1.0, 1.0)
    with pytest.raises(ParameterError, match=f"^{field} must be an integer, got {value!r}$"):
        SweepSpec(unit, unit, unit, mode="random", **{"n_random": 1, field: value})
    # Whatever operator.index takes passes: a bool, a numpy integer.
    spec = SweepSpec(unit, unit, unit, "random", True, np.int64(7))
    assert spec == SweepSpec(unit, unit, unit, "random", 1, 7) and type(spec.seed) is int


@pytest.mark.parametrize(
    "check", [verify_monotonicity, verify_certificate_positive, verify_bounds, verify_derivative]
)
def test_grid_whose_point_count_overflows_is_refused(check):
    # 1e300 / 1e-300 steps overflow to inf; the spec is valid, and only
    # grid mode refuses it.
    spec = SweepSpec((0.0, 1e300, 1e-300), (-1.0, 1.0, 0.5), (0.0, 1.0, 1.0))
    with pytest.raises(ParameterError, match="too many points to grid"):
        check(spec)


@pytest.mark.parametrize(
    "check", [verify_monotonicity, verify_certificate_positive, verify_bounds, verify_derivative]
)
def test_random_sweep_of_2_53_draws_or_more_is_refused(check):
    # Every sweep reads at least two draws a hole, so 2^52 holes reach 2^53
    # draws; they are refused before any is taken.
    unit = (0.0, 1.0, 1.0)
    for n_random in (2**52, 10**5000):
        spec = SweepSpec(unit, unit, unit, mode="random", n_random=n_random, seed=1)
        with pytest.raises(ParameterError, match=r"is too many draws \(2\^53 or more\)"):
            check(spec)


@pytest.mark.parametrize(
    "check", [verify_monotonicity, verify_certificate_positive, verify_bounds, verify_derivative]
)
def test_random_range_whose_width_overflows_is_refused(check):
    # max - min overflows to inf, and min + u * inf lies outside the range.
    # The plane sweeps (certificate, bounds) draw no shift, so a wide
    # h_range is theirs to ignore.
    wide, unit = (-1e308, 1e308, 1.0), (0.0, 1.0, 1.0)
    random = dict(mode="random", n_random=4, seed=1)
    refused = [SweepSpec(wide, unit, unit, **random), SweepSpec(unit, wide, unit, **random)]
    wide_h = SweepSpec(unit, unit, wide, **random)
    if check in (verify_certificate_positive, verify_bounds):
        assert check(wide_h).checks_run > 0
    else:
        refused.append(wide_h)
    for spec in refused:
        with pytest.raises(ParameterError, match=r"_range \(-1e\+308, 1e\+308, 1\.0\) is too wide"):
            check(spec)


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
    text = _csv(",".join(CheckRecord._fields), report_rows([report]))
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


def test_reference_figure_text(capsys):
    assert run(["figure"]) == 0
    text = capsys.readouterr().out
    rows, base, shifted = reference_figure()
    assert rows[-1] == ("centroid", base, shifted)
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
    assert base == centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, 0.0).value
    assert (
        shifted
        == centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, REFERENCE_SHIFT).value
    )
