"""Numerical sweeps over every strict inequality behind the centroid result.

Each verify_* function walks a grid (or a seeded random cloud) of inputs
of one of two shapes, an (x1, x2) plane (certificate, bounds) or holes
(lower, upper) with shifts (monotonicity, derivative), evaluates one family
of strict inequalities, and returns a report instead of raising: a sweep
is an experiment, and the acceptance suite decides what its output means.

A point is set aside as "untestable-strict", rather than counted as a
pass or a failure, when double precision cannot vouch for its strict
inequality: its margin is not finite or below 1e-280 in magnitude, or an
array it divides by (a divisor its check names) is subnormal, too short
of digits to carry the comparison.  _report alone applies this rule.
Reports are deterministic for a given (spec, seed).

The sweeps evaluate the paper's formulas, which its argument is about:
the centroid ratio h + (pdf(u - h) - pdf(l - h)) / m, and the slope as the
certificate over m**2 and in quotient-rule form.  They compute them as
numpy arrays, so margins have the bits of those formulas, not of
std_exterior_centroid.  std_*_array call math.exp and math.erfc on each
element, unchecked (numpy's exp differs in the last bit on some inputs;
numpy has no erfc), for the bits of special's scalar functions; on a
grid they run on the 1-D axes only, broadcast over the plane.  Those
libm calls are the floor of a sweep's cost.  The element-wise arithmetic
runs in tiles of at most 8192 points (one row at least): runs of rows of
the outer axis (x1, or the hole's lower edge), or of a random cloud's
points, so no temporary spans the plane.  The report folds the tiles:
only the rows it keeps (violations, untestable points, the minimum
margin) become CheckRecords.  A random sweep reads its Philox stream (2
to 5, in the order of the verify_* functions below) as one contiguous
run: n_random lows, n_random highs, then one shift per hole kept (a pair
whose edges draw equal is dropped), twice over for monotonicity.

report_rows lists a report's rows under CheckRecord's fixed columns

    check,x1,x2,h,lhs,rhs,margin

where a column a check does not use holds nan; the CLI formats them.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Any, Iterable, NamedTuple

import numpy as np

from .centroid import _certificate_from
from .errors import ParameterError, _float, _integer, _quote
from .model import _make_checked
from .philox import CounterStream
from .special import INV_SQRT2, INV_SQRT_2PI

UNTESTABLE_FLOOR = 1e-280
# Dividing by a density or a mass below this (a subnormal) leaves too few digits.
_DENSITY_FLOOR = sys.float_info.min
# Points in a tile of a sweep: a float64 temporary of 64 KiB stays under
# glibc's 128 KiB mmap threshold, so the heap reuses it, not faulted in anew.
_TILE_POINTS = 8192


class SweepSpec(
    NamedTuple(
        "SweepSpec",
        [("l_range", tuple), ("u_range", tuple), ("h_range", tuple),
         ("mode", str), ("n_random", int), ("seed", int)],
    )
):
    """The grid, or the seeded random cloud, a sweep walks; a range is (min, max, step).
    The plane sweeps (certificate, bounds) ignore h_range but still check it."""

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, l_range, u_range, h_range, mode="grid", n_random=0, seed=0) -> SweepSpec:
        for name, rng in (("l_range", l_range), ("u_range", u_range), ("h_range", h_range)):
            try:
                lo, hi, step = rng
                if any(isinstance(v, (str, bytes, bytearray)) for v in (lo, hi, step)):
                    raise TypeError  # float() parses a string; the sweeps would not
                finite = all(math.isfinite(_float(v)) for v in (lo, hi, step))
            except (TypeError, ValueError):
                raise ParameterError(f"{name} must be three numbers, got {_quote(rng)}") from None
            if not finite:
                raise ParameterError(f"{name} must be finite, got {_quote(rng)}")
            if not lo < hi:
                raise ParameterError(f"{name} needs min < max, got {_quote(rng)}")
            if not step > 0.0:
                raise ParameterError(f"{name} needs step > 0, got {_quote(rng)}")
        if mode not in ("grid", "random"):
            raise ParameterError(f"mode must be grid or random, got {mode!r}")
        n_random, seed = _integer(n_random, "n_random"), _integer(seed, "seed")
        if mode == "random" and n_random < 1:
            raise ParameterError("random mode needs n_random >= 1")
        return super().__new__(cls, l_range, u_range, h_range, mode, n_random, seed)


class CheckRecord(NamedTuple):
    check: str
    x1: float
    x2: float
    h: float
    lhs: float
    rhs: float
    margin: float


class VerificationReport(NamedTuple):
    name: str
    checks_run: int
    violations: tuple[CheckRecord, ...]
    untestable: tuple[CheckRecord, ...]
    min_margin: float
    min_margin_record: CheckRecord | None

    @property
    def passed(self) -> bool:
        # A sweep that checked no point, or no testable one, has shown nothing.
        return self.checks_run > len(self.untestable) and not self.violations


DEFAULT_MONOTONICITY_SPEC = SweepSpec(
    l_range=(-5.0, 5.0, 0.5),
    u_range=(-5.0, 5.0, 0.5),
    h_range=(-3.0, 3.0, 0.5),
)
DEFAULT_CERTIFICATE_SPEC = SweepSpec(
    l_range=(-8.0, 8.0, 0.05),
    u_range=(-8.0, 8.0, 0.05),
    h_range=(0.0, 1.0, 1.0),
)
DEFAULT_BOUNDS_SPEC = DEFAULT_CERTIFICATE_SPEC
DEFAULT_DERIVATIVE_SPEC = SweepSpec(
    l_range=(-4.0, 3.0, 0.5),
    u_range=(-3.5, 4.0, 0.5),
    h_range=(-2.0, 2.0, 0.25),
)


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn applied to every element of x, in an array of x's shape."""
    x = np.asarray(x, dtype=float)
    # A memoryview yields the elements as Python floats without a list.
    return np.fromiter(map(fn, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def std_pdf_array(x: np.ndarray) -> np.ndarray:
    """std_pdf at every element of x."""
    return INV_SQRT_2PI * _elementwise(math.exp, -0.5 * (x * x))


def std_cdf_array(x: np.ndarray) -> np.ndarray:
    """std_cdf at every element of x."""
    return 0.5 * _elementwise(math.erfc, -x * INV_SQRT2)


def std_tail_array(x: np.ndarray) -> np.ndarray:
    """std_tail at every element of x."""
    return 0.5 * _elementwise(math.erfc, x * INV_SQRT2)


def _grid(rng: tuple[float, float, float]) -> np.ndarray:
    lo, hi, step = rng
    # Past 2^53 points the indices round, and an overflowing span is inf.
    steps = (hi - lo) / step + 1e-9
    if not steps < 2.0**53:
        raise ParameterError(f"range {rng!r} has too many points to grid")
    return lo + np.arange(math.floor(steps) + 1) * step


class _Check(NamedTuple):
    """One check of a sweep, over arrays that broadcast together.

    Its rows are the points `where` selects, taken in C order, which is
    the order the sweep enumerates them.  `divisors` are the arrays its
    margin divides by; a point where one is subnormal is untestable.
    """

    name: str
    where: Any
    x1: Any
    x2: Any
    h: Any
    lhs: Any
    rhs: Any
    margin: Any
    divisors: tuple = ()


def _tiled(checks, *axes):
    """The _Checks of checks(*tile) for each tile of axes, in order.  A tile
    cuts each array (none is 0-d) to one run of rows along axis 0: at most
    _TILE_POINTS points, or one row where a row has more.  An array whose
    axis 0 has length 1 is broadcast over the rows: every tile takes it whole."""
    rows = max(len(a) for a in axes)
    step = max(1, _TILE_POINTS // max(1, *(math.prod(a.shape[1:]) for a in axes)))
    for start in range(0, rows, step):
        yield from checks(*(a[start : start + step] if len(a) > 1 else a for a in axes))


def _floats(column: np.ndarray) -> list[float]:
    """The column as floats; one nan object keeps equal reports equal under ==."""
    cells = column.astype(object)
    cells[np.isnan(column)] = math.nan
    return cells.tolist()


def _kept(check: _Check, shape, mask) -> list[list[np.ndarray]]:
    """[x1, x2, h, lhs, rhs, margin at the points mask selects, in C order], or []."""
    if not mask.any():
        return []
    at = np.unravel_index(np.flatnonzero(mask), shape)
    # A constant column ties in the sort.
    return [[np.broadcast_to(c, shape)[at] for c in check[2:8]]]


def _records(name: str, kept: list[list[np.ndarray]]) -> list[CheckRecord]:
    """Records of one check's rows that _kept gathered, tile by tile, sorted by
    x1, then x2, then h: nan sorts last, and rows that tie keep sweep order."""
    if not kept:
        return []
    columns = [np.concatenate(c) for c in zip(*kept)]
    order = np.lexsort(columns[2::-1])
    rows = zip(itertools.repeat(name), *(_floats(c[order]) for c in columns))
    return list(map(tuple.__new__, itertools.repeat(CheckRecord), rows))


def _report(name: str, checks: Iterable[_Check]) -> VerificationReport:
    """Counts, sorted violations and untestable rows, and the minimum margin,
    folded over checks that may give one check's points tile by tile.

    Rows sort by check name, then as _records sorts them.  The minimum is
    the first row in that order among the testable rows of least margin.
    """
    # Per check: checks_run, kept untestable and violating rows, the least
    # margin, its kept rows, and the last tile that holds it, still unkept.
    folds: dict[str, list] = {}
    for check in checks:
        fold = folds.setdefault(check.name, [0, [], [], math.inf, [], None])
        shape = np.broadcast_shapes(*(np.shape(a) for a in check[1:-1]))
        margin = np.broadcast_to(check.margin, shape)
        size = np.abs(margin)
        # nan and the infinities fail one of the two comparisons.  A Python
        # bool stays out of the masks: numpy ands it with an array slowly.
        testable = (size >= UNTESTABLE_FLOOR) & (size < math.inf)
        for divisor in check.divisors:
            testable &= divisor >= _DENSITY_FLOOR
        if check.where is not True:
            testable &= check.where
        unsure = testable ^ check.where
        fold[0] += int(np.count_nonzero(testable)) + int(np.count_nonzero(unsure))
        fold[1] += _kept(check, shape, unsure)
        fold[2] += _kept(check, shape, testable & (margin <= 0.0))
        # With no testable point m is inf.  A lower margin drops the rows
        # kept so far, and a tie keeps them.
        m = np.min(margin, where=testable, initial=math.inf)
        if m < fold[3] or m == fold[3] < math.inf:
            lowest = fold[4] + _kept(*fold[5]) if m == fold[3] else []
            fold[3:] = m, lowest, (check, shape, testable & (margin == m))
    checks_run, violations, untestable, low, best = 0, [], [], math.inf, None
    for check, (run, unsure, bad, m, lowest, last) in sorted(folds.items()):
        checks_run += run
        untestable += _records(check, unsure)
        violations += _records(check, bad)
        if m < low:
            low, best = m, _records(check, lowest + _kept(*last))[0]
    least = math.nan if best is None else best.margin
    return VerificationReport(name, checks_run, tuple(violations), tuple(untestable), least, best)


def _quotient_slope_from(ru, rl, f_ru, f_rl, m):
    """The slope in quotient-rule form: algebraically the certificate / m**2."""
    ratio = (f_ru - f_rl) / m
    return 1.0 + (ru * f_ru - rl * f_rl) / m - ratio * ratio


def _densities(shift, lower, upper):
    """The libm calls of _centroids: std_tail and std_pdf at upper - shift,
    std_cdf and std_pdf at lower - shift."""
    ru = upper - shift
    rl = lower - shift
    return std_tail_array(ru), std_pdf_array(ru), std_cdf_array(rl), std_pdf_array(rl)


def _centroids(shift, tail_ru, f_ru, cdf_rl, f_rl):
    """The paper's centroid ratio from _densities, and its mass, the divisor."""
    mass = tail_ru + cdf_rl
    return shift + (f_ru - f_rl) / mass, mass


def _random_points(spec: SweepSpec, stream: int, rows: int) -> list[np.ndarray]:
    """rows * n_random uniforms from one take of the sweep's stream: n_random
    lows over l_range, n_random highs over u_range, then shifts over h_range."""
    count = rows * spec.n_random
    if count >= 2**53:
        raise ParameterError(
            f"{rows} x n_random = {_quote(count)} is too many draws (2^53 or more)"
        )
    # With rows = 2 no shift is drawn, so h_range may be as wide as it likes.
    for name, rng in zip(("l_range", "u_range", "h_range")[:rows], spec):
        if not math.isfinite(rng[1] - rng[0]):
            raise ParameterError(f"{name} {rng!r} is too wide to draw from: max - min overflows")
    draws = CounterStream(spec.seed, stream).take(count)
    runs = np.split(draws, (spec.n_random, 2 * spec.n_random))
    return [lo + run * (hi - lo) for (lo, hi, _), run in zip(spec[:3], runs)]


def _plane(spec: SweepSpec, stream: int):
    """(x1, x2): a grid column over l_range and a row over u_range, or the random pairs."""
    if spec.mode == "grid":
        return _grid(spec.l_range)[:, None], _grid(spec.u_range)[None, :]
    return _random_points(spec, stream, rows=2)[:2]


def _holes(spec: SweepSpec, stream: int, rows: int):
    """(lower, upper, shifts, where): grid axes 0, 1 and 2, where = upper > lower;
    or the random holes (a pair that draws equal goes) and the rows - 2 runs
    drawn after them of one shift per kept hole, end to end."""
    if spec.mode == "grid":
        l = _grid(spec.l_range)[:, None, None]
        u = _grid(spec.u_range)[None, :, None]
        return l, u, _grid(spec.h_range)[None, None, :], u > l
    raw_l, raw_u, hs = _random_points(spec, stream, rows)
    keep = raw_l != raw_u
    l, u = np.minimum(raw_l, raw_u)[keep], np.maximum(raw_l, raw_u)[keep]
    return l, u, hs[: (rows - 2) * l.size], np.ones(l.shape, dtype=bool)


def verify_monotonicity(spec: SweepSpec = DEFAULT_MONOTONICITY_SPEC) -> VerificationReport:
    """Centroid strictly increases with the shift, for every hole.

    Rows: x1 = hole lower, x2 = hole upper, h = the larger shift of the
    pair; lhs/rhs are the centroids at the larger and smaller shift.
    The companion shift_sign rows compare the centroid at that shift with
    the unshifted one, both from the same array ratio: lhs is their
    difference, rhs is 0, and the margin is the difference signed by h.
    Divisors: the support masses of the two centroids a row compares.
    """
    l, u, hs, where = _holes(spec, stream=2, rows=4)
    if spec.mode == "grid":
        h1, h2 = hs[..., :-1], hs[..., 1:]
    else:
        raw_h1, raw_h2 = np.split(hs, 2)
        h1, h2 = np.minimum(raw_h1, raw_h2), np.maximum(raw_h1, raw_h2)
        where = raw_h1 != raw_h2

    def tile(l, u, h1, h2, where, *densities):
        psi1, m1 = _centroids(h1, *densities[:4])
        psi2, m2 = _centroids(h2, *densities[4:8])
        psi0, m0 = _centroids(0.0, *densities[8:])
        moved = where & (h2 != 0.0)
        delta = psi2 - psi0
        signed = np.where(h2 > 0.0, delta, -delta)
        rise = psi2 - psi1
        return [
            _Check("monotonicity", where, l, u, h2, psi2, psi1, rise, (m1, m2)),
            _Check("shift_sign", moved, l, u, h2, delta, 0.0, signed, (m2, m0)),
        ]

    with np.errstate(all="ignore"):
        densities = [d for h in (h1, h2, 0.0) for d in _densities(h, l, u)]
        return _report("monotonicity", _tiled(tile, l, u, h1, h2, where, *densities))


def verify_certificate_positive(spec: SweepSpec = DEFAULT_CERTIFICATE_SPEC) -> VerificationReport:
    """The slope certificate is positive over the (x1, x2) plane.

    l_range and u_range parameterize the two arguments directly; there
    is no ordering constraint between them.  Divisors: none.
    """
    x1, x2 = _plane(spec, stream=3)

    def tile(x1, x2, tail1, cdf2, f1, f2):
        value = _certificate_from(x1, x2, f1, f2, tail1 + cdf2)
        return [_Check("certificate_positive", True, x1, x2, math.nan, value, 0.0, value)]

    with np.errstate(all="ignore"):
        libm = std_tail_array(x1), std_cdf_array(x2), std_pdf_array(x1), std_pdf_array(x2)
        return _report("certificate_positive", _tiled(tile, x1, x2, *libm))


def verify_bounds(spec: SweepSpec = DEFAULT_BOUNDS_SPEC) -> VerificationReport:
    """The Mills-ratio bounds, their linear forms, and the summed form.

    One-dimensional checks run over l_range (as x1); the summed
    two-variable form runs over l_range x u_range.  Divisors: the density
    at x for the two ratio bounds, none for the linear and summed forms.
    """
    x, x2 = _plane(spec, stream=4)
    nan = math.nan
    with np.errstate(all="ignore"):
        f = std_pdf_array(x)
        tail = std_tail_array(x)
        cdf = std_cdf_array(x)
        root = np.sqrt(x * x + 4.0)
        # The right-hand sides are the paper's forms (sqrt(x*x + 4) -/+ x) / 4
        # of the bounds that mills_lower_bound_tail and _cdf evaluate.
        sides = [
            ("tail_ratio_bound", tail / (2.0 * f), (root - x) / 4.0, (f,)),
            ("cdf_ratio_bound", cdf / (2.0 * f), (root + x) / 4.0, (f,)),
            ("tail_linear_bound", 2.0 * tail + x * f, root * f, ()),
            ("cdf_linear_bound", 2.0 * cdf - x * f, root * f, ()),
        ]
        checks = [_Check(c, True, x, nan, nan, lhs, rhs, lhs - rhs, d) for c, lhs, rhs, d in sides]

        def summed(x1, f1, tail1, root1, x2, f2, cdf2):
            lhs = 2.0 * (tail1 + cdf2) + (x1 * f1 - x2 * f2)
            rhs = root1 * f1 + np.sqrt(x2 * x2 + 4.0) * f2
            return [_Check("summed_bound", True, x1, x2, nan, lhs, rhs, lhs - rhs)]

        axes = x, f, tail, root, x2, std_pdf_array(x2), std_cdf_array(x2)
        return _report("bounds", itertools.chain(checks, _tiled(summed, *axes)))


def verify_derivative(spec: SweepSpec = DEFAULT_DERIVATIVE_SPEC) -> VerificationReport:
    """Analytic slope vs central differences, plus the two algebraic forms.

    Rows: x1 = hole lower, x2 = hole upper, h = shift.  The derivative_fd
    margin is 1e-6 minus the relative error; derivative_forms margin is
    the scaled 1e-10 agreement slack; derivative_positive is the value.
    Divisors: the slope's m**2, for all three (where it is normal, so are
    the masses at h +/- eps, which a 1e-5 shift scales by under e**3e-4).

    Raises ZeroDivisionError where the support mass underflows to 0, as the
    quotient-rule form divides by it; it checks before the libm calls at
    h +/- eps, so a refused sweep does not pay for them.
    """
    eps = 1e-5
    l, u, h, where = _holes(spec, stream=5, rows=3)

    def tile(l, u, h, where, ru, rl, tail_ru, f_ru, cdf_rl, f_rl, *near):
        m = tail_ru + cdf_rl
        m_squared = m * m
        slope = _certificate_from(ru, rl, f_ru, f_rl, m) / m_squared
        quotient = _quotient_slope_from(ru, rl, f_ru, f_rl, m)
        # fmax skips nan as the builtin max(1.0, ...) does.
        scale = np.fmax(np.fmax(1.0, np.abs(slope)), np.abs(quotient))
        forms = 1e-10 * scale - np.abs(slope - quotient)
        steep = where & (np.abs(slope) > 1e-8)
        up, _ = _centroids(h + eps, *near[:4])
        down, _ = _centroids(h - eps, *near[4:])
        fd = (up - down) / (2.0 * eps)
        fd_margin = 1e-6 - np.abs(slope - fd) / np.maximum(np.abs(fd), 1e-300)
        return [
            _Check("derivative_positive", where, l, u, h, slope, 0.0, slope, (m_squared,)),
            _Check("derivative_forms", where, l, u, h, slope, quotient, forms, (m_squared,)),
            _Check("derivative_fd", steep, l, u, h, slope, fd, fd_margin, (m_squared,)),
        ]

    with np.errstate(all="ignore"):
        tail_ru, f_ru, cdf_rl, f_rl = _densities(h, l, u)
        if any(_tiled(lambda w, t, c: [np.any(w & (t + c == 0.0))], where, tail_ru, cdf_rl)):
            raise ZeroDivisionError("float division by zero")
        near = [d for shift in (h + eps, h - eps) for d in _densities(shift, l, u)]
        axes = l, u, h, where, u - h, l - h, tail_ru, f_ru, cdf_rl, f_rl, *near
        return _report("derivative", _tiled(tile, *axes))


def report_rows(reports: Iterable[VerificationReport]) -> list[CheckRecord]:
    """The rows of one or more sweep reports, under CheckRecord's columns.

    Every violation, every untestable-strict point (check name suffixed
    ':untestable-strict'), and one ':min_margin' summary row per report,
    in that order.
    """
    rows = []
    for report in reports:
        rows += report.violations
        rows += [r._replace(check=f"{r.check}:untestable-strict") for r in report.untestable]
        if (r := report.min_margin_record) is not None:
            rows.append(r._replace(check=f"{r.check}:min_margin"))
    return rows
