"""Numerical sweeps over every strict inequality behind the centroid result.

Each verify_* function walks a grid (or a seeded random cloud) of inputs,
evaluates one family of strict inequalities, and returns a report instead
of raising: a sweep is an experiment, and the acceptance suite decides
what its output means.

A point is set aside as "untestable-strict", rather than counted as a
pass or a failure, when double precision cannot vouch for its strict
inequality: its margin is not finite or below 1e-280 in magnitude, or it
divides by a density below the smallest normal double, whose few
significant digits cannot carry the comparison (the Mills-ratio checks).
Reports are deterministic for a given (spec, seed).

Each sweep computes its margins as numpy arrays with the arithmetic of
the scalar functions, so every margin has the bits the scalar call would
give.  exp and erfc run element by element through the math module
(special.std_*_array), and on a grid they run on the 1-D axes only and
are broadcast over the plane.  Points whose centroid or slope needs the
log-space branch go to the scalar functions one at a time.  Only the rows
a report keeps (violations, untestable points, the minimum margin) become
CheckRecords.

CSV rendering uses the fixed column set

    check,x1,x2,h,lhs,rhs,margin

with 17-significant-digit decimals; columns a check does not use hold
nan.  The same module writes the reference-example CSV (masked densities
of the base and shifted configurations plus both centroids).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

import numpy as np

from .centroid import (
    DEEP_MASS_FLOOR,
    _SLOPE_DIRECT_FLOOR,
    _certificate_from,
    _offset_from,
    _quotient_slope_from,
    centroid_exterior,
    std_exterior_centroid,
    std_exterior_centroid_slope,
)
from .errors import ParameterError
from .model import ExcludedInterval, GaussianParams
from .philox import CounterStream
from .special import std_cdf_array, std_pdf, std_pdf_array, std_tail_array

UNTESTABLE_FLOOR = 1e-280
# Dividing by a density below this (a subnormal) leaves too few digits.
_DENSITY_FLOOR = sys.float_info.min

# Reference example: base density N(1, 4) with hole (-1, 4), shifted by 2.
REFERENCE_PARAMS = GaussianParams(mu=1.0, sigma=2.0)
REFERENCE_HOLE = ExcludedInterval(lower=-1.0, upper=4.0)
REFERENCE_SHIFT = 2.0


@dataclass(frozen=True)
class SweepSpec:
    l_range: tuple[float, float, float]
    u_range: tuple[float, float, float]
    h_range: tuple[float, float, float]
    mode: str = "grid"
    n_random: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, rng in (
            ("l_range", self.l_range),
            ("u_range", self.u_range),
            ("h_range", self.h_range),
        ):
            lo, hi, step = rng
            if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
                raise ParameterError(f"{name} must be finite, got {rng!r}")
            if not lo < hi:
                raise ParameterError(f"{name} needs min < max, got {rng!r}")
            if not step > 0.0:
                raise ParameterError(f"{name} needs step > 0, got {rng!r}")
        if self.mode not in ("grid", "random"):
            raise ParameterError(f"mode must be grid or random, got {self.mode!r}")
        if self.mode == "random" and self.n_random < 1:
            raise ParameterError("random mode needs n_random >= 1")


@dataclass(frozen=True)
class CheckRecord:
    check: str
    x1: float
    x2: float
    h: float
    lhs: float
    rhs: float
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    name: str
    checks_run: int
    violations: tuple[CheckRecord, ...]
    untestable: tuple[CheckRecord, ...]
    min_margin: float
    min_margin_record: CheckRecord | None

    @property
    def passed(self) -> bool:
        return not self.violations


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
DEFAULT_BOUNDS_SPEC = SweepSpec(
    l_range=(-8.0, 8.0, 0.05),
    u_range=(-8.0, 8.0, 0.05),
    h_range=(0.0, 1.0, 1.0),
)
DEFAULT_DERIVATIVE_SPEC = SweepSpec(
    l_range=(-4.0, 3.0, 0.5),
    u_range=(-3.5, 4.0, 0.5),
    h_range=(-2.0, 2.0, 0.25),
)


def _grid(rng: tuple[float, float, float]) -> np.ndarray:
    lo, hi, step = rng
    count = int(math.floor((hi - lo) / step + 1e-9))
    return np.array([lo + k * step for k in range(count + 1)], dtype=float)


class _Check(NamedTuple):
    """One check of a sweep, over arrays that broadcast together.

    Its rows are the points `where` selects, taken in C order, which is
    the order the sweep enumerates them.  A column given as a Python float
    (nan for a column the check does not use) is that float in every row.
    `doubtful` marks points that are untestable whatever their margin.
    """

    name: str
    where: Any
    x1: Any
    x2: Any
    h: Any
    lhs: Any
    rhs: Any
    margin: Any
    doubtful: Any = False


def _records(check: _Check, shape, mask) -> list[CheckRecord]:
    """Records of the points `mask` selects, sorted by x1, then x2, then h.

    nan sorts last, and points that tie keep their sweep order.
    """
    at = np.unravel_index(np.flatnonzero(mask), shape)
    columns = check[2:8]  # x1, x2, h, lhs, rhs, margin
    values = [np.broadcast_to(c, shape)[at] for c in columns]
    order = np.lexsort(values[2::-1])
    cells = []
    for c, v in zip(columns, values):
        if isinstance(c, float):
            cells.append(itertools.repeat(c))
        else:
            # One nan object keeps equal reports equal under ==.
            cells.append([math.nan if x != x else x for x in v[order].tolist()])
    return list(map(CheckRecord, itertools.repeat(check.name), *cells))


def _report(name: str, checks: Iterable[_Check]) -> VerificationReport:
    """Counts, sorted violations and untestable rows, and the minimum margin.

    Rows sort by check name, then as _records sorts them.  The minimum is
    the first row in that order among the testable rows of least margin.
    """
    checks_run = 0
    violations: list[CheckRecord] = []
    untestable: list[CheckRecord] = []
    lowest: list[CheckRecord] = []
    low = math.inf
    for check in sorted(checks, key=lambda c: c.name):
        shape = np.broadcast_shapes(*(np.shape(a) for a in check[1:]))
        where = np.broadcast_to(check.where, shape)
        margin = np.broadcast_to(check.margin, shape)
        unsure = (
            ~np.isfinite(margin) | (np.abs(margin) < UNTESTABLE_FLOOR) | check.doubtful
        )
        testable = where & ~unsure
        checks_run += int(np.count_nonzero(where))
        untestable += _records(check, shape, where & unsure)
        violations += _records(check, shape, testable & (margin <= 0.0))
        if testable.any():
            m = np.min(margin, where=testable, initial=math.inf)
            if m < low:
                low, lowest = m, []
            if m == low:
                lowest += _records(check, shape, testable & (margin == m))
    best = lowest[0] if lowest else None
    return VerificationReport(
        name=name,
        checks_run=checks_run,
        violations=tuple(violations),
        untestable=tuple(untestable),
        min_margin=math.nan if best is None else best.margin,
        min_margin_record=best,
    )


def _scalar_at(values, points, fn, *args):
    """values, with fn(*args) computed one point at a time where `points` holds."""
    if not points.any():
        return values
    values = np.broadcast_to(values, points.shape).copy()
    picked = [np.broadcast_to(a, points.shape)[points].tolist() for a in args]
    values[points] = [fn(*p) for p in zip(*picked)]
    return values


def _centroids(shift, lower, upper, where):
    """std_exterior_centroid over broadcast arrays, bit for bit at `where`."""
    ru = upper - shift
    rl = lower - shift
    mass = std_tail_array(ru) + std_cdf_array(rl)
    psi = shift + _offset_from(std_pdf_array(ru), std_pdf_array(rl), mass)
    deep = where & (mass < DEEP_MASS_FLOOR)
    return _scalar_at(psi, deep, std_exterior_centroid, shift, lower, upper)


def _uniform(stream: CounterStream, lo: float, hi: float, n: int) -> np.ndarray:
    return lo + stream.take(n) * (hi - lo)


def _hole_pairs_random(spec: SweepSpec, stream: CounterStream):
    raw_l = _uniform(stream, spec.l_range[0], spec.l_range[1], spec.n_random)
    raw_u = _uniform(stream, spec.u_range[0], spec.u_range[1], spec.n_random)
    lower, upper = np.minimum(raw_l, raw_u), np.maximum(raw_l, raw_u)
    keep = upper > lower
    return lower[keep], upper[keep]


def verify_monotonicity(spec: SweepSpec = DEFAULT_MONOTONICITY_SPEC) -> VerificationReport:
    """Centroid strictly increases with the shift, for every hole.

    Rows: x1 = hole lower, x2 = hole upper, h = the larger shift of the
    pair; lhs/rhs are the centroids at the larger and smaller shift.
    The companion shift_sign rows compare a shifted centroid against the
    unshifted one through shift_comparison.
    """
    if spec.mode == "grid":
        l = _grid(spec.l_range)[:, None, None]
        u = _grid(spec.u_range)[None, :, None]
        hs = _grid(spec.h_range)
        h1, h2 = hs[:-1], hs[1:]
        where = u > l
    else:
        stream = CounterStream(spec.seed, stream=2)
        l, u = _hole_pairs_random(spec, stream)
        raw_h1 = _uniform(stream, spec.h_range[0], spec.h_range[1], l.size)
        raw_h2 = _uniform(stream, spec.h_range[0], spec.h_range[1], l.size)
        h1, h2 = np.minimum(raw_h1, raw_h2), np.maximum(raw_h1, raw_h2)
        where = raw_h1 != raw_h2

    with np.errstate(all="ignore"):
        psi1 = _centroids(h1, l, u, where)
        psi2 = _centroids(h2, l, u, where)
        moved = where & (h2 != 0.0)
        delta = psi2 - _centroids(0.0, l, u, moved)
        signed = np.where(h2 > 0.0, delta, -delta)
        return _report(
            "monotonicity",
            [
                _Check("monotonicity", where, l, u, h2, psi2, psi1, psi2 - psi1),
                _Check("shift_sign", moved, l, u, h2, delta, 0.0, signed),
            ],
        )


def verify_certificate_positive(
    spec: SweepSpec = DEFAULT_CERTIFICATE_SPEC,
) -> VerificationReport:
    """The slope certificate is positive over the (x1, x2) plane.

    l_range and u_range parameterize the two arguments directly; there
    is no ordering constraint between them.
    """
    if spec.mode == "grid":
        x1 = _grid(spec.l_range)[:, None]
        x2 = _grid(spec.u_range)[None, :]
    else:
        stream = CounterStream(spec.seed, stream=3)
        x1 = _uniform(stream, spec.l_range[0], spec.l_range[1], spec.n_random)
        x2 = _uniform(stream, spec.u_range[0], spec.u_range[1], spec.n_random)

    with np.errstate(all="ignore"):
        m = std_tail_array(x1) + std_cdf_array(x2)
        value = _certificate_from(x1, x2, std_pdf_array(x1), std_pdf_array(x2), m)
        return _report(
            "certificate_positive",
            [_Check("certificate_positive", True, x1, x2, math.nan, value, 0.0, value)],
        )


def verify_bounds(spec: SweepSpec = DEFAULT_BOUNDS_SPEC) -> VerificationReport:
    """The Mills-ratio bounds, their linear forms, and the summed form.

    One-dimensional checks run over l_range (as x1); the summed
    two-variable form runs over l_range x u_range.
    """
    if spec.mode == "grid":
        xs1 = _grid(spec.l_range)
        xs2 = _grid(spec.u_range)
        # The summed form runs over the plane xs1 x xs2.
        col, row = np.s_[:, None], np.s_[None, :]
    else:
        stream = CounterStream(spec.seed, stream=4)
        xs1 = _uniform(stream, spec.l_range[0], spec.l_range[1], spec.n_random)
        xs2 = _uniform(stream, spec.u_range[0], spec.u_range[1], spec.n_random)
        # The summed form runs over the pairs (xs1[i], xs2[i]).
        col = row = np.s_[:]

    x = xs1
    nan = math.nan
    with np.errstate(all="ignore"):
        f = std_pdf_array(x)
        tail = std_tail_array(x)
        cdf = std_cdf_array(x)
        root = np.sqrt(x * x + 4.0)
        faint = f < _DENSITY_FLOOR
        checks = []
        # The right-hand sides are mills_lower_bound_tail and _cdf.
        lhs = tail / (2.0 * f)
        rhs = (root - x) / 4.0
        checks.append(
            _Check("tail_ratio_bound", True, x, nan, nan, lhs, rhs, lhs - rhs, faint)
        )
        lhs = cdf / (2.0 * f)
        rhs = (root + x) / 4.0
        checks.append(
            _Check("cdf_ratio_bound", True, x, nan, nan, lhs, rhs, lhs - rhs, faint)
        )
        lhs = 2.0 * tail + x * f
        rhs = root * f
        checks.append(
            _Check("tail_linear_bound", True, x, nan, nan, lhs, rhs, lhs - rhs)
        )
        lhs = 2.0 * cdf - x * f
        checks.append(
            _Check("cdf_linear_bound", True, x, nan, nan, lhs, rhs, lhs - rhs)
        )

        x1, f1, tail1, root1 = (a[col] for a in (x, f, tail, root))
        x2 = xs2[row]
        f2 = std_pdf_array(x2)
        lhs = 2.0 * (tail1 + std_cdf_array(x2)) + (x1 * f1 - x2 * f2)
        rhs = root1 * f1 + np.sqrt(x2 * x2 + 4.0) * f2
        checks.append(_Check("summed_bound", True, x1, x2, nan, lhs, rhs, lhs - rhs))
        return _report("bounds", checks)


def verify_derivative(spec: SweepSpec = DEFAULT_DERIVATIVE_SPEC) -> VerificationReport:
    """Analytic slope vs central differences, plus the two algebraic forms.

    Rows: x1 = hole lower, x2 = hole upper, h = shift.  The derivative_fd
    margin is 1e-6 minus the relative error; derivative_forms margin is
    the scaled 1e-10 agreement slack; derivative_positive is the value.

    Raises ZeroDivisionError where the support mass underflows to 0, as
    the quotient-rule form divides by it.
    """
    eps = 1e-5
    if spec.mode == "grid":
        l = _grid(spec.l_range)[:, None, None]
        u = _grid(spec.u_range)[None, :, None]
        h = _grid(spec.h_range)
        where = u > l
    else:
        stream = CounterStream(spec.seed, stream=5)
        l, u = _hole_pairs_random(spec, stream)
        h = _uniform(stream, spec.h_range[0], spec.h_range[1], l.size)
        where = np.ones(l.shape, dtype=bool)

    with np.errstate(all="ignore"):
        ru = u - h
        rl = l - h
        f_ru = std_pdf_array(ru)
        f_rl = std_pdf_array(rl)
        m = std_tail_array(ru) + std_cdf_array(rl)
        if np.any(where & (m == 0.0)):
            raise ZeroDivisionError("float division by zero")
        analytic = _certificate_from(ru, rl, f_ru, f_rl, m) / (m * m)
        deep = where & (m < _SLOPE_DIRECT_FLOOR)
        analytic = _scalar_at(analytic, deep, std_exterior_centroid_slope, h, l, u)
        quotient = _quotient_slope_from(ru, rl, f_ru, f_rl, m)
        # fmax skips nan as the builtin max(1.0, ...) does.
        scale = np.fmax(np.fmax(1.0, np.abs(analytic)), np.abs(quotient))
        forms = 1e-10 * scale - np.abs(analytic - quotient)
        steep = where & (np.abs(analytic) > 1e-8)
        fd = (
            _centroids(h + eps, l, u, steep) - _centroids(h - eps, l, u, steep)
        ) / (2.0 * eps)
        rel_err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-300)
        return _report(
            "derivative",
            [
                _Check("derivative_positive", where, l, u, h, analytic, 0.0, analytic),
                _Check("derivative_forms", where, l, u, h, analytic, quotient, forms),
                _Check("derivative_fd", steep, l, u, h, analytic, fd, 1e-6 - rel_err),
            ],
        )


def render_report_csv(reports: Iterable[VerificationReport]) -> str:
    """Fixed-schema CSV for one or more sweep reports.

    Emits every violation row, every untestable-strict row (check name
    suffixed ':untestable-strict'), and one ':min_margin' summary row
    per report, in that order.
    """
    lines = ["check,x1,x2,h,lhs,rhs,margin"]

    def row(check: str, r: CheckRecord) -> str:
        cells = [check] + [
            format(v, ".17g") for v in (r.x1, r.x2, r.h, r.lhs, r.rhs, r.margin)
        ]
        return ",".join(cells)

    for report in reports:
        for r in report.violations:
            lines.append(row(r.check, r))
        for r in report.untestable:
            lines.append(row(f"{r.check}:untestable-strict", r))
        if report.min_margin_record is not None:
            r = report.min_margin_record
            lines.append(row(f"{r.check}:min_margin", r))
    return "\n".join(lines) + "\n"


def write_report_csv(reports: Iterable[VerificationReport], output_path: str) -> None:
    with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report_csv(reports))


def reference_example_rows() -> list[tuple[float, float, float]]:
    """Masked densities of the base and shifted reference configurations.

    x walks [-8, 12] in steps of 0.01; the mask keeps density only on
    the closed exterior (x <= -1 or x >= 4).
    """
    mu = REFERENCE_PARAMS.mu
    sigma = REFERENCE_PARAMS.sigma
    shifted_mu = mu + REFERENCE_SHIFT
    lower = REFERENCE_HOLE.lower
    upper = REFERENCE_HOLE.upper
    rows = []
    for k in range(2001):
        x = (k - 800) / 100.0
        on_support = x <= lower or x >= upper
        base = std_pdf((x - mu) / sigma) / sigma if on_support else 0.0
        shifted = std_pdf((x - shifted_mu) / sigma) / sigma if on_support else 0.0
        rows.append((x, base, shifted))
    return rows


def render_reference_figure() -> tuple[str, float, float]:
    """Reference-example CSV text plus the (base, shifted) centroids."""
    base = centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, 0.0).value
    shifted = centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, REFERENCE_SHIFT).value
    lines = ["x,fX_masked,fY_masked"]
    for x, fx, fy in reference_example_rows():
        lines.append(
            f"{format(x, '.17g')},{format(fx, '.17g')},{format(fy, '.17g')}"
        )
    lines.append(f"centroid,{format(base, '.17g')},{format(shifted, '.17g')}")
    return "\n".join(lines) + "\n", base, shifted


def write_reference_figure(output_path: str) -> tuple[float, float]:
    """Write the reference-example CSV; returns (base, shifted) centroids."""
    text, base, shifted = render_reference_figure()
    with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return base, shifted
