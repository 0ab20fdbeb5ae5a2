"""Acceptance suite: nine gate checks, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every check both prints its verdict and asserts it, so a plain pytest run
fails loudly on any regression.  Seeds are fixed; runtime budgets are
asserted where a check is meant to stay desk-scale.
"""

import contextlib
import io
import math
import time

import numpy as np

from trunc_centroid.centroid import (
    centroid_exterior,
    shift_comparison,
    std_exterior_centroid,
    std_exterior_centroid_slope,
)
from trunc_centroid.cli import run
from trunc_centroid.figure import (
    REFERENCE_HOLE,
    REFERENCE_PARAMS,
    REFERENCE_SHIFT,
    reference_figure,
)
from trunc_centroid.model import ExcludedInterval, GaussianParams
from trunc_centroid.philox import CounterStream
from trunc_centroid.quadrature import ABS_TOL, centroid_quadrature
from trunc_centroid.sampler import monte_carlo_centroid, sample_exterior
from trunc_centroid.special import std_cdf, std_pdf, std_tail
from trunc_centroid.verification import (
    SweepSpec,
    _quotient_slope_from,
    verify_bounds,
    verify_certificate_positive,
    verify_derivative,
    verify_monotonicity,
)

STD = GaussianParams(0.0, 1.0)
SEED = 20240817

# Standardized grid shared by the oracle-equivalence and derivative checks:
# hole lower in [-4, 3], hole upper on the same lattice in (lower, 4],
# shift in [-2, 2] step 0.25.
GRID_L = [-4.0 + 0.5 * k for k in range(15)]
GRID_U = [-3.5 + 0.5 * k for k in range(16)]
GRID_H = [-2.0 + 0.25 * k for k in range(17)]
GRID_CONFIGS = [(l, u, h) for l in GRID_L for u in GRID_U if u > l for h in GRID_H]


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {detail} {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"{tag}: {detail}"


def test_01_reference_figure_regression():
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(["figure"])
    text = out.getvalue()
    _, base, shifted = reference_figure()
    quad_base = centroid_quadrature(REFERENCE_PARAMS, REFERENCE_HOLE, 0.0).value
    quad_shifted = centroid_quadrature(
        REFERENCE_PARAMS, REFERENCE_HOLE, REFERENCE_SHIFT
    ).value
    elapsed = time.perf_counter() - t0
    lines = text.splitlines()
    csv_ok = code == 0 and len(lines) == 2003 and lines[0] == "x,fX_masked,fY_masked"
    footer = lines[-1].split(",")
    csv_ok = csv_ok and footer[0] == "centroid" and float(footer[1]) == base
    ok = (
        csv_ok
        and abs(base - 0.0025) < 5e-4
        and abs(shifted - 4.7995) < 5e-4
        and abs(quad_base - 0.0025) < 5e-4
        and abs(quad_shifted - 4.7995) < 5e-4
        and elapsed < 1.0
    )
    _verdict(
        "[1/9] reference-figure regression",
        ok,
        f"closed=({base:.6f}, {shifted:.6f}) "
        f"quadrature=({quad_base:.6f}, {quad_shifted:.6f}) "
        f"targets=(0.0025, 4.7995)+-5e-4 elapsed={elapsed:.2f}s",
    )


def test_02_closed_form_matches_quadrature_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for l, u, h in GRID_CONFIGS:
        hole = ExcludedInterval(l, u)
        closed = centroid_exterior(STD, hole, h).value
        quad = centroid_quadrature(STD, hole, h).value
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    # 500 seeded location/scale rescalings of grid configurations
    stream = CounterStream(SEED, stream=11)
    picks = stream.take(500)
    mus = -10.0 + 20.0 * stream.take(500)
    sigmas = 0.1 + 9.9 * stream.take(500)
    for pick, mu, sigma in zip(picks, mus, sigmas):
        l_hat, u_hat, h_hat = GRID_CONFIGS[
            min(int(pick * len(GRID_CONFIGS)), len(GRID_CONFIGS) - 1)
        ]
        params = GaussianParams(mu, sigma)
        hole = ExcludedInterval(mu + sigma * l_hat, mu + sigma * u_hat)
        shift = sigma * h_hat
        closed = centroid_exterior(params, hole, shift).value
        quad = centroid_quadrature(params, hole, shift).value
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _verdict(
        "[2/9] closed form vs quadrature oracle",
        ok,
        f"configs={len(GRID_CONFIGS)}+500 worst_scaled_diff={worst:.3e} "
        f"tol=1e-09 elapsed={elapsed:.1f}s",
    )


def test_03_shift_monotonicity_random_sweep():
    t0 = time.perf_counter()
    spec = SweepSpec(
        l_range=(-5.0, 5.0, 0.5),
        u_range=(-5.0, 5.0, 0.5),
        h_range=(0.0, 3.0, 0.5),
        mode="random",
        n_random=10000,
        seed=SEED,
    )
    report = verify_monotonicity(spec)
    # same property through the public comparison API, original coordinates
    stream = CounterStream(SEED, stream=12)
    edges = -5.0 + 10.0 * stream.take(2000)
    shifts = 3.0 * stream.take(1000)
    deltas_ok = True
    for k in range(1000):
        a, b = edges[2 * k], edges[2 * k + 1]
        if a == b or shifts[k] == 0.0:
            continue
        hole = ExcludedInterval(min(a, b), max(a, b))
        if shift_comparison(STD, hole, shifts[k]).delta <= 0.0:
            deltas_ok = False
    elapsed = time.perf_counter() - t0
    ok = (
        report.violations == ()
        and report.checks_run >= 2 * 9990
        and report.min_margin > 0.0
        and deltas_ok
        and elapsed < 30.0
    )
    _verdict(
        "[3/9] centroid strictly increasing in shift",
        ok,
        f"random_checks={report.checks_run} violations={len(report.violations)} "
        f"min_margin={report.min_margin:.3e} "
        f"comparison_deltas_positive={deltas_ok} elapsed={elapsed:.1f}s",
    )


def test_04_slope_certificate_positive_grid():
    t0 = time.perf_counter()
    report = verify_certificate_positive()
    elapsed = time.perf_counter() - t0
    ok = (
        report.checks_run == 321 * 321
        and report.violations == ()
        and report.min_margin > 0.0
        and elapsed < 30.0
    )
    rec = report.min_margin_record
    _verdict(
        "[4/9] slope certificate positive on the plane",
        ok,
        f"points={report.checks_run} violations={len(report.violations)} "
        f"min_margin={report.min_margin:.3e} at ({rec.x1:g}, {rec.x2:g}) "
        f"elapsed={elapsed:.1f}s",
    )


def test_05_tail_bound_suite_strict():
    t0 = time.perf_counter()
    report = verify_bounds()
    elapsed = time.perf_counter() - t0
    ok = (
        report.checks_run == 321 * 4 + 321 * 321
        and report.violations == ()
        and report.min_margin > 0.0
    )
    _verdict(
        "[5/9] tail bound suite strict on |x| <= 8",
        ok,
        f"checks={report.checks_run} violations={len(report.violations)} "
        f"untestable={len(report.untestable)} min_margin={report.min_margin:.3e} "
        f"elapsed={elapsed:.1f}s",
    )


def test_06_analytic_slope_against_finite_differences():
    t0 = time.perf_counter()
    eps = 1e-5
    max_rel = 0.0
    max_form_gap = 0.0
    for l, u, h in GRID_CONFIGS:
        analytic = std_exterior_centroid_slope(h, l, u)
        fd = (
            std_exterior_centroid(h + eps, l, u)
            - std_exterior_centroid(h - eps, l, u)
        ) / (2.0 * eps)
        max_rel = max(max_rel, abs(analytic - fd) / max(abs(fd), 1e-300))
        ru, rl = u - h, l - h
        quotient = _quotient_slope_from(
            ru, rl, std_pdf(ru), std_pdf(rl), std_tail(ru) + std_cdf(rl)
        )
        scale = max(1.0, abs(analytic), abs(quotient))
        max_form_gap = max(max_form_gap, abs(analytic - quotient) / scale)
    report = verify_derivative()
    elapsed = time.perf_counter() - t0
    ok = (
        max_rel < 1e-6
        and max_form_gap <= 1e-10
        and report.violations == ()
    )
    _verdict(
        "[6/9] analytic slope checks",
        ok,
        f"grid={len(GRID_CONFIGS)} max_fd_rel_err={max_rel:.3e} (tol 1e-06) "
        f"max_form_gap={max_form_gap:.3e} (tol 1e-10) "
        f"sweep_violations={len(report.violations)} elapsed={elapsed:.1f}s",
    )


def test_07_symmetric_hole_centroid_vanishes():
    worst_closed = 0.0
    worst_oracle = 0.0
    for a in (0.5, 1.0, 2.0, 4.0):
        hole = ExcludedInterval(-a, a)
        worst_closed = max(
            worst_closed, abs(centroid_exterior(STD, hole, 0.0).value)
        )
        worst_oracle = max(
            worst_oracle, abs(centroid_quadrature(STD, hole, 0.0).value)
        )
    ok = worst_closed < 1e-12 and worst_oracle < ABS_TOL
    _verdict(
        "[7/9] symmetric hole centroid vanishes",
        ok,
        f"max|closed|={worst_closed:.3e} (tol 1e-12) "
        f"max|oracle|={worst_oracle:.3e} (tol {ABS_TOL:g})",
    )


def test_08_monte_carlo_agrees_with_closed_form():
    t0 = time.perf_counter()
    n = 10**6
    detail = []
    ok = True
    for shift in (0.0, REFERENCE_SHIFT):
        batch = sample_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, shift, n, SEED)
        estimate = monte_carlo_centroid(batch)
        closed = centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, shift).value
        deviation = abs(estimate.mean - closed) / estimate.std_error
        in_hole = bool(
            np.any(
                (batch.values > REFERENCE_HOLE.lower)
                & (batch.values < REFERENCE_HOLE.upper)
            )
        )
        ok = ok and deviation < 4.0 and not in_hole
        detail.append(f"shift={shift:g}: {deviation:.2f}SE in_hole={in_hole}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(
        "[8/9] Monte Carlo within 4 standard errors",
        ok,
        f"n={n} seed={SEED} " + " ".join(detail) + f" elapsed={elapsed:.1f}s",
    )


def test_09_translation_and_scale_equivariance():
    stream = CounterStream(SEED, stream=13)
    n = 1000
    mus = -5.0 + 10.0 * stream.take(n)
    sigmas = 0.5 + 2.0 * stream.take(n)
    e1 = -2.5 + 5.0 * stream.take(n)
    e2 = -2.5 + 5.0 * stream.take(n)
    h_hats = -1.5 + 3.0 * stream.take(n)
    offsets = -10.0 + 20.0 * stream.take(n)
    factors = 0.25 + 3.75 * stream.take(n)
    worst = 0.0
    checked = 0
    for k in range(n):
        if e1[k] == e2[k]:
            continue
        mu, sigma = mus[k], sigmas[k]
        lo = mu + sigma * min(e1[k], e2[k])
        hi = mu + sigma * max(e1[k], e2[k])
        shift = sigma * h_hats[k]
        value = centroid_exterior(
            GaussianParams(mu, sigma), ExcludedInterval(lo, hi), shift
        ).value
        c = offsets[k]
        translated = centroid_exterior(
            GaussianParams(mu + c, sigma), ExcludedInterval(lo + c, hi + c), shift
        ).value
        worst = max(
            worst, abs(translated - (value + c)) / max(1.0, abs(value + c))
        )
        s = factors[k]
        scaled = centroid_exterior(
            GaussianParams(s * mu, s * sigma),
            ExcludedInterval(s * lo, s * hi),
            s * shift,
        ).value
        worst = max(worst, abs(scaled - s * value) / max(1.0, abs(s * value)))
        checked += 1
    ok = checked >= 999 and worst <= 1e-12
    _verdict(
        "[9/9] translation and scale equivariance",
        ok,
        f"configs={checked} worst_scaled_diff={worst:.3e} tol=1e-12",
    )
