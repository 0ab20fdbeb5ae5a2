"""Fit the Mills-ratio tables of special.py and write their 60-digit gate.

For x >= 4 the closed form takes the Mills ratio R(x) = std_tail(x) /
std_pdf(x) as 1 / (x + r1(x)) and the tail variance v(x) = Var(Z | Z >= x)
from two rationals in z = 1/x**2, after Cody 1969, "Rational Chebyshev
approximations for the error function" (Math. Comp. 23):

    x r1(x)   = 1 - z P1(z) / Q1(z)
    x*x v(x)  = 1 - z P2(z) / Q2(z)

P and Q are of degree 7, Q(0) = 1.  Both sides tend to 1 as z -> 0 (x r1
= 1 - 2z + 10z**2 - ..., x*x v = 1 - 6z + ...), so z = 0, where x*x
overflows, gives x r1 = 1 and x*x v = 1 exactly, and the fitted quotient
carries only the small correction: at x = 4 it is 10 % of x r1 and 25 %
of x*x v, so its own rounding reaches the result scaled down by as much.

The references come from the classical continued fraction 1/R(x) = x +
1/(x + 2/(x + 3/(x + ...))), evaluated backwards in mpmath until twice
the terms change nothing: r1 is its tail 1/(x + 2/(x + ...)) and v =
r1 (r2 - r1) with r2 = 2/(x + 3/(x + ...)), neither of which cancels.
The working precision covers the digits that 1 - x r1 and 1 - x*x v
cancel.  mpmath.erfc checks the fraction from x = 4 to 1000.

The fit minimizes the relative error of P/Q on Chebyshev nodes of z in
[0, 1/16]: Sanathanan-Koerner iterations of linear least squares, then
Lawson reweighting toward the minimax.  It is run in s = 16 z, so the
coefficients of z are those of s times powers of 2, exactly.

tests/data/mills_table_reference.json holds seeded x in [4, 1e300] (z
underflows to 0.0 from x of about 1.3e154 up) with r1(x) and x*x v(x) at
60 digits as 30-digit strings, for tests/test_mills_table.py, which needs
no mpmath.

Run from the root of a checkout (needs mpmath; the output is committed,
and the printed tables are pasted into src/trunc_centroid/special.py):

    python tools/make_mills_table.py
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath

DIGITS = 60
SEED = 19
DEGREE = 7
NODES = 120
Z_MAX = mpmath.mpf(1) / 16
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "mills_table_reference.json"
SK_ITERATIONS, LAWSON_ITERATIONS = 6, 34


def _tails(x) -> tuple:
    """(r1, x*x v) at x >= 4 from the continued fraction, to DIGITS digits."""
    x = mpmath.mpf(x)
    spare = 2 * max(0, int(mpmath.log10(x * x))) + 10
    with mpmath.workdps(DIGITS + spare):
        terms, last = 64, None
        while True:
            r = mpmath.mpf(0)
            for k in range(terms, 1, -1):
                r = k / (x + r)
            r1 = 1 / (x + r)
            got = (r1, x * r1 * x * (r - r1))
            if last and all(abs(g - l) <= abs(g) * mpmath.mpf(10) ** -(DIGITS + 5)
                            for g, l in zip(got, last)):
                return got
            terms, last = 2 * terms, got


def _corrections(z) -> tuple:
    """(h, k) with x r1 = 1 - z h and x*x v = 1 - z k, x = 1/sqrt(z)."""
    if not z:
        return mpmath.mpf(2), mpmath.mpf(6)
    x = 1 / mpmath.sqrt(z)
    r1, g = _tails(x)
    with mpmath.workdps(DIGITS + 2 * int(-mpmath.log10(z)) + 10):
        return (1 - x * r1) / z, (1 - g) / z


def _fit(zs, fs):
    """(p, q), lowest power first, q[0] = 1: P/Q fits fs at zs relatively."""
    n = DEGREE
    ss = [16 * z for z in zs]
    weights, q_prev = [mpmath.mpf(1)] * len(zs), [mpmath.mpf(1)] * len(zs)
    best = None
    for it in range(SK_ITERATIONS + LAWSON_ITERATIONS):
        a = mpmath.matrix(len(zs), 2 * n + 1)
        rhs = mpmath.matrix(len(zs), 1)
        for i, (s, f) in enumerate(zip(ss, fs)):
            scale = mpmath.sqrt(weights[i]) / (f * q_prev[i])
            for j in range(n + 1):
                a[i, j] = scale * s**j
            for j in range(1, n + 1):
                a[i, n + j] = -scale * f * s**j
            rhs[i] = scale * f
        sol = mpmath.qr_solve(a, rhs)[0]
        p = [sol[j] * 16**j for j in range(n + 1)]
        q = [mpmath.mpf(1)] + [sol[n + j] * 16**j for j in range(1, n + 1)]
        errors = []
        for i, (z, f) in enumerate(zip(zs, fs)):
            q_prev[i] = mpmath.polyval(q[::-1], z)
            errors.append(mpmath.polyval(p[::-1], z) / q_prev[i] / f - 1)
        worst = max(abs(e) for e in errors)
        if best is None or worst < best[0]:
            best = (worst, p, q)
        if it >= SK_ITERATIONS:
            floor = mpmath.mpf(10) ** -30
            weights = [w * abs(e) + floor for w, e in zip(weights, errors)]
            total = sum(weights)
            weights = [w / total for w in weights]
    print(f"fit: largest relative error {mpmath.nstr(best[0], 3)} on the nodes")
    return best[1], best[2]


def _table(p, q) -> tuple:
    """The (P, Q) pairs of special.py, highest power first, as doubles."""
    return tuple((float(c), float(d)) for c, d in zip(p[::-1], q[::-1]))


def _evaluate(table, x: float) -> float:
    """special._fitted, with the same float operations."""
    z = 1.0 / (x * x)
    p = q = 0.0
    for c, d in table:
        p = p * z + c
        q = q * z + d
    return 1.0 - z * (p / q)


def _points() -> list:
    rng = random.Random(f"mills-table:{SEED}")
    xs = [4.0, 4.5, 8.0, 33.0, 1e154, 1.34e154, 1.35e154, 1e200, 1e300]
    xs += [rng.uniform(4.0, 40.0) for _ in range(150)]
    xs += [10.0 ** rng.uniform(math.log10(40.0), 300.0) for _ in range(150)]
    return xs


def _ulps(got: float, want) -> float:
    return float(abs(mpmath.mpf(got) - want) / abs(want)) / 2.0**-52


def main() -> None:
    mpmath.mp.dps = DIGITS
    for x in (4, 7.5, 33, 1000):
        with mpmath.workdps(DIGITS + 20):
            xm = mpmath.mpf(x)
            big = mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(xm * xm / 2)
            r1 = 1 / (big * mpmath.erfc(xm / mpmath.sqrt(2))) - xm
        assert abs(r1 / _tails(x)[0] - 1) < mpmath.mpf(10) ** -DIGITS, x
    n = NODES
    zs = [Z_MAX * (1 - mpmath.cos(mpmath.pi * (i + mpmath.mpf(0.5)) / n)) / 2
          for i in range(n)] + [mpmath.mpf(0), Z_MAX]
    hs, ks = zip(*map(_corrections, zs))
    tables = {"_R1_TABLE": _table(*_fit(zs, hs))}
    tables["_VARIANCE_TABLE"] = _table(*_fit(zs, ks))
    for name, table in tables.items():
        print(f"{name} = (")
        for k in range(0, len(table), 2):
            print("    " + " ".join(f"({c!r}, {d!r})," for c, d in table[k:k + 2]))
        print(")")

    points = []
    worst = [0.0, 0.0]
    mpmath.mp.dps = DIGITS
    for x in _points():
        r1, g = _tails(x)
        worst[0] = max(worst[0], _ulps(_evaluate(tables["_R1_TABLE"], x) / x, r1))
        worst[1] = max(worst[1], _ulps(_evaluate(tables["_VARIANCE_TABLE"], x), g))
        points.append({
            "x": x,
            "r1": mpmath.nstr(r1, 30, min_fixed=1, max_fixed=0),
            "scaled_variance": mpmath.nstr(g, 30, min_fixed=1, max_fixed=0),
        })
    print(f"float tables: r1 within {worst[0]:.2f} eps, x*x v within {worst[1]:.2f}")
    OUT.write_text(json.dumps({
        "generator": "tools/make_mills_table.py",
        "mpmath": mpmath.__version__,
        "digits": DIGITS,
        "seed": SEED,
        "points": points,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(points)} points to {OUT}")


if __name__ == "__main__":
    main()
