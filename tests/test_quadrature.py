"""Oracle integrator tests.

The integrator is the package's ground truth, so it gets checked against
things it cannot share with the closed form: polynomial exactness of the
panel rule, analytically known tail masses (from the erfc-based module,
whose own tests pin it to an independent high-precision reference), and
100-digit masses that each panel's a priori error bound must contain.
"""

import hashlib
import math
import pathlib
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

import pytest

from trunc_centroid import model, quadrature
from trunc_centroid.centroid import centroid_exterior
from trunc_centroid.errors import DeepTruncationError, DomainError
from trunc_centroid.model import ExcludedInterval, GaussianParams, Method
from trunc_centroid.quadrature import (
    _NODES,
    _UNIT_BOUNDS,
    _WGK,
    _integrate,
    _kronrod_panel,
    _rule,
    MASS_REMAINDER,
    MOMENT_REMAINDER,
    centroid_quadrature,
)
from trunc_centroid.special import std_cdf, std_pdf, std_tail

STD = GaussianParams(mu=0.0, sigma=1.0)
REF_PARAMS, REF_HOLE = GaussianParams(1.0, 2.0), ExcludedInterval(-1.0, 4.0)
EPS = 2.220446049250313e-16
# 1 / sqrt(2 pi) to 100 digits.
INV_SQRT_2PI = Decimal(
    "0.3989422804014326779399460599343818684758586311649346576659258296706579"
    "258993018385012523339073069364"
)


def _phi(ts):
    """Standard normal density at each t, as the panel evaluates it."""
    return [std_pdf(t) for t in ts]


@lru_cache(maxsize=None)
def _centered_cdf(x):
    """Phi(x) - 1/2 for a float x at 100 digits: phi(x) times x + x^3/3 +
    x^5/15 + ..., the sum of x^(2n+1) / (2n+1)!!, all of whose terms are
    summed."""
    with localcontext() as ctx:
        ctx.prec = 100
        x = Decimal(x)
        term = total = x
        n = 1
        while abs(term) > Decimal("1e-100"):
            term *= x * x / (2 * n + 1)
            total += term
            n += 1
        return INV_SQRT_2PI * (-(x * x) / 2).exp() * total


def _exact_mass(a, b):
    """Phi(b) - Phi(a) for floats a and b, to 100 digits, as a Fraction."""
    return Fraction(_centered_cdf(b)) - Fraction(_centered_cdf(a))


def _rays(params, hole, shift):
    """loc, the standardized edges clamped to the window, and the passes
    (mass, error) over the left ray [-12, a] and the right ray [b, 12],
    whose bits centroid_quadrature keeps (it runs the left ray mirrored)."""
    loc = params.mu + shift
    a, b = (
        min(max((x - loc) / params.sigma, -12.0), 12.0) for x in (hole.lower, hole.upper)
    )
    return loc, (a, b), _integrate(-12.0, a), _integrate(b, 12.0)


def _mass(params, hole, shift):
    return centroid_quadrature(params, hole, shift).support_mass


def _first_moment(params, hole, shift):
    """The unnormalized exterior first moment, in x units, from the rays'
    mass and their standardized moment phi(b) - phi(a)."""
    loc, (a, b), left, right = _rays(params, hole, shift)
    return loc * (left[0] + right[0]) + params.sigma * (std_pdf(b) - std_pdf(a))


def _loop_rule(ys, half):
    """K15 as a loop over the mirror pairs: the reference whose bits the
    straight-line quadrature._rule keeps.  The weighted pair sum starts
    from 0 and adds left to right, as sum() does up to Python 3.11 (3.12's
    sum() of floats is compensated), so the reference is the same on every
    interpreter."""
    total = 0
    for term in map(mul, _WGK, map(add, ys[:7], ys[:7:-1])):
        total += term
    return (_WGK[7] * ys[7] + total) * half


def _seeded_panels():
    """Panels of up to one sigma inside the window, as _integrate cuts them
    (a seeded piece that holds an integer is cut there), with a few
    whole-sigma and mirrored ones."""
    rng = random.Random(25)
    panels = [(-1.0, 0.0), (0.0, 1.0), (-12.0, -11.0), (11.0, 12.0), (-0.5, 0.0), (0.0, 0.5)]
    for _ in range(1000):
        a = rng.uniform(-12.0, 11.0)
        b = min(a + rng.uniform(1e-9, 1.0), 12.0)
        k = math.floor(a) + 1.0
        panels += [(a, k), (k, b)] if k < b else [(a, b)]
    return panels + [(-b, -a) for a, b in panels[-50:]]


@pytest.mark.parametrize(
    "func, panels",
    [
        (_phi, _seeded_panels()),
        (lambda ts: [4.0 * t**3 - 2.0 * t for t in ts], [(-3.5, 2.0), (-0.7, 0.7), (0.1, 0.75)]),
        (
            lambda ts: [abs(t - 0.123456) ** 0.5 for t in ts],
            [(x, x + 1.0) for x in range(-4, 9)],
        ),
    ],
    ids=["phi", "sign_changing_cubic", "rough"],
)
def test_rule_keeps_the_bits_of_the_loop(func, panels):
    # The integrand, and t times it as a second input, on the nodes
    # _kronrod_panel forms.
    for a, b in panels:
        center, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = [center + half * x for x in _NODES]
        fs = func(ts)
        for ys in (fs, list(map(mul, ts, fs))):
            assert _rule(ys, half) == _loop_rule(ys, half), (a, b)


def _ray_edges(seed):
    """Ray edges in the window: seeded ones, and the window's edges, 0, the
    integers and their neighbours and tiny edges, each with its negation."""
    rng = random.Random(seed)
    edges = [12.0, 0.0, -0.0, 5e-324, -5e-324, -1e-300, 1e-300]
    for k in range(-12, 13):
        edges += [float(k), math.nextafter(k, -math.inf), math.nextafter(k, math.inf)]
    edges += [rng.uniform(-12.0, 12.0) for _ in range(200)]
    return [e for e in edges + [-e for e in edges] if -12.0 <= e <= 12.0]


def _seeded_problems(seed):
    """1000 seeded problems (mu, sigma, (lower, upper), shift), five a
    round: holes within 5, 30 and 200 sigmas of mu with the shift within 3,
    10 and 20 (moderate, wide, deep), a hole 1e-12 to 1e-3 sigmas wide with
    the shift within 0.5 of its middle (near-degenerate), and a moderate
    hole about a mu of 1e3 to 1e9 (offset).  Many holes lie wholly on one
    side of loc, and the wide and deep ones often reach past the window."""
    rng = random.Random(seed)
    problems = []
    for _ in range(200):
        mu, sigma = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-3.0, 3.0)
        for bound, reach in ((5.0, 3.0), (30.0, 10.0), (200.0, 20.0)):
            a, b = sorted(rng.uniform(-bound, bound) for _ in range(2))
            shift = sigma * rng.uniform(-reach, reach)
            problems.append((mu, sigma, (mu + sigma * a, mu + sigma * b), shift))
        middle, width = rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-12.0, -3.0)
        shift = sigma * (middle + rng.uniform(-0.5, 0.5))
        hole = (mu + sigma * (middle - width), mu + sigma * (middle + width))
        problems.append((mu, sigma, hole, shift))
        big = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(3.0, 9.0)
        a, b = sorted(rng.uniform(-5.0, 5.0) for _ in range(2))
        shift = sigma * rng.uniform(-3.0, 3.0)
        problems.append((big, sigma, (big + sigma * a, big + sigma * b), shift))
    return problems


def _answer(mu, sigma, hole, shift):
    """The oracle's result, or None where it declines."""
    try:
        return centroid_quadrature(GaussianParams(mu, sigma), ExcludedInterval(*hole), shift)
    except DeepTruncationError:
        return None


def test_weights_sum_to_interval_length():
    assert math.isclose(2.0 * sum(_WGK[:7]) + _WGK[7], 2.0, rel_tol=1e-14)


def _rule_of(poly, a, b):
    """The rule's integral of poly over [a, b], from its node values."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    return _rule([poly(center + half * x) for x in _NODES], half)


def test_panel_exact_on_polynomials():
    # Kronrod 15 integrates degree <= 22 exactly; check a few.
    for degree in (3, 8, 13, 20):
        value = _rule_of(lambda t: t**degree, 0.0, 1.0)
        assert math.isclose(value, 1.0 / (degree + 1), rel_tol=1e-13)
    # Values of either sign: the cubic changes sign twice on (-1, 2).
    value = _rule_of(lambda t: 4.0 * t**3 - 2.0 * t, -1.0, 2.0)
    assert math.isclose(value, (2.0**4 - 1.0) - (4.0 - 1.0), rel_tol=1e-13)
    # The panel integrates phi on its nodes.
    value, _ = _kronrod_panel(0.0, 1.0)
    assert math.isclose(value, std_cdf(1.0) - 0.5, rel_tol=1e-14)


def test_panel_mirror_is_exact():
    # Node values are summed in mirror pairs: a panel reflected about 0
    # gives the same mass and bound.
    for a, b in ((0.3, 2.9), (1.0, 12.0), (0.0, 4.1)):
        assert _kronrod_panel(-b, -a) == _kronrod_panel(a, b)


def test_integrate_known_gaussian_masses():
    value, err = _integrate(-1.0, 1.0)
    assert math.isclose(value, 1.0 - 0.3173105078629141, rel_tol=1e-13)
    assert err <= max(1e-13, 1e-12 * abs(value))
    value, _ = _integrate(-12.0, -1.0)
    assert math.isclose(value, 0.15865525393145705, rel_tol=1e-12)


def test_integrate_error_estimate_is_honest():
    # On seeded intervals in the window the summed panel bounds cover the
    # distance to the exact integrals, fsum's rounding included.
    rng = random.Random(13)
    for _ in range(200):
        a, b = sorted(rng.uniform(-12.0, 12.0) for _ in range(2))
        value, err = _integrate(a, b)
        assert abs(Fraction(value) - _exact_mass(a, b)) <= err, (a, b)


def test_integrate_empty_interval():
    assert _integrate(1.0, 1.0) == (0.0, 0.0)
    assert _integrate(2.0, 1.0) == (0.0, 0.0)


@pytest.mark.parametrize(
    "a, b",
    [(-12.0, 12.0), (-12.0, -1.0), (0.3, 0.7), (-0.5, 2.0), (1.0, 2.5), (-11.999, 11.5)],
)
def test_integrate_one_panel_per_whole_sigma(monkeypatch, a, b):
    # [a, b] is cut at every integer strictly inside it, one panel a piece,
    # and each column is the fsum of its panels'.
    panels = []

    def panel(x, y):
        panels.append((x, y, _kronrod_panel(x, y)))
        return panels[-1][2]

    monkeypatch.setattr(quadrature, "_kronrod_panel", panel)
    result = _integrate(a, b)
    assert len(panels) == math.ceil(b) - math.floor(a)
    assert (panels[0][0], panels[-1][1]) == (a, b)
    for (_, y, _), (x, _, _) in zip(panels, panels[1:]):
        assert x == y and float(x).is_integer()
    assert result == tuple(math.fsum(p[2][k] for p in panels) for k in range(2))


def _bits(values):
    return tuple(map(float.hex, values))


def test_left_ray_is_its_mirror():
    # A panel reflected about 0 has its nodes negated in reverse order, the
    # rule sums mirror node pairs and fsum rounds each column once, so the
    # left ray [-12, a] has the mass and error of its mirror [-a, 12], bit
    # for bit, which centroid_quadrature integrates in its place.
    for a in _ray_edges(30):
        assert _bits(_integrate(-a, 12.0)) == _bits(_integrate(-12.0, a)), a


def _ladder(a, b):
    """The panels of [a, b], cut at the integers strictly inside it."""
    cuts = [a, *(k for k in range(-12, 13) if a < k < b), b]
    return list(zip(cuts, cuts[1:])) if b > a else []


def test_rays_evaluate_each_distinct_panel_once(monkeypatch):
    # The left ray [-12, a] runs as [-a, 12]: both rays end at 12 on the
    # same cuts, so the whole-sigma panels they share are evaluated once,
    # and a problem takes the longer ray's panels and at most one more.
    calls = []

    def panel(x, y):
        calls.append((x, y))
        return _kronrod_panel(x, y)

    monkeypatch.setattr(quadrature, "_kronrod_panel", panel)
    rng = random.Random(30)
    shared = 0
    for _ in range(300):
        lower, upper = sorted(rng.uniform(-13.0, 13.0) for _ in range(2))
        calls.clear()
        try:
            centroid_quadrature(STD, ExcludedInterval(lower, upper), 0.0)
        except DeepTruncationError:
            pass
        a, b = (min(max(x, -12.0), 12.0) for x in (lower, upper))
        left, right = _ladder(-a, 12.0), _ladder(b, 12.0)
        assert len(calls) == len(set(calls)), (lower, upper)
        assert set(calls) == set(left + right), (lower, upper)
        assert len(calls) <= max(len(left), len(right)) + 1, (lower, upper)
        shared += len(left) + len(right) - len(calls)
    assert shared > 300


def test_reflected_problems_give_opposite_centroids():
    # Reflecting a problem about 0, (mu, sigma, (lower, upper), shift) to
    # (-mu, sigma, (-upper, -lower), -shift), swaps and mirrors its rays:
    # the value is exactly negated, the mass, bound and warnings are the
    # same, or both are declined.
    answered = 0
    for mu, sigma, (lower, upper), shift in _seeded_problems(31):
        result = _answer(mu, sigma, (lower, upper), shift)
        mirror = _answer(-mu, sigma, (-upper, -lower), -shift)
        if result is None:
            assert mirror is None, (mu, sigma, lower, upper, shift)
            continue
        answered += 1
        assert mirror.value == -result.value, (mu, sigma, lower, upper, shift)
        assert mirror[1:] == result[1:], (mu, sigma, lower, upper, shift)
    assert 800 < answered < 1000


# The sha256 of the reprs of (value, support_mass, abs_error_bound,
# warnings), or "declined", one line a problem of _seeded_problems(30).
ORACLE_DIGEST = "17aab398f40f579ec3607e2c2e4c1f57166df1ef892bca1856892a57570ae496"
# The reprs of (value, support_mass, abs_error_bound) of six problems
# (mu, sigma, lower, upper, shift).  The last four are two reflected
# pairs, whose values are exactly opposite; the fifth's left ray and the
# sixth's right ray are empty.
ORACLE_PINS = {
    (1.0, 2.0, -1.0, 4.0, 2.0):
        ("4.799489607594113", "0.33128767067416615", "3.099725589341384e-14"),
    (0.0, 1.0, -3.0, 2.0, 0.0):
        ("2.0563923838588605", "0.0241000299798093", "3.342523561120936e-14"),
    (0.0, 1.0, 0.9, 1.4, 0.0):
        ("-0.12976272335816968", "0.8966965338870118", "4.857275650505273e-15"),
    (0.0, 1.0, -1.4, -0.9, 0.0):
        ("0.12976272335816968", "0.8966965338870118", "4.857275650505273e-15"),
    (0.0, 1.0, -20.0, 0.5, 0.0):
        ("1.1410777703680646", "0.30853753872598694", "1.828930538631351e-14"),
    (0.0, 1.0, -0.5, 20.0, 0.0):
        ("-1.1410777703680646", "0.30853753872598694", "1.828930538631351e-14"),
}


def test_oracle_bits_are_pinned():
    # Every bit of the oracle's answers, and where it declines, over 1000
    # problems in five regimes; a change that moves one bit moves the
    # digest.  The pool holds holes wholly on one side of loc and edges
    # past the window.
    lines, one_side, past = [], 0, 0
    for mu, sigma, hole, shift in _seeded_problems(30):
        a, b = ((x - (mu + shift)) / sigma for x in hole)
        one_side += a > 0.0 or b < 0.0
        past += max(-a, b) > 12.0
        r = _answer(mu, sigma, hole, shift)
        fields = None if r is None else (r.value, r.support_mass, r.abs_error_bound, r.warnings)
        lines.append("declined" if fields is None else repr(fields))
    assert one_side > 200 and past > 200 and 100 < lines.count("declined") < 200
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ORACLE_DIGEST
    for (mu, sigma, lower, upper, shift), pinned in ORACLE_PINS.items():
        r = _answer(mu, sigma, (lower, upper), shift)
        assert (repr(r.value), repr(r.support_mass), repr(r.abs_error_bound)) == pinned


def test_full_window_estimates_well_below_tolerance():
    # 24 unit panels, each bounded by (b - a) U_k plus (1.25 F^2 + 0.5 F + 9)
    # eps of its value, F its farther |end|: 12.4 eps of the window's mass.
    _, err = _integrate(-12.0, 12.0)
    terms = []
    for k in range(-12, 12):
        far = max(abs(k), abs(k + 1))
        value = _kronrod_panel(k, k + 1.0)[0]
        terms.append(_UNIT_BOUNDS[far - 1] + (1.25 * far * far + 0.5 * far + 9.0) * EPS * value)
    assert math.isclose(err, math.fsum(terms), rel_tol=1e-14)
    assert 12.3 * EPS < err < 12.5 * EPS


def _unit_bound(k, rho):
    """4 M rho^-22 / (rho - 1), M bounding |phi| on the Bernstein ellipse
    E_rho of the unit panel [k, k + 1], with a, b its semi-axes times 2."""
    a, b = (rho + 1.0 / rho) / 2.0, (rho - 1.0 / rho) / 2.0
    m = std_pdf(max(0.0, k + 0.5 - a / 2.0)) * math.exp(b * b / 8.0)
    return 4.0 * m / rho**22 / (rho - 1.0)


def test_unit_bounds_are_minimised_over_rho():
    # Each constant is the least bound over rho on a grid of 1/64, rounded
    # up in its third digit.
    rhos = [1.0 + j / 64.0 for j in range(1, 64 * 30)]
    assert len(_UNIT_BOUNDS) == 12
    for k, bound in enumerate(_UNIT_BOUNDS):
        least = min(_unit_bound(k, rho) for rho in rhos)
        assert least <= bound <= 1.01 * least, k


def test_every_panel_bound_contains_its_error():
    # Every ray the oracle integrates is [x, 12] cut at the integers, so its
    # panels are the 24 unit panels and one [x, ceil x] per start x.  Each
    # distinct panel's bound contains the distance to its 100-digit mass
    # between its float ends.  The seeded starts have all their bits random,
    # so many round the first panel's center or half-width, whose nodes then
    # span ends a little off x and the cut: the bound covers that shift too.
    rng = random.Random(20261020)
    starts = [float(k) for k in range(-12, 12)]
    starts += [rng.randrange(-12, 12) + rng.random() for _ in range(600)]
    panels: dict = {}  # shared as in centroid_quadrature
    for x in starts:
        _integrate(x, 12.0, panels)
    moved, worst = 0, Fraction(0)
    for (a, b), (value, bound) in panels.items():
        center, half = Fraction(0.5 * (a + b)), Fraction(0.5 * (b - a))
        moved += (center - half, center + half) != (a, b)
        error = abs(Fraction(value) - _exact_mass(a, b))
        assert error <= Fraction(bound), (a, b)
        worst = max(worst, error / Fraction(bound))
    assert len(panels) == 624 and moved > 200
    # Not vacuous: somewhere the error reaches a tenth of the bound.
    assert worst > 0.1


def test_seeded_holes_meet_the_tolerances():
    # 20 000 seeded edge pairs, the window's edges included: each is
    # answered with a finite bound, or declined where the window's mass m
    # does not exceed its error bound Dm, the summed panel bounds plus the
    # mass beyond the window.  That is where the hole covers the whole
    # window, and where it leaves only a sliver of it (12 holes here).
    rng = random.Random(20261018)
    declined = slivers = 0
    for _ in range(20_000):
        lower, upper = sorted(rng.uniform(-13.0, 13.0) for _ in range(2))
        hole = ExcludedInterval(lower, upper)
        try:
            result = centroid_quadrature(STD, hole, 0.0)
        except DeepTruncationError:
            _, _, left, right = _rays(STD, hole, 0.0)
            mass = min(left[0] + right[0], 1.0)
            assert not mass > left[1] + right[1] + MASS_REMAINDER, (lower, upper)
            declined += 1
            slivers += mass > 0.0
        else:
            assert 0.0 < result.abs_error_bound < math.inf, (lower, upper)
    assert declined > slivers > 0


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
        assert abs(moment) <= 1e-13


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
    assert abs(result.value) <= 1e-13


def test_low_mass_warning_flag():
    result = centroid_quadrature(STD, ExcludedInterval(-8.0, 8.0), 0.0)
    assert "low_support_mass" in result.warnings
    ordinary = centroid_quadrature(STD, ExcludedInterval(-1.0, 1.0), 0.0)
    assert ordinary.warnings == ()


def test_deep_truncation_declined():
    with pytest.raises(DeepTruncationError):
        centroid_quadrature(STD, ExcludedInterval(-40.0, 41.0), 0.0)


def test_declined_exactly_where_the_hole_covers_the_window():
    # Declined where the hole covers the window, and where the window keeps
    # no more mass than its error bound: a ray one ulp long carries
    # phi(12) * ulp(12), about 4e-47, below the 3.6e-33 beyond the window.
    # Its exact centroid is about 1.3e-13, yet the ray's mean is 12.
    window = r"the support mass inside the window of \+-12.0 sigmas \(the tail cut-off\)"
    with pytest.raises(DeepTruncationError, match=f"^{window}, 0.0, "):
        centroid_quadrature(STD, ExcludedInterval(-12.0, 12.0), 0.0)
    inside = math.nextafter(-12.0, 0.0)
    for hole in (ExcludedInterval(inside, 12.0), ExcludedInterval(-12.0, -inside)):
        with pytest.raises(DeepTruncationError, match=f"^{window}, 3.8[0-9]*e-47, "):
            centroid_quadrature(STD, hole, 0.0)
    # A half-sigma ray holds 7e-31 and is answered.
    result = centroid_quadrature(STD, ExcludedInterval(-12.0, 11.5), 0.0)
    assert 1e-31 < result.support_mass < 1e-30 and math.isfinite(result.abs_error_bound)


def test_support_mass_capped_at_one():
    # The two rays of a hole 2e-200 sigmas wide sum past 1 once rounded.
    left, right = _integrate(-12.0, -1e-200), _integrate(1e-200, 12.0)
    assert left[0] + right[0] > 1.0
    params, hole = GaussianParams(0.0, 1e200), ExcludedInterval(-1.0, 1.0)
    result = centroid_quadrature(params, hole, 0.0)
    assert (result.value, result.support_mass) == (0.0, 1.0)


def test_overflowing_centroid_is_a_domain_error():
    # The exact centroid, about 1.798e308, lies beyond the largest double;
    # the closed form says the same.
    params, hole = GaussianParams(1.79e308, 1e306), ExcludedInterval(-1e308, 1.79e308)
    message = "^the centroid overflows the float range, mu \\+ shift = 1.79e\\+308$"
    for solve in (centroid_quadrature, centroid_exterior):
        with pytest.raises(DomainError, match=message):
            solve(params, hole, 0.0)


def test_window_remainders_below_1e_13():
    # What the window leaves out is below an absolute 1e-13.
    assert MASS_REMAINDER < MOMENT_REMAINDER < 1e-13


def test_hole_edge_outside_window_is_not_missed():
    # A far-away hole edge must not hide the density bump from the panel
    # nodes: the window is clipped to the support pieces.
    params = GaussianParams(0.0, 0.5)
    hole = ExcludedInterval(-200.0, 0.25)
    mass = _mass(params, hole, 0.0)
    assert math.isclose(mass, std_tail(0.5), rel_tol=1e-12)


def test_ray_integrals_split_and_errors():
    # Each ray's pass is standardized: (mass, error) with t = (x - loc) /
    # sigma, loc = 1 and sigma = 2 here.
    loc, (a, b), left, right = _rays(REF_PARAMS, REF_HOLE, 0.0)
    assert loc == 1.0
    assert math.isclose(left[0], 0.15865525393145705, rel_tol=1e-12)
    assert math.isclose(right[0], 0.06680720126885807, rel_tol=1e-12)
    assert left[1] <= 1e-13
    assert _mass(REF_PARAMS, REF_HOLE, 0.0) == left[0] + right[0]
    total = loc * (left[0] + right[0]) + 2.0 * (std_pdf(b) - std_pdf(a))
    assert math.isclose(
        total, 0.0024669184646184749 * 0.22546245520031512, rel_tol=1e-9, abs_tol=1e-15
    )
    # The standardized moment is phi(b) - phi(a) of the clamped edges, bit
    # for bit: here, where one edge lies past the window, and where both
    # do, on one side (a = b = 12).
    for hole in (REF_HOLE, ExcludedInterval(-1.0, 40.0), ExcludedInterval(-30.0, 4.0),
                 ExcludedInterval(30.0, 40.0)):
        loc, (a, b), left, right = _rays(REF_PARAMS, hole, 0.0)
        result = centroid_quadrature(REF_PARAMS, hole, 0.0)
        mass = min(left[0] + right[0], 1.0)
        assert result.support_mass == mass
        assert result.value == loc + 2.0 * ((std_pdf(b) - std_pdf(a)) / mass), hole


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
    # phi(-1) and phi(1) are the same bits, so the moment is exactly 0 and
    # no residue is scaled up.
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
        m = left[0] + right[0]
        r = (std_pdf(b) - std_pdf(a)) / m
        d_mass = left[1] + right[1] + MASS_REMAINDER
        # T's rounding: (c^2/4 + 5/2) eps per phi(a) + phi(b), c = 12.
        d_moment = MOMENT_REMAINDER + (12.0**2 / 4 + 2.5) * eps * (std_pdf(a) + std_pdf(b))
        result = centroid_quadrature(params, hole, shift)
        s = (std_pdf(a) * abs(a - r) + std_pdf(b) * abs(b - r)) / m
        rounding = eps * (
            abs(result.value) + params.sigma * abs(r)
            + (1.0 + s) * (abs(loc) + params.sigma * max(abs(a), abs(b)))
        )
        expected = params.sigma * (d_moment + abs(r) * d_mass) / (m - d_mass) + rounding
        assert math.isclose(result.abs_error_bound, expected, rel_tol=1e-12)


def test_low_mass_flag_defined_once():
    # model._result builds the result of every method: the flag, its floor,
    # the overflow's message and the result's constructor live there alone.
    package = pathlib.Path(model.__file__).parent
    for text in ("LOW_SUPPORT_MASS", "LOW_MASS_FLOOR", "centroid overflows", r"CentroidResult\("):
        users = [p.name for p in package.glob("*.py") if re.search(rf"\b{text}", p.read_text())]
        assert users == ["model.py"], text


def test_non_finite_location_rejected():
    for shift in (math.nan, math.inf, 10**400):
        with pytest.raises(DomainError):
            centroid_quadrature(STD, ExcludedInterval(-1.0, 1.0), shift)
    with pytest.raises(DomainError, match="mu \\+ shift"):
        centroid_quadrature(GaussianParams(1e308, 1.0), ExcludedInterval(-1.0, 1.0), 1e308)
