"""Oracle integrator tests.

The integrator is the package's ground truth, so it gets checked against
things it cannot share with the closed form: polynomial exactness of the
panel rule, analytically known tail masses (from the erfc-based module,
whose own tests pin it to an independent high-precision reference), and
its own reported error estimates.
"""

import hashlib
import math
import random
from decimal import Decimal, localcontext
from operator import add, mul

import pytest

from trunc_centroid import centroid, model, quadrature
from trunc_centroid.centroid import centroid_exterior
from trunc_centroid.errors import DeepTruncationError, DomainError, ToleranceNotMetError
from trunc_centroid.model import ExcludedInterval, GaussianParams, Method
from trunc_centroid.quadrature import (
    _NODES,
    _WG,
    _WGK,
    _integrate,
    _kronrod_panel,
    _rule,
    ABS_TOL,
    MASS_REMAINDER,
    MOMENT_REMAINDER,
    REL_TOL,
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


def _one_sign(ys):
    """Whether the values have one sign, a zero counting for either."""
    return all(y >= 0.0 for y in ys) or all(y <= 0.0 for y in ys)


def _exact_mass(a, b):
    """Phi(b) - Phi(a) for floats a and b, computed at 100 digits: Phi(x) -
    1/2 is phi(x) times x + x^3/3 + x^5/15 + ..., the sum of x^(2n+1) /
    (2n+1)!!, all of whose terms are summed."""
    with localcontext() as ctx:
        ctx.prec = 100

        def pdf(x):
            return INV_SQRT_2PI * (-(x * x) / 2).exp()

        def centered_cdf(x):
            term = total = x
            n = 1
            while abs(term) > Decimal("1e-100"):
                term *= x * x / (2 * n + 1)
                total += term
                n += 1
            return pdf(x) * total

        a, b = Decimal(a), Decimal(b)
        return float(centered_cdf(b) - centered_cdf(a))


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
    """The 7-15 rule as a loop over the mirror pairs: the reference whose
    bits the straight-line quadrature._rule keeps.  The weighted pair sum
    starts from 0 and adds left to right, as sum() does up to Python 3.11
    (3.12's sum() of floats is compensated), so the reference is the same
    on every interpreter."""
    lo = ys[:7]
    hi = ys[:7:-1]
    pairs = list(map(add, lo, hi))
    total = 0
    for term in map(mul, _WGK, pairs):
        total += term
    resk = _WGK[7] * ys[7] + total
    resg = _WG[3] * ys[7] + _WG[0] * pairs[1] + _WG[1] * pairs[3] + _WG[2] * pairs[5]
    mean = 0.5 * resk
    resabs = _WGK[7] * abs(ys[7])
    resasc = _WGK[7] * abs(ys[7] - mean)
    for w, y_lo, y_hi in zip(_WGK, lo, hi):
        resabs += w * (abs(y_lo) + abs(y_hi))
        resasc += w * (abs(y_lo - mean) + abs(y_hi - mean))
    err = abs((resk - resg) * half)
    resasc *= half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, max(err, 50.0 * EPS * resabs * half)


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
        # The rule takes values of one sign, so the cubic, whose roots are 0
        # and +-sqrt(1/2), is fed only panels between its roots, where t
        # times it has one sign too.
        (
            lambda ts: [4.0 * t**3 - 2.0 * t for t in ts],
            [(-3.5, -0.75), (-0.7, 0.0), (0.1, 0.7), (0.75, 2.0)],
        ),
        (
            lambda ts: [abs(t - 0.123456) ** 0.5 for t in ts],
            [(x, x + 1.0) for x in range(-4, 9)],
        ),
    ],
    ids=["phi", "sign_changing_cubic", "rough"],
)
def test_rule_keeps_the_bits_of_the_loop(func, panels):
    # The integrand, and t times it as a second input of one sign, on the
    # nodes _kronrod_panel forms.
    for a, b in panels:
        center, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = [center + half * x for x in _NODES]
        fs = func(ts)
        for ys in (fs, list(map(mul, ts, fs))):
            assert _one_sign(ys), (a, b)
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


def test_every_panel_hands_the_rule_one_sign(monkeypatch):
    # The rule's rounding floor sums w * y and takes one abs, which is the
    # sum of w * |y| only for values of one sign.  phi > 0 on the window,
    # so each panel hands the rule 15 positive values, and there the rule
    # keeps the loop's bits.
    edges = _ray_edges(29)
    # What _integrate hands the rule, one call a panel.
    seen = []

    def rule(ys, half):
        seen.append((ys, half))
        return _rule(ys, half)

    monkeypatch.setattr(quadrature, "_rule", rule)
    for e in edges:
        _integrate(-12.0, e)
        _integrate(e, 12.0)
    assert len(seen) > 2 * len(edges)
    for ys, half in seen:
        assert all(y > 0.0 for y in ys), ys
        assert _rule(ys, half) == _loop_rule(ys, half), ys


def test_weights_sum_to_interval_length():
    assert math.isclose(2.0 * sum(_WGK[:7]) + _WGK[7], 2.0, rel_tol=1e-14)
    assert math.isclose(2.0 * sum(_WG[:3]) + _WG[3], 2.0, rel_tol=1e-14)


def _rule_of(poly, a, b):
    """The rule's integral of poly over [a, b], from its node values."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    return _rule([poly(center + half * x) for x in _NODES], half)[0]


def test_panel_exact_on_polynomials():
    # Kronrod 15 integrates degree <= 22 exactly; check a few.
    for degree in (3, 8, 13, 20):
        value = _rule_of(lambda t: t**degree, 0.0, 1.0)
        assert math.isclose(value, 1.0 / (degree + 1), rel_tol=1e-13)
    # The rule takes values of one sign, so the cubic over (-1, 2) is summed
    # over the pieces between its roots 0 and +-sqrt(1/2).
    root = math.sqrt(0.5)
    pieces = [(-1.0, -root), (-root, 0.0), (0.0, root), (root, 2.0)]
    value = sum(_rule_of(lambda t: 4.0 * t**3 - 2.0 * t, a, b) for a, b in pieces)
    assert math.isclose(value, (2.0**4 - 1.0) - (4.0 - 1.0), rel_tol=1e-13)
    # The panel integrates phi on its nodes.
    value, _ = _kronrod_panel(0.0, 1.0)
    assert math.isclose(value, std_cdf(1.0) - 0.5, rel_tol=1e-14)


def test_panel_mirror_is_exact():
    # Node values are summed in mirror pairs: a panel reflected about 0
    # gives the same mass and error.
    for a, b in ((0.3, 2.9), (1.0, 12.0), (0.0, 4.1)):
        assert _kronrod_panel(-b, -a) == _kronrod_panel(a, b)


def test_integrate_known_gaussian_masses():
    value, err = _integrate(-1.0, 1.0)
    assert math.isclose(value, 1.0 - 0.3173105078629141, rel_tol=1e-13)
    assert err <= max(ABS_TOL, REL_TOL * abs(value))
    value, _ = _integrate(-12.0, -1.0)
    assert math.isclose(value, 0.15865525393145705, rel_tol=1e-12)


def test_integrate_error_estimate_is_honest():
    # On seeded rays in the window the estimates cover the distance to the
    # exact integrals, and never fall below the rounding floor, 50 eps of
    # the integral's magnitude.  The edges lie on a grid of 1/64, so every
    # panel's center and half-width are exact and its ends are the cuts:
    # the rounding of the ends is abs_error_bound's edge term, not these
    # estimates'.
    rng = random.Random(13)
    for _ in range(200):
        a, b = sorted(rng.randrange(-768, 769) / 64 for _ in range(2))
        if a == b:
            continue
        value, err = _integrate(a, b)
        mass = _exact_mass(a, b)
        assert abs(value - mass) <= err, (a, b)
        assert err >= 50.0 * EPS * value * (1.0 - 1e-12), (a, b)


def test_integrate_empty_interval():
    assert _integrate(1.0, 1.0) == (0.0, 0.0)
    assert _integrate(2.0, 1.0) == (0.0, 0.0)


def test_integrate_rough_integrand_misses_tolerance(monkeypatch):
    # A square-root kink inside a unit panel is beyond its 7-15 rule: the
    # composite rule's estimate says so, and the oracle raises instead of
    # returning a value.  The density is made rough through its exp:
    # |0.1 - t * t / 2| ** 0.5 kinks at t = +-sqrt(0.2), inside the panels
    # (-1, 0) and (0, 1), and stays >= 0.
    monkeypatch.setattr(quadrature, "exp", lambda u: abs(u + 0.1) ** 0.5)
    value, err = _integrate(-4.0, 9.0)
    assert err > max(ABS_TOL, REL_TOL * value)
    with pytest.raises(ToleranceNotMetError, match="miss the tolerances"):
        centroid_quadrature(STD, ExcludedInterval(-20.0, -4.0), 0.0)


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


def test_tolerance_miss_names_the_callers_ray(monkeypatch):
    # The left ray runs mirrored, but a miss names the ray [-12, a] the
    # caller asked for.  The density kinks at +-sqrt(0.2), as in
    # test_integrate_rough_integrand_misses_tolerance.
    monkeypatch.setattr(quadrature, "exp", lambda u: abs(u + 0.1) ** 0.5)
    with pytest.raises(ToleranceNotMetError, match=r" on \[-12\.0, 0\.5\] miss "):
        centroid_quadrature(STD, ExcludedInterval(0.5, 13.0), 0.0)
    with pytest.raises(ToleranceNotMetError, match=r" on \[-0\.5, 12\.0\] miss "):
        centroid_quadrature(STD, ExcludedInterval(-13.0, -0.5), 0.0)


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
ORACLE_DIGEST = "e33892b62bf81bb318c03db14b5a53664cd82ab5c21a4123dc265384245b6b57"


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


def test_full_window_estimates_well_below_tolerance():
    # 24 unit panels: each estimate is the rounding floor, so the window's
    # sum is 50 eps times the integral of phi.
    _, err = _integrate(-12.0, 12.0)
    assert err < ABS_TOL / 5.0
    assert math.isclose(err, 50.0 * EPS, rel_tol=1e-4)


def test_seeded_holes_meet_the_tolerances():
    # 20 000 seeded edge pairs, the window's edges included: each is
    # answered with a finite bound, or declined where the window's mass m
    # does not exceed its error bound Dm, the summed estimates plus the
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
    # Each ray's pass is standardized: (mass, error) with t = (x - loc) /
    # sigma, loc = 1 and sigma = 2 here.
    loc, (a, b), left, right = _rays(REF_PARAMS, REF_HOLE, 0.0)
    assert loc == 1.0
    assert math.isclose(left[0], 0.15865525393145705, rel_tol=1e-12)
    assert math.isclose(right[0], 0.06680720126885807, rel_tol=1e-12)
    assert left[1] <= ABS_TOL
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
    assert quadrature.LOW_SUPPORT_MASS is model.LOW_SUPPORT_MASS
    assert centroid.LOW_SUPPORT_MASS is model.LOW_SUPPORT_MASS
    assert quadrature.LOW_MASS_FLOOR is model.LOW_MASS_FLOOR is centroid.LOW_MASS_FLOOR


def test_non_finite_location_rejected():
    for shift in (math.nan, math.inf, 10**400):
        with pytest.raises(DomainError):
            centroid_quadrature(STD, ExcludedInterval(-1.0, 1.0), shift)
    with pytest.raises(DomainError, match="mu \\+ shift"):
        centroid_quadrature(GaussianParams(1e308, 1.0), ExcludedInterval(-1.0, 1.0), 1e308)
