"""Sampler tests: determinism, support invariant, and statistics."""

import math
from statistics import NormalDist

import pytest

np = pytest.importorskip("numpy")
from philox_reference import philox4x64_block

from trunc_centroid import philox, sampler
from trunc_centroid.centroid import centroid_exterior
from trunc_centroid.errors import DeepTruncationError, DomainError, ParameterError
from trunc_centroid.model import ExcludedInterval, GaussianParams
from trunc_centroid.philox import _stream_words, scratch
from trunc_centroid.sampler import _inv_std_cdf, monte_carlo_centroid, sample_exterior
from trunc_centroid.special import std_cdf, std_tail

STD = GaussianParams(0.0, 1.0)
REF_PARAMS = GaussianParams(1.0, 2.0)
REF_HOLE = ExcludedInterval(-1.0, 4.0)


def _in_hole(values, hole):
    return np.any((values > hole.lower) & (values < hole.upper))


def test_same_seed_identical_batches():
    a = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 5000, seed=42)
    b = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 5000, seed=42)
    assert np.array_equal(a.values, b.values)
    assert a.acceptance_rate == b.acceptance_rate


def test_different_seeds_differ():
    a = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 1000, seed=1)
    b = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 1000, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_seed_is_taken_mod_2_64():
    # The sampler's own run of the stream masks the key as CounterStream
    # does: seeds that agree modulo 2^64, negative ones included, give the
    # same bits.
    for seeds in ((5, (1 << 64) + 5, 5 - (1 << 64)), (-1, (1 << 64) - 1)):
        bits = {sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 256, seed).values.tobytes()
                for seed in seeds}
        assert len(bits) == 1, seeds


def test_batch_reports_the_seed_as_given():
    for seed in (-5, 5, (1 << 64) + 5):
        assert sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 16, seed=seed).seed == seed


def test_non_finite_location_rejected():
    # The same check, with the same message, as the quadrature oracle.
    for shift in (math.nan, math.inf, 10**400, -(10**400)):
        with pytest.raises(DomainError, match="mu \\+ shift must be finite"):
            sample_exterior(STD, ExcludedInterval(-1.0, 1.0), shift, 10, seed=1)
    with pytest.raises(DomainError, match="mu \\+ shift must be finite, got inf"):
        sample_exterior(
            GaussianParams(1e308, 1.0), ExcludedInterval(-1.0, 1.0), 1e308, 10, seed=1
        )


def test_prefix_stability_across_batch_sizes():
    # Draw i is a pure function of (seed, i): growing the batch must not
    # disturb earlier draws.
    small = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 200, seed=9)
    large = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 4000, seed=9)
    assert np.array_equal(small.values, large.values[:200])
    # and for a low-mass hole
    hole = ExcludedInterval(-6.0, 6.0)
    small_mix = sample_exterior(STD, hole, 0.0, 50, seed=9)
    large_mix = sample_exterior(STD, hole, 0.0, 400, seed=9)
    assert np.array_equal(small_mix.values, large_mix.values[:50])


def test_reference_hole_draws_stay_outside():
    batch = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 20000, seed=3)
    assert not _in_hole(batch.values, REF_HOLE)
    assert batch.acceptance_rate > 0.05


def test_six_sigma_hole_draws_stay_outside():
    hole = ExcludedInterval(-6.0, 6.0)
    exterior = std_cdf(-6.0) + std_tail(6.0)
    assert exterior < 1e-8
    batch = sample_exterior(STD, hole, 0.0, 4000, seed=17)
    assert batch.acceptance_rate == 1.0
    assert np.all(np.abs(batch.values) >= 6.0)


def test_right_heavy_hole_agrees_with_closed_form():
    # Hole pushed far left: nearly all mass sits in the right tail, so
    # the estimate must straddle the closed-form centroid.
    hole = ExcludedInterval(-8.0, 5.5)
    batch = sample_exterior(STD, hole, 0.0, 4000, seed=23)
    estimate = monte_carlo_centroid(batch)
    closed = centroid_exterior(STD, hole, 0.0).value
    assert abs(estimate.mean - closed) < 4.0 * estimate.std_error
    assert not _in_hole(batch.values, hole)


def test_low_mass_hole_balances_both_tails():
    hole = ExcludedInterval(-2.5, 3.0)
    exterior = std_cdf(-2.5) + std_tail(3.0)
    assert exterior < 0.01
    batch = sample_exterior(STD, hole, 0.0, 6000, seed=29)
    left_fraction = float(np.mean(batch.values <= -2.5))
    expected = std_cdf(-2.5) / exterior
    assert abs(left_fraction - expected) < 0.03
    estimate = monte_carlo_centroid(batch)
    closed = centroid_exterior(STD, hole, 0.0).value
    assert abs(estimate.mean - closed) < 4.0 * estimate.std_error


def test_shift_moves_the_samples():
    shifted = sample_exterior(STD, REF_HOLE, 2.0, 4000, seed=31)
    base = sample_exterior(STD, REF_HOLE, 0.0, 4000, seed=31)
    assert shifted.values.mean() > base.values.mean()
    assert not _in_hole(shifted.values, REF_HOLE)


def test_monte_carlo_estimate_fields():
    batch = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 5000, seed=5)
    estimate = monte_carlo_centroid(batch)
    assert estimate.n == 5000
    manual_mean = float(np.mean(batch.values))
    manual_se = float(np.std(batch.values, ddof=1)) / math.sqrt(5000)
    assert estimate.mean == manual_mean
    assert estimate.std_error == manual_se


def test_monte_carlo_needs_two_samples():
    batch = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 1, seed=5)
    with pytest.raises(ParameterError):
        monte_carlo_centroid(batch)


def test_sample_count_validation():
    with pytest.raises(ParameterError):
        sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 0, seed=5)
    # Counts of 2^53 or more are refused before any array is allocated;
    # counts past Python's 4300-digit int-to-str limit are quoted short.
    for n in (2**53, 10**19, 10**5000, -(10**5000)):
        with pytest.raises(ParameterError, match=r"need 1 <= n < 2\^53"):
            sample_exterior(REF_PARAMS, REF_HOLE, 0.0, n, seed=5)


@pytest.mark.parametrize(
    "field,value", [("n", 2.5), ("n", "3"), ("seed", 1.5), ("seed", "7"), ("seed", None)]
)
def test_count_and_seed_that_are_not_integers_are_refused(field, value):
    args = {"n": 16, "seed": 5, field: value}
    with pytest.raises(ParameterError, match=f"^{field} must be an integer, got {value!r}$"):
        sample_exterior(REF_PARAMS, REF_HOLE, 0.0, **args)


def test_numpy_integer_count_and_seed_are_taken():
    batch = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, np.int64(16), seed=np.uint64(5))
    assert type(batch.seed) is int and batch.seed == 5
    assert np.array_equal(batch.values, sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 16, 5).values)


def test_deep_truncation_refused():
    with pytest.raises(DeepTruncationError):
        sample_exterior(STD, ExcludedInterval(-40.0, 41.0), 0.0, 10, seed=5)


def test_statistical_consistency_across_seeds():
    # 4 standard errors is a ~6e-5 two-sided event per run; these runs
    # should essentially never miss, and 99% coverage is the contract.
    configs = [
        (REF_PARAMS, REF_HOLE, 0.0),
        (STD, ExcludedInterval(-0.7, 1.1), 0.5),
    ]
    hits = 0
    runs = 0
    for params, hole, shift in configs:
        closed = centroid_exterior(params, hole, shift).value
        for seed in range(40):
            batch = sample_exterior(params, hole, shift, 4000, seed=seed)
            assert not _in_hole(batch.values, hole)
            estimate = monte_carlo_centroid(batch)
            runs += 1
            if abs(estimate.mean - closed) < 4.0 * estimate.std_error:
                hits += 1
    assert hits / runs >= 0.99


# ------------------------------------------------ stream layout and contract

# Exterior mass 0.0601 under N(0, 1), the low end of the benchmark's
# high-mass class.
HIGH_MASS_HOLE = ExcludedInterval(-1.88, 1.88)
# Exterior mass 0.0076, 82% of it on the left.
LOW_MASS_HOLE = ExcludedInterval(-2.5, 3.0)
# The sampler's stream id, part of the seed-to-samples contract.
SAMPLER_STREAM = 0
_NORMAL = NormalDist()


def _block(seed, stream, j):
    return philox4x64_block((j, 0, 0, stream), (seed, 0))


def _reference_draws(params, hole, seed, n):
    """Draws 0 .. n-1 by inversion of scalar Philox words, in plain floats,
    and the probability that each one inverts."""
    left = std_cdf((hole.lower - params.mu) / params.sigma)
    right = std_tail((hole.upper - params.mu) / params.sigma)
    mass = left + right
    out, probabilities = [], []
    for i in range(n):
        word = _block(seed, SAMPLER_STREAM, i // 4)[i % 4]
        u = ((word >> 12) + 0.5) * 2.0**-52
        if u * mass <= left:
            p = u * mass
            out.append(min(params.mu + params.sigma * _NORMAL.inv_cdf(p), hole.lower))
        else:
            p = (1.0 - u) * mass
            out.append(max(params.mu - params.sigma * _NORMAL.inv_cdf(p), hole.upper))
        probabilities.append(p)
    return np.array(out), np.array(probabilities)


def _assert_stdlib_bits(got, expected, p):
    """got is expected bit for bit, but where numpy's log of the tail
    probability min(p, 1 - p) is not math.log's, which the stdlib's
    inv_cdf takes; there it is within 4 ulps.  numpy's vectorized log is
    off by an ulp on rare inputs on some builds (AVX-512)."""
    tail = np.minimum(p, 1.0 - p)
    apart = (tail < 0.075) & (np.log(tail) != np.array([math.log(t) for t in tail]))
    assert np.array_equal(got[~apart], expected[~apart])
    assert np.all(np.abs(got - expected)[apart] <= 4.0 * np.spacing(np.abs(expected[apart])))


# Any stream id follows the layout: 0 is the sampler's, the others are
# free ids.
@pytest.mark.parametrize("stream", [SAMPLER_STREAM, 1, 6, 7])
def test_stream_blocks_are_contiguous_philox_counters(stream):
    # Block j of stream s is counter (j, 0, 0, s) under key (seed, 0).
    seed = 0xDEADBEEF12345678
    with scratch():
        words = _stream_words(seed, stream, 12, 16).reshape(4, 4).copy()
        inside = _stream_words(seed, stream, 13, 14).copy()
    for row, j in enumerate(range(3, 7)):
        assert tuple(int(w) for w in words[row]) == _block(seed, stream, j)
    # Words 13 .. 26 start and end inside blocks 3 and 6.
    assert np.array_equal(inside, words.reshape(-1)[1:15])


@pytest.mark.parametrize(
    "params, hole, two_sided, n",
    [
        (REF_PARAMS, REF_HOLE, True, 41),
        (STD, LOW_MASS_HOLE, True, 41),
        # The left tail mass underflows to 0: every draw goes right.
        (STD, ExcludedInterval(-40.0, 3.0), False, 41),
        # 16 384 draws fill the first 4096-block chunk; 16 come from the
        # next.
        (REF_PARAMS, REF_HOLE, True, 16_400),
    ],
    ids=["high_mass", "low_mass", "one_sided", "two_chunks"],
)
def test_draw_i_inverts_word_i_of_stream_zero(params, hole, two_sided, n):
    expected, p = _reference_draws(params, hole, 19, n)
    batch = sample_exterior(params, hole, 0.0, n, seed=19)
    _assert_stdlib_bits(batch.values, expected, p)
    below = np.count_nonzero(expected <= hole.lower)
    assert (0 < below < n) if two_sided else below == 0


def _branch_edges():
    """p on both sides of the central branch's edges 0.075 and 0.925 and of
    the far tail's edge r = 5, that is min(p, 1 - p) = exp(-25)."""
    tails = np.outer([0.075, math.exp(-25.0)], np.linspace(0.99, 1.01, 201)).ravel()
    points = [*tails, *(1.0 - tails)]
    for edge in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
        below = above = edge
        points.append(edge)
        for _ in range(8):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            points += [below, above]
    return np.array(points)


def test_inv_std_cdf_matches_the_stdlib():
    # AS241 in numpy, in the stdlib's order of operations.
    low = np.logspace(-300, math.log10(0.5), 3000)
    rng = np.random.default_rng(2024)
    uniform = rng.random(20_000)
    cases = [
        low,
        1.0 - low[low > 1e-16],
        uniform[uniform > 0.0],
        _branch_edges(),
        # Arrays that one branch takes whole, or that skip one branch.
        rng.uniform(0.1, 0.9, 500),  # all central
        rng.uniform(1e-6, 0.05, 500),  # all near tail
        np.logspace(-300, -12, 500),  # all far tail
        np.logspace(-40, -2, 500),  # near and far tails, no central
        np.array([0.5]),
        np.array([1e-20]),
    ]
    for p in cases:
        expected = np.array([_NORMAL.inv_cdf(float(v)) for v in p])
        out = np.empty(p.size)
        _inv_std_cdf(p, out)
        _assert_stdlib_bits(out, expected, p)


@pytest.mark.parametrize(
    "hole",
    [
        ExcludedInterval(-0.1, 0.1),
        HIGH_MASS_HOLE,
        LOW_MASS_HOLE,
        ExcludedInterval(-20.0, 20.0),
        ExcludedInterval(-36.0, 36.0),
    ],
)
def test_acceptance_rate_is_one_at_every_mass(hole):
    batch = sample_exterior(STD, hole, 0.0, 500, seed=11)
    assert batch.acceptance_rate == 1.0
    assert not _in_hole(batch.values, hole)


def test_draws_that_round_into_the_hole_are_pinned_to_their_side(monkeypatch):
    hole = ExcludedInterval(-1.0, 2.0)
    sides = sample_exterior(STD, hole, 0.0, 200, seed=3).values <= hole.lower
    assert 0 < np.count_nonzero(sides) < 200
    # Phi^-1 answering 0 puts every draw at loc, inside the hole.
    monkeypatch.setattr(sampler, "_inv_std_cdf", lambda p, out: out.fill(0.0))
    pinned = sample_exterior(STD, hole, 0.0, 200, seed=3).values
    assert np.array_equal(pinned, np.where(sides, hole.lower, hole.upper))


def test_high_mass_prefix_stable_across_chunks(monkeypatch):
    # 16 384 draws per 4096-block chunk, so the long batch takes two
    # chunks; the short ones end inside them or at the first one's end.
    hole = HIGH_MASS_HOLE
    assert 0.05 < std_cdf(hole.lower) + std_tail(hole.upper) < 0.07
    full = sample_exterior(STD, hole, 0.0, 20_000, seed=4)
    assert not _in_hole(full.values, hole)
    for n in (1, 999, 16_384, 16_385):
        part = sample_exterior(STD, hole, 0.0, n, seed=4)
        assert np.array_equal(part.values, full.values[:n])
    # Tiny chunks change every chunk boundary but no value.
    monkeypatch.setattr(philox, "CHUNK_BLOCKS", 3)
    small = sample_exterior(STD, hole, 0.0, 300, seed=4)
    assert np.array_equal(small.values, full.values[:300])
    assert small.acceptance_rate == sample_exterior(
        STD, hole, 0.0, 300, seed=4
    ).acceptance_rate


def test_low_mass_prefix_stable_across_chunks(monkeypatch):
    # 20 000 draws take two chunks of words; 16 384 fill the first.
    full = sample_exterior(STD, LOW_MASS_HOLE, 0.0, 20_000, seed=6)
    assert not _in_hole(full.values, LOW_MASS_HOLE)
    for n in (1, 4097, 16_384, 16_385, 17_000):
        part = sample_exterior(STD, LOW_MASS_HOLE, 0.0, n, seed=6)
        assert np.array_equal(part.values, full.values[:n])
    monkeypatch.setattr(philox, "CHUNK_BLOCKS", 5)
    small = sample_exterior(STD, LOW_MASS_HOLE, 0.0, 2000, seed=6)
    assert np.array_equal(small.values, full.values[:2000])


@pytest.mark.parametrize(
    "hole, side",
    [(ExcludedInterval(-40.0, 3.0), "right"), (ExcludedInterval(-3.0, 40.0), "left")],
)
def test_one_sided_hole(hole, side):
    # The far edge's tail mass underflows to zero, so one side gets no
    # draws at all.
    batch = sample_exterior(STD, hole, 0.0, 4000, seed=2)
    if side == "right":
        assert np.all(batch.values >= hole.upper)
    else:
        assert np.all(batch.values <= hole.lower)
    estimate = monte_carlo_centroid(batch)
    closed = centroid_exterior(STD, hole, 0.0).value
    assert abs(estimate.mean - closed) < 4.0 * estimate.std_error


def test_twenty_sigma_hole_stays_outside_and_agrees():
    hole = ExcludedInterval(-20.0, 20.0)
    batch = sample_exterior(STD, hole, 0.0, 20_000, seed=12)
    assert np.all(np.abs(batch.values) >= 20.0)
    assert 0.45 < float(np.mean(batch.values < 0.0)) < 0.55
    estimate = monte_carlo_centroid(batch)
    closed = centroid_exterior(STD, hole, 0.0).value
    assert abs(estimate.mean - closed) < 4.0 * estimate.std_error


# Draws near the float range whose pairwise sums meet inf + (-inf).
HUGE_PARAMS = GaussianParams(0.0, 5e306)
HUGE_HOLE = ExcludedInterval(-2.5e306, 2.5e306)


def test_huge_draws_of_both_signs_give_a_finite_estimate():
    batch = sample_exterior(HUGE_PARAMS, HUGE_HOLE, 0.0, 12_500, seed=7)
    assert np.isfinite(batch.values).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.add.reduce(batch.values))
    estimate = monte_carlo_centroid(batch)
    assert math.isfinite(estimate.mean) and 0.0 < estimate.std_error < math.inf
    closed = centroid_exterior(HUGE_PARAMS, HUGE_HOLE, 0.0).value
    assert abs(estimate.mean - closed) < 4.0 * estimate.std_error


def _batch(values):
    return sampler.SampleBatch(values=values, seed=0, acceptance_rate=1.0, support_mass=1.0)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 127, 128, 129, 1_250, 12_500, 16_385, 20_000])
def test_statistics_keep_numpys_bits(n):
    rng = np.random.default_rng(n)
    for offset in (1e-5, -1.0, 3e2, 1e5):
        for scale in (1e-5, 1.0, 1e5):
            values = offset + scale * rng.standard_normal(n)
            estimate = monte_carlo_centroid(_batch(values))
            expected_se = float(np.std(values, ddof=1)) / math.sqrt(n)
            assert estimate.mean.hex() == float(np.mean(values)).hex()
            assert estimate.std_error.hex() == expected_se.hex()
            assert estimate.n == n


@pytest.mark.parametrize("sign", [1.0, "mixed"])
def test_rescaled_statistics_keep_numpys_bits(sign):
    # Sums that overflow, or that meet inf + (-inf), are taken in units of
    # the largest |draw|, with numpy's bits on the scaled draws.
    rng = np.random.default_rng(17)
    values = rng.uniform(1e307, 1.7e308, 3_000)
    if sign == "mixed":
        values *= rng.choice([-1.0, 1.0], values.size)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.mean(values))
    scale = float(np.max(np.abs(values)))
    estimate = monte_carlo_centroid(_batch(values))
    expected_se = scale * (float(np.std(values / scale, ddof=1)) / math.sqrt(values.size))
    assert estimate.mean.hex() == (scale * float(np.mean(values / scale))).hex()
    assert estimate.std_error.hex() == expected_se.hex()


def _double(x, out):
    np.multiply(x, 2.0, out=out)


def _root(x, out):
    np.sqrt(x, out=out)


@pytest.mark.parametrize(
    "mask",
    [
        np.random.default_rng(3).random(5_000) < 0.3,  # mixed
        np.random.default_rng(4).random(20_000) < 0.9,  # mixed, past the scratch cap
        np.ones(700, bool),
        np.zeros(700, bool),
        np.ones(1, bool),
        np.zeros(1, bool),
    ],
    ids=["mixed", "mixed-past-cap", "all-true", "all-false", "one-true", "one-false"],
)
@pytest.mark.parametrize("branches", [(_double, _root), (sampler._inv_central, sampler._inv_tail)])
def test_piecewise_matches_a_plain_select(mask, branches):
    on_true, on_false = branches
    x = np.random.default_rng(mask.size).uniform(0.01, 0.99, mask.size)
    mask_before, x_before = mask.copy(), x.copy()
    true_all, false_all, out = np.empty(x.size), np.empty(x.size), np.full(x.size, np.nan)
    with scratch():
        on_true(x, true_all)
        on_false(x, false_all)
        sampler._piecewise(mask, x, out, on_true, on_false)
    expected = np.where(mask, true_all, false_all)
    assert out.tobytes() == expected.tobytes()
    assert np.array_equal(mask, mask_before) and x.tobytes() == x_before.tobytes()
