"""Sampler tests: determinism, support invariant, and statistics."""

import math

import numpy as np
import pytest

from trunc_centroid import philox, sampler
from trunc_centroid.centroid import centroid_exterior
from trunc_centroid.errors import DeepTruncationError, DomainError, ParameterError
from trunc_centroid.model import ExcludedInterval, GaussianParams
from trunc_centroid.philox import philox4x64_block, stream_blocks
from trunc_centroid.sampler import (
    MIXTURE_MASS_THRESHOLD,
    monte_carlo_centroid,
    sample_exterior,
)
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
    a = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 256, seed=5)
    b = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 256, seed=(1 << 64) + 5)
    assert np.array_equal(a.values, b.values)


def test_batch_reports_the_seed_as_given():
    for seed in (-5, 5, (1 << 64) + 5):
        assert sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 16, seed=seed).seed == seed


def test_non_finite_location_rejected():
    # The same check, with the same message, as the quadrature oracle.
    for shift in (math.nan, math.inf):
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
    # and on the tail-mixture path
    hole = ExcludedInterval(-6.0, 6.0)
    small_mix = sample_exterior(STD, hole, 0.0, 50, seed=9)
    large_mix = sample_exterior(STD, hole, 0.0, 400, seed=9)
    assert np.array_equal(small_mix.values, large_mix.values[:50])


def test_support_invariant_rejection_path():
    batch = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, 20000, seed=3)
    assert not _in_hole(batch.values, REF_HOLE)
    assert batch.acceptance_rate > 0.05


def test_acceptance_rate_tracks_exterior_mass():
    hole = ExcludedInterval(-0.1, 0.1)
    batch = sample_exterior(STD, hole, 0.0, 20000, seed=11)
    exterior = std_cdf(-0.1) + std_tail(0.1)
    assert abs(batch.acceptance_rate - exterior) < 0.02
    assert np.all(np.abs(batch.values) >= 0.1)


def test_mixture_path_selected_and_support_held():
    hole = ExcludedInterval(-6.0, 6.0)
    exterior = std_cdf(-6.0) + std_tail(6.0)
    assert exterior < MIXTURE_MASS_THRESHOLD
    batch = sample_exterior(STD, hole, 0.0, 4000, seed=17)
    assert batch.acceptance_rate == 1.0
    assert np.all(np.abs(batch.values) >= 6.0)


def test_mixture_path_statistics_one_sided():
    # Hole pushed far left: nearly all mass sits in the right tail, so
    # the estimate must straddle the closed-form centroid.
    hole = ExcludedInterval(-8.0, 5.5)
    batch = sample_exterior(STD, hole, 0.0, 4000, seed=23)
    estimate = monte_carlo_centroid(batch)
    closed = centroid_exterior(STD, hole, 0.0).value
    assert abs(estimate.mean - closed) < 4.0 * estimate.std_error
    assert not _in_hole(batch.values, hole)


def test_mixture_path_both_tails_balance():
    hole = ExcludedInterval(-2.5, 3.0)
    exterior = std_cdf(-2.5) + std_tail(3.0)
    assert exterior < MIXTURE_MASS_THRESHOLD
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

# Hole of exterior mass 0.0601 under N(0, 1): rejection at its slowest.
SLOW_REJECTION_HOLE = ExcludedInterval(-1.88, 1.88)
# Exterior mass 0.0076, 82% of it on the left: the tail mixture.
MIXTURE_HOLE = ExcludedInterval(-2.5, 3.0)
# Stream ids of the sampler, part of the seed-to-samples contract.
REJECTION_STREAM, SIDE_STREAM, LEFT_TAIL_STREAM, RIGHT_TAIL_STREAM = 0, 1, 6, 7


def _uniforms(word):
    """(0, 1] and [0, 1) doubles of one word, as the sampler maps them."""
    return ((word >> 11) + 1) * 2.0**-53, (word >> 11) * 2.0**-53


def _block(seed, stream, j):
    return philox4x64_block((j, 0, 0, stream), (seed, 0))


def _reference_rejection(params, hole, seed, blocks):
    """Accepted candidates of stream 0 and their 1-based positions."""
    accepted, positions = [], []
    position = 0
    for j in range(blocks):
        words = _block(seed, REJECTION_STREAM, j)
        for pair in (0, 1):
            radius = math.sqrt(-2.0 * math.log(_uniforms(words[2 * pair])[0]))
            angle = 2.0 * math.pi * _uniforms(words[2 * pair + 1])[1]
            for z in (radius * math.cos(angle), radius * math.sin(angle)):
                position += 1
                x = params.mu + params.sigma * z
                if x <= hole.lower or x >= hole.upper:
                    accepted.append(x)
                    positions.append(position)
    return accepted, positions


def _reference_tail(seed, stream, edge, count):
    """First count accepted Marsaglia candidates of a tail stream."""
    out = []
    j = 0
    while len(out) < count:
        words = _block(seed, stream, j)
        for pair in (0, 1):
            y = math.sqrt(edge * edge - 2.0 * math.log(_uniforms(words[2 * pair])[0]))
            if _uniforms(words[2 * pair + 1])[1] * y <= edge:
                out.append(y)
        j += 1
    return out[:count]


@pytest.mark.parametrize(
    "stream", [REJECTION_STREAM, SIDE_STREAM, LEFT_TAIL_STREAM, RIGHT_TAIL_STREAM]
)
def test_stream_blocks_are_contiguous_philox_counters(stream):
    # Block j of stream s is counter (j, 0, 0, s) under key (seed, 0).
    seed = 0xDEADBEEF12345678
    words = stream_blocks(seed, stream, 3, 4)
    for row, j in enumerate(range(3, 7)):
        assert tuple(int(w) for w in words[row]) == _block(seed, stream, j)


def test_rejection_consumes_stream_zero_in_order():
    # Candidates are (cos, sin) of pair (w0, w1), then of pair (w2, w3),
    # block after block; draw i is the i-th accepted one.
    accepted, positions = _reference_rejection(REF_PARAMS, REF_HOLE, 19, 12)
    assert len(accepted) >= 6
    batch = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, len(accepted), seed=19)
    np.testing.assert_allclose(batch.values, accepted, rtol=1e-13, atol=0.0)


def test_acceptance_rate_counts_candidates_through_nth_acceptance():
    accepted, positions = _reference_rejection(REF_PARAMS, REF_HOLE, 19, 12)
    for n in range(1, len(accepted) + 1):
        batch = sample_exterior(REF_PARAMS, REF_HOLE, 0.0, n, seed=19)
        assert batch.acceptance_rate == n / positions[n - 1]


def test_mixture_consumes_side_and_tail_streams_in_order():
    seed = 8
    n = 40
    a, b = MIXTURE_HOLE.lower, MIXTURE_HOLE.upper
    left_share = std_cdf(a) / (std_cdf(a) + std_tail(b))
    side = [
        _uniforms(w)[1] < left_share
        for j in range((n + 3) // 4)
        for w in _block(seed, SIDE_STREAM, j)
    ][:n]
    lefts = iter(_reference_tail(seed, LEFT_TAIL_STREAM, -a, sum(side)))
    rights = iter(_reference_tail(seed, RIGHT_TAIL_STREAM, b, n - sum(side)))
    expected = [-next(lefts) if go_left else next(rights) for go_left in side]
    assert 0 < sum(side) < n
    batch = sample_exterior(STD, MIXTURE_HOLE, 0.0, n, seed=seed)
    np.testing.assert_allclose(batch.values, expected, rtol=1e-13, atol=0.0)
    assert batch.acceptance_rate == 1.0


def test_rejection_prefix_stable_across_chunks(monkeypatch):
    # About 1000 acceptances per 4096-block chunk at mass 0.06, so the
    # long batch takes seven chunks and the short ones end inside them.
    hole = SLOW_REJECTION_HOLE
    assert 0.05 < std_cdf(hole.lower) + std_tail(hole.upper) < 0.07
    full = sample_exterior(STD, hole, 0.0, 5000, seed=4)
    assert not _in_hole(full.values, hole)
    for n in (1, 999, 2500):
        part = sample_exterior(STD, hole, 0.0, n, seed=4)
        assert np.array_equal(part.values, full.values[:n])
    # Tiny chunks change every chunk boundary but no value.
    monkeypatch.setattr(sampler, "CHUNK_BLOCKS", 3)
    small = sample_exterior(STD, hole, 0.0, 300, seed=4)
    assert np.array_equal(small.values, full.values[:300])
    assert small.acceptance_rate == sample_exterior(
        STD, hole, 0.0, 300, seed=4
    ).acceptance_rate


def test_mixture_prefix_stable_across_chunks(monkeypatch):
    # 20 000 draws take two chunks of side words and three of left-tail
    # candidates.
    full = sample_exterior(STD, MIXTURE_HOLE, 0.0, 20_000, seed=6)
    assert not _in_hole(full.values, MIXTURE_HOLE)
    for n in (1, 4097, 17_000):
        part = sample_exterior(STD, MIXTURE_HOLE, 0.0, n, seed=6)
        assert np.array_equal(part.values, full.values[:n])
    monkeypatch.setattr(sampler, "CHUNK_BLOCKS", 5)
    monkeypatch.setattr(philox, "CHUNK_BLOCKS", 5)
    small = sample_exterior(STD, MIXTURE_HOLE, 0.0, 2000, seed=6)
    assert np.array_equal(small.values, full.values[:2000])


@pytest.mark.parametrize(
    "hole, side",
    [(ExcludedInterval(-40.0, 3.0), "right"), (ExcludedInterval(-3.0, 40.0), "left")],
)
def test_one_sided_mixture(hole, side):
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


def test_deep_mixture_stays_outside_and_agrees():
    hole = ExcludedInterval(-20.0, 20.0)
    batch = sample_exterior(STD, hole, 0.0, 20_000, seed=12)
    assert np.all(np.abs(batch.values) >= 20.0)
    assert 0.45 < float(np.mean(batch.values < 0.0)) < 0.55
    estimate = monte_carlo_centroid(batch)
    closed = centroid_exterior(STD, hole, 0.0).value
    assert abs(estimate.mean - closed) < 4.0 * estimate.std_error


def test_rejection_guard_refuses_hopeless_mass(monkeypatch):
    # Forced onto rejection, a 1.5e-23 exterior would never fill; the
    # candidate cap ends it with ParameterError instead.
    monkeypatch.setattr(sampler, "MIXTURE_MASS_THRESHOLD", 0.0)
    with pytest.raises(ParameterError, match="too small for this strategy"):
        sample_exterior(STD, ExcludedInterval(-10.0, 10.0), 0.0, 4, seed=1)
