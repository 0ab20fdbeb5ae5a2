"""The per-thread scratch stack of philox.py and its contract.

No public result is a view into the stack, threads draw from stacks of
their own, every call closes the blocks it opens, a repeated call reuses
the stack's buffers, and the stack stays within its byte bound.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

np = pytest.importorskip("numpy")

from trunc_centroid import philox, sampler, verification
from trunc_centroid.centroid import centroid_exterior
from trunc_centroid.errors import DomainError
from trunc_centroid.model import ExcludedInterval, GaussianParams
from trunc_centroid.philox import CHUNK_BLOCKS, SCRATCH_ITEMS, CounterStream, philox4x64
from trunc_centroid.sampler import _inv_std_cdf, monte_carlo_centroid, sample_exterior

STD = GaussianParams(0.0, 1.0)
# Exterior mass 0.06: the central branch and the near tail both take
# draws.
HIGH_MASS = ExcludedInterval(-1.88, 1.88)
# Exterior mass 4e-17 with the left side deeper: near and far tails.
LOW_MASS = ExcludedInterval(-8.6, 8.2)
# The draw counts of the benchmark's two classes, and a two-chunk batch.
SIZES = (1_250, 12_500, 20_000)
# The stack's bound per thread after the largest pooled requests.
POOL_BOUND = 1_500_000


def _pool_buffers():
    return philox._SCRATCH.buffers


def _pool_bytes():
    return sum(b.nbytes for b in _pool_buffers())


def _in_fresh_thread(fn):
    """fn() in a new thread, which starts with an empty pool."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result(timeout=120)


def _outputs(seed, n):
    """Every public result that is computed in scratch."""
    blocks = (n + 3) // 4
    # Array counter words, as the benchmark's traced run passes them.
    c0 = np.full(blocks, seed, dtype=np.uint64)
    c1 = np.arange(blocks, dtype=np.uint64)
    zeros = np.zeros(blocks, dtype=np.uint64)
    p = np.concatenate([np.linspace(1e-3, 1 - 1e-3, n // 2), np.logspace(-40, -2, n - n // 2)])
    z = np.empty(n)
    _inv_std_cdf(p, z)
    return [
        sample_exterior(STD, HIGH_MASS, 0.0, n, seed).values,
        sample_exterior(STD, LOW_MASS, 0.0, n, seed).values,
        *philox4x64(c0, c1, zeros, zeros, seed, 0),
        CounterStream(seed, 2).take(n),
        z,
    ]


def test_no_result_aliases_the_pool():
    # Grown first, so that the later calls write over the same buffers.
    _outputs(0, 20_000)
    first = _outputs(1, 1_250)
    kept = [a.copy() for a in first]
    for seed, n in ((2, 12_500), (3, 20_000), (4, 7)):
        _outputs(seed, n)
    for got, expected in zip(first, kept):
        assert np.array_equal(got, expected)
        assert not any(np.shares_memory(got, b) for b in _pool_buffers())


def test_counter_stream_keeps_its_unused_words_apart():
    stream = CounterStream(9, 3)
    head = stream.take(5)  # the next take starts inside block 1
    _outputs(5, 20_000)
    tail = stream.take(3 + 4 * CHUNK_BLOCKS)
    whole = CounterStream(9, 3).take(8 + 4 * CHUNK_BLOCKS)
    assert np.array_equal(np.concatenate([head, tail]), whole)


def _batches(worker):
    holes = (HIGH_MASS, LOW_MASS)
    return [
        sample_exterior(STD, holes[(worker + k) % 2], 0.0, n, 100 * worker + k).values
        for k, n in enumerate(SIZES * 2)
    ]


def _on_four_threads(fn, args):
    """[fn(a) for a in args] on four threads that start together and
    switch often."""
    start = threading.Barrier(4, timeout=60)

    def call(arg):
        start.wait()
        return fn(arg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            return list(pool.map(call, args, timeout=120))
    finally:
        sys.setswitchinterval(interval)


def test_threads_reproduce_the_serial_batches():
    serial = [_batches(worker) for worker in range(4)]
    concurrent = _on_four_threads(_batches, range(4))
    for got, expected in zip(concurrent, serial):
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


# Seed-7 estimates of N(0, 1) outside four holes, pinned to the reprs of
# their mean and standard error: the seed-to-samples mapping is a
# contract.  A chunk is 16 384 draws, so the batches span two chunks and
# the 40 000-draw one three.
SEED_7 = {
    (20_000, -0.5, 0.5): ("-0.019296399394471198", "0.008829484931516595"),
    (20_000, -2.5, 3.0): ("-1.7573794949409842", "0.016521378550208146"),
    (20_000, -20.0, 20.0): ("-0.35085530091345135", "0.14175311874552027"),
    (40_000, -2.5, 3.0): ("-1.7335175794225794", "0.011789084261578693"),
}


def _seed_7_estimate(case):
    n, lower, upper = case
    hole = ExcludedInterval(lower, upper)
    batch = sample_exterior(STD, hole, 0.0, n, 7)
    estimate = monte_carlo_centroid(batch)
    # One Philox word gives one draw at every mass, and the mean lies
    # within 5 standard errors of the closed form.
    assert batch.acceptance_rate == 1.0
    assert abs(estimate.mean - centroid_exterior(STD, hole, 0.0).value) < 5 * estimate.std_error
    return repr(estimate.mean), repr(estimate.std_error)


def test_seed_7_estimates_are_pinned_in_every_thread():
    pinned = list(SEED_7.values())
    assert [_seed_7_estimate(case) for case in SEED_7] == pinned
    assert _on_four_threads(_seed_7_estimate, SEED_7) == pinned


def test_threads_reproduce_the_serial_sweeps():
    # Random sweeps read their streams through CounterStream.take; the
    # plane sweeps walk their grids (161 x 161 and up) in several tiles.
    v = verification
    specs = [
        (v.SweepSpec((-5.0, 5.0, 0.5), (-4.0, 6.0, 0.5), (-3.0, 3.0, 0.5),
                     mode="random", n_random=3_000, seed=seed),
         v.SweepSpec((-8.0, 8.0 + seed, 0.1), (-8.0 - seed, 8.0, 0.1), (0.0, 1.0, 1.0)))
        for seed in range(4)
    ]

    def sweep(pair):
        cloud, grid = pair
        return [v.verify_monotonicity(cloud), v.verify_derivative(cloud),
                v.verify_certificate_positive(grid), v.verify_bounds(grid)]

    serial = [sweep(pair) for pair in specs]
    assert _on_four_threads(sweep, specs) == serial


def test_every_block_closes():
    # Past SCRATCH_ITEMS elements _inv_std_cdf's own work arrays are fresh
    # and its branches' are pooled; under errstate(divide="raise") a p of
    # 0 makes the tail branch raise while it holds pooled buffers.
    half = SCRATCH_ITEMS // 2
    past = np.concatenate([np.full(half, 0.5), np.full(half + 1, 0.01)])
    calls = [
        lambda: _outputs(1, 1_250),
        lambda: _outputs(2, 20_000),
        lambda: _inv_std_cdf(past, np.empty(past.size)),
        lambda: CounterStream(3, 2).take(5 + 4 * CHUNK_BLOCKS),
        lambda: sample_exterior(STD, HIGH_MASS, 0.0, 20_000, 4),
    ]
    wide = GaussianParams(0.0, 1e308)
    raising = [
        (DomainError, lambda: sample_exterior(wide, HIGH_MASS, 0.0, 100, 5)),
        # Raised in the first of three runs: closing the walk ends its block.
        (DomainError, lambda: sample_exterior(wide, HIGH_MASS, 0.0, 40_000, 5)),
        (FloatingPointError,
         lambda: _inv_std_cdf(np.concatenate([past, [0.0]]), np.empty(past.size + 1))),
    ]

    def depths():
        got = []
        for call in calls:
            call()
            got.append(philox._SCRATCH.depth)
        for error, call in raising:
            with np.errstate(divide="raise"), pytest.raises(error):
                call()
            got.append(philox._SCRATCH.depth)
        return got

    assert _in_fresh_thread(depths) == [0] * (len(calls) + len(raising))


def test_a_repeated_call_reuses_the_pool():
    def twice():
        sample_exterior(STD, LOW_MASS, 0.0, 12_500, 7)
        before = [b.ctypes.data for b in _pool_buffers()]
        sample_exterior(STD, LOW_MASS, 0.0, 12_500, 8)
        return before, [b.ctypes.data for b in _pool_buffers()]

    before, after = _in_fresh_thread(twice)
    assert before and before == after


def test_the_pool_stays_within_its_bound():
    def largest():
        # The largest pooled request of each kind, then requests past the
        # cap, which get arrays of their own.
        for lanes in (2 * CHUNK_BLOCKS, 3 * CHUNK_BLOCKS):
            c = np.arange(lanes, dtype=np.uint64)
            philox4x64(c, c, c, c, 1, 2)
        for n in (4 * CHUNK_BLOCKS, 5 * CHUNK_BLOCKS):
            _outputs(6, n)
        sample_exterior(STD, HIGH_MASS, 0.0, 100_000, 6)
        return _pool_bytes()

    assert 0 < _in_fresh_thread(largest) <= POOL_BOUND


def test_stream_and_sampler_requests_stay_under_the_cap(monkeypatch):
    # Takes that start inside a block and cross chunks, and batches of one,
    # two and three chunks, are all served by the stack.
    sizes, take = [], philox.take

    def recorded(shape, dtype=np.float64):
        sizes.append(int(np.prod(shape)))
        return take(shape, dtype)

    monkeypatch.setattr(philox, "take", recorded)
    monkeypatch.setattr(sampler, "take", recorded)
    stream = CounterStream(9, 3)
    for n in (3, 16_383, 5, 13_942):
        stream.take(n)
    for n in (1_250, 16_385, 40_000):
        sample_exterior(STD, HIGH_MASS, 0.0, n, 1)
        sample_exterior(STD, LOW_MASS, 0.0, n, 1)
    assert 0 < max(sizes) <= SCRATCH_ITEMS
