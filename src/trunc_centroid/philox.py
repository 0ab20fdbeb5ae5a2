"""Philox 4x64 counter-based generator, 10 rounds.

Each 256-bit counter plus 128-bit key maps to four 64-bit words through a
fixed permutation, so random number i is a pure function of (key, i) and
never depends on how many draws other lanes consumed.  That is what makes
vectorized sampling bit-for-bit reproducible at any batch size,
and it parallelizes by handing out disjoint counter ranges.

This is the standard Random123 algorithm; the test suite checks the block
function word for word against numpy's independent implementation.

Counter-word convention used by callers in this package: word i of
stream s is word i % 4 of counter (i // 4, 0, 0, s) under key (seed, 0);
callers read words by index through _runs alone, and the stream id keeps
unrelated consumers off each other's blocks.  Stream ids:
    0        sampler, one word per draw
    2 - 5    verification sweeps (monotonicity, certificate, bounds,
             derivative)
    11 - 13  acceptance suite

The vectorized rounds keep n counters as two (2, n) arrays, x = (c0, c2),
the words that get multiplied, and y = (c3, c1), so both products of a
round are one pass over x.

Per-thread scratch.  Work arrays allocated and freed on every call cost
a large share of a call's time at a few thousand blocks: the allocator
hands the freed memory back to the kernel, and the next call faults it
in again.  So work arrays come from one stack of raw buffers per thread
(a threading.local) that grow only.  `with scratch():` opens a block,
take(shape, dtype) hands out the next buffer, and the block's end returns
every buffer taken inside it, so a callee's buffers serve its caller's
next requests.  _runs opens a block a run of words, philox4x64 one a
call, _stream_words one for its rounds and sampler._inv_std_cdf one a
call; helpers take in their caller's.  A request past SCRATCH_ITEMS =
4 * CHUNK_BLOCKS elements (one run of words) gets a fresh array, so a
buffer holds at most 128 KiB.  No public function returns a view into
the stack: philox4x64, CounterStream.take and sample_exterior hand back
arrays of their own, so threads and later calls never see each other's
words.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ParameterError, _integer, _quote

PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
PHILOX_M1 = np.uint64(0xCA5A826395121157)
PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)

_MASK64 = (1 << 64) - 1
# 0-d arrays: numpy takes them faster than scalars.
_MASK32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
_SHIFT11 = np.uint64(11)
_INV_2_53 = 1.0 / 9007199254740992.0

# Blocks generated per rounds call by stream consumers; bounds their
# working set whatever the number of values asked for.
CHUNK_BLOCKS = 4096
# The largest array, in elements, that the scratch stack serves.
SCRATCH_ITEMS = 4 * CHUNK_BLOCKS

# The multipliers (M0, M1), their high and their low 32-bit halves, and
# the key bumps r * (W1, W0) of rounds r = 0 .. 9, as (2, 1) columns.
_M = np.array([[PHILOX_M0], [PHILOX_M1]])
_MULTIPLIER_COLUMNS = np.stack([_M, _M >> _SHIFT32, _M & _MASK32])
_BUMPS = np.arange(10, dtype=np.uint64)[:, None, None] * np.array([[PHILOX_W1], [PHILOX_W0]])


class _Scratch(threading.local):
    """One thread's stack of raw buffers and the count of those taken."""

    def __init__(self) -> None:
        self.buffers: list[np.ndarray] = []
        self.depth = 0


_SCRATCH = _Scratch()


class scratch:
    """A block of take requests; its end returns every buffer taken inside it."""

    def __enter__(self) -> None:
        self.depth = _SCRATCH.depth

    def __exit__(self, *exc_info) -> None:
        _SCRATCH.depth = self.depth


def take(shape: tuple, dtype=np.float64) -> np.ndarray:
    """The next buffer of this thread's stack as an array of shape and
    dtype, valid until the enclosing block ends; contents undefined."""
    size = math.prod(shape)
    if size > SCRATCH_ITEMS:
        return np.empty(shape, dtype)
    pool = _SCRATCH
    buffers, depth = pool.buffers, pool.depth
    try:
        array = np.ndarray(shape, dtype, buffers[depth])
    except (IndexError, TypeError):  # a new depth, or a buffer too small
        buffers[depth : depth + 1] = [np.empty(size * np.dtype(dtype).itemsize, np.uint8)]
        array = np.ndarray(shape, dtype, buffers[depth])
    pool.depth = depth + 1
    return array


def _rounds(c0, c1, c2, c3, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """The ten rounds over n lanes in scratch: returns (x, y), (2, n)
    arrays taken in the caller's block, holding the output words (c0, c2)
    and (c3, c1).

    The counter words are scalars or 1-D arrays of one length.  A round
    multiplies x by full-width rows of (M0, M1), from 32-bit halves, in
    one pass; it puts c0 = hi1 ^ c1 ^ key0 and c2 = hi0 ^ c3 ^ key1 into
    x, and the low words (lo0, lo1) are the next y = (c3, c1), so lo and
    y trade buffers.  Six work buffers serve every round, updated in
    place.
    """
    n = math.prod(np.broadcast(c0, c1, c2, c3).shape)
    x, y, lo, x_hi, mid, hi, mult, m_hi, m_lo = (take((2, n), np.uint64) for _ in range(9))
    x[0], x[1], y[0], y[1] = c0, c2, c3, c1
    mult[...], m_hi[...], m_lo[...] = _MULTIPLIER_COLUMNS
    x0, x1 = x
    hi0, hi1 = hi
    # Round keys (key1, key0); the bumps wrap mod 2**64.
    for key in np.array([[k1 & _MASK64], [k0 & _MASK64]], dtype=np.uint64) + _BUMPS:
        # lo holds the low halves of x, then the second middle sum; hi
        # holds the carry out of the low halves' product, then the low
        # half of the first middle sum, mid.
        np.bitwise_and(x, _MASK32, out=lo)
        np.right_shift(x, _SHIFT32, out=x_hi)
        np.multiply(m_lo, lo, out=hi)
        hi >>= _SHIFT32
        np.multiply(m_hi, lo, out=mid)
        mid += hi
        np.multiply(m_lo, x_hi, out=lo)
        np.bitwise_and(mid, _MASK32, out=hi)
        lo += hi
        mid >>= _SHIFT32
        lo >>= _SHIFT32
        np.multiply(m_hi, x_hi, out=hi)
        hi += mid
        hi += lo
        np.multiply(mult, x, out=lo)
        y ^= key  # y is spent after this round
        np.bitwise_xor(hi1, y[1], out=x0)
        np.bitwise_xor(hi0, y[0], out=x1)
        lo, y = y, lo
    return x, y


def philox4x64(
    c0: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    c3: np.ndarray,
    k0: int,
    k1: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized block function over aligned 1-D uint64 counter arrays.

    Scalar counter words broadcast; four scalars give 0-d words.  The
    words are copies of the rounds' scratch (see _rounds).
    """
    shape = np.broadcast(c0, c1, c2, c3).shape
    with scratch():
        x, y = _rounds(c0, c1, c2, c3, k0, k1)
        return tuple(w.reshape(shape).copy() for w in (x[0], y[1], x[1], y[0]))


def _stream_words(seed: int, stream: int, first: int, count: int) -> np.ndarray:
    """Words first .. first + count - 1 of a stream, flat, taken in the
    caller's scratch block; word i is word i % 4 of block i // 4."""
    start, end = first // 4, (first + count + 3) // 4
    words = take((end - start, 4), np.uint64)
    with scratch():
        x, y = _rounds(np.arange(start, end, dtype=np.uint64), 0, 0, stream, seed, 0)
        np.stack((x[0], y[1], x[1], y[0]), axis=1, out=words)
    return words.reshape(-1)[first % 4 : first % 4 + count]


def _runs(seed: int, stream: int, first: int, out: np.ndarray):
    """Walk words first, first + 1, ... of a stream into the 1-D out, run
    by run: yields (the run's slice of out, its words), in a scratch block
    that ends when the next run is asked for or the walk is closed, as it
    is when a loop body over it raises.  A run ends at a block edge, so it
    needs at most CHUNK_BLOCKS blocks."""
    done = 0
    while done < out.size:
        count = min(out.size - done, 4 * CHUNK_BLOCKS - (first + done) % 4)
        with scratch():
            yield out[done : done + count], _stream_words(seed, stream, first + done, count)
        done += count


def _uniform_open(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in (0, 1) into out; the words are spent.

    u = (floor(w / 2^12) + 1/2) / 2^52, the top 53 bits with the last one
    set: an odd multiple of 2^-53, so 1 - u is exact.
    """
    words >>= _SHIFT11
    words |= np.uint64(1)
    return np.multiply(words, _INV_2_53, out=out)


def _uniform_closed_open(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in [0, 1) into out; the words are spent."""
    words >>= _SHIFT11
    return np.multiply(words, _INV_2_53, out=out)


class CounterStream:
    """Sequential uniform [0, 1) doubles carved from one Philox stream.

    take(n), for 0 <= n < 2**53, converts the stream's next n words
    straight into its result and advances a word cursor, so the sequence
    for a given (seed, stream) is fixed however it is taken.
    """

    def __init__(self, seed: int, stream: int) -> None:
        self._key0 = _integer(seed, "seed") & _MASK64
        self._stream = _integer(stream, "stream") & _MASK64
        self._word = 0

    def take(self, n: int) -> np.ndarray:
        n = _integer(n, "n")
        if not 0 <= n < 2**53:
            raise ParameterError(f"cannot take {_quote(n)} values")
        out = np.empty(n, dtype=np.float64)
        for run, words in _runs(self._key0, self._stream, self._word, out):
            _uniform_closed_open(words, run)
        self._word += n
        return out
