"""Philox 4x64 counter-based generator, 10 rounds.

Each 256-bit counter plus 128-bit key maps to four 64-bit words through a
fixed permutation, so random number i is a pure function of (key, i) and
never depends on how many draws other lanes consumed.  That is what makes
vectorized sampling bit-for-bit reproducible at any batch size,
and it parallelizes by handing out disjoint counter ranges.

This is the standard Random123 algorithm; the test suite checks the block
function word for word against numpy's independent implementation.

Counter-word convention used by callers in this package: block j of
stream s is counter (j, 0, 0, s) under key (seed, 0), so every consumer
reads one stream over contiguous counters, and the stream id in word 3
keeps unrelated consumers off each other's blocks.  Stream ids:
    0        sampler, one word per draw
    2 - 5    verification sweeps (monotonicity, certificate, bounds,
             derivative)
    11 - 13  acceptance suite
"""

from __future__ import annotations

import numpy as np

PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
PHILOX_M1 = np.uint64(0xCA5A826395121157)
PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_INV_2_53 = 1.0 / 9007199254740992.0

# Blocks generated per philox4x64 call by stream consumers; bounds their
# working set whatever the number of values asked for.
CHUNK_BLOCKS = 4096

# 32-bit halves of the round multipliers, split once.
_M0_HI, _M0_LO = PHILOX_M0 >> _SHIFT32, PHILOX_M0 & _MASK32
_M1_HI, _M1_LO = PHILOX_M1 >> _SHIFT32, PHILOX_M1 & _MASK32


def _mulhilo(
    mult: np.uint64, m_hi: np.uint64, m_lo: np.uint64, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of a 64-bit constant with each array element.

    m_hi and m_lo are the 32-bit halves of mult.  Temporaries are updated
    in place, which saves an allocation per step.
    """
    lo = mult * x
    x_hi = x >> _SHIFT32
    x_lo = x & _MASK32
    carry = m_lo * x_lo
    carry >>= _SHIFT32
    mid1 = m_hi * x_lo
    mid1 += carry
    mid2 = m_lo * x_hi
    mid2 += mid1 & _MASK32
    mid1 >>= _SHIFT32
    mid2 >>= _SHIFT32
    hi = m_hi * x_hi
    hi += mid1
    hi += mid2
    return hi, lo


def philox4x64(
    c0: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    c3: np.ndarray,
    k0: int,
    k1: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized block function over aligned uint64 counter arrays."""
    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    c2 = np.asarray(c2, dtype=np.uint64)
    c3 = np.asarray(c3, dtype=np.uint64)
    # Round keys precomputed in plain ints; the bump wraps mod 2**64.
    key0 = k0 & _MASK64
    key1 = k1 & _MASK64
    for _ in range(10):
        hi0, lo0 = _mulhilo(PHILOX_M0, _M0_HI, _M0_LO, c0)
        hi1, lo1 = _mulhilo(PHILOX_M1, _M1_HI, _M1_LO, c2)
        c0 = hi1 ^ c1 ^ np.uint64(key0)
        c1 = lo1
        c2 = hi0 ^ c3 ^ np.uint64(key1)
        c3 = lo0
        key0 = (key0 + 0x9E3779B97F4A7C15) & _MASK64
        key1 = (key1 + 0xBB67AE8584CAA73B) & _MASK64
    return c0, c1, c2, c3


def philox4x64_block(
    counter: tuple[int, int, int, int], key: tuple[int, int]
) -> tuple[int, int, int, int]:
    """Scalar reference implementation in plain integers.

    Slow; exists so the vectorized version has an in-repo cross-check
    that is independent of numpy's integer semantics.
    """
    c0, c1, c2, c3 = (v & _MASK64 for v in counter)
    k0, k1 = (v & _MASK64 for v in key)
    m0 = int(PHILOX_M0)
    m1 = int(PHILOX_M1)
    for _ in range(10):
        prod0 = m0 * c0
        prod1 = m1 * c2
        hi0, lo0 = prod0 >> 64, prod0 & _MASK64
        hi1, lo1 = prod1 >> 64, prod1 & _MASK64
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + int(PHILOX_W0)) & _MASK64
        k1 = (k1 + int(PHILOX_W1)) & _MASK64
    return c0, c1, c2, c3


def stream_blocks(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Words of blocks start .. start + count - 1 of a stream, shape (count, 4).

    Row j holds the four output words of counter (start + j, 0, 0, stream)
    under key (seed, 0).
    """
    c0 = np.arange(start, start + count, dtype=np.uint64)
    zeros = np.zeros(count, dtype=np.uint64)
    c3 = np.full(count, stream, dtype=np.uint64)
    return np.stack(philox4x64(c0, zeros, zeros, c3, seed, 0), axis=1)


def uniform_open(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in (0, 1): (floor(w / 2^12) + 1/2) / 2^52.

    That is the top 53 bits with the last one set, an odd multiple of
    2^-53, so 1 - u is exact.
    """
    return ((words >> _SHIFT11) | np.uint64(1)).astype(np.float64) * _INV_2_53


def uniform_closed_open(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in [0, 1)."""
    return (words >> _SHIFT11).astype(np.float64) * _INV_2_53


class CounterStream:
    """Sequential uniform [0, 1) doubles carved from one Philox stream.

    take(n) advances an internal block cursor; the sequence for a given
    (seed, stream) is fixed regardless of how consumption is chunked.
    """

    def __init__(self, seed: int, stream: int) -> None:
        self._key0 = seed & _MASK64
        self._stream = stream & _MASK64
        self._block = 0
        self._buffer = np.empty(0, dtype=np.uint64)

    def take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"cannot take {n} values")
        parts = [self._buffer]
        have = self._buffer.size
        while have < n:
            count = min(CHUNK_BLOCKS, (n - have + 3) // 4)
            words = stream_blocks(self._key0, self._stream, self._block, count)
            parts.append(words.reshape(-1))
            self._block += count
            have += words.size
        buffer = np.concatenate(parts)
        out, self._buffer = buffer[:n], buffer[n:]
        return uniform_closed_open(out)
