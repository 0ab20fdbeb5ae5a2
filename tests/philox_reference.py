"""Philox 4x64-10 in plain Python integers, for the tests.

Slow; it is the cross-check of philox.py's vectorized rounds that does
not depend on numpy's integer semantics.  The constants are the
published Random123 ones, written out here rather than imported.
"""

MASK64 = (1 << 64) - 1
M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def philox4x64_block(
    counter: tuple[int, int, int, int], key: tuple[int, int]
) -> tuple[int, int, int, int]:
    """The four output words of one counter under one key."""
    c0, c1, c2, c3 = (v & MASK64 for v in counter)
    k0, k1 = (v & MASK64 for v in key)
    for _ in range(10):
        prod0, prod1 = M0 * c0, M1 * c2
        hi0, lo0 = prod0 >> 64, prod0 & MASK64
        hi1, lo1 = prod1 >> 64, prod1 & MASK64
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = (k0 + W0) & MASK64, (k1 + W1) & MASK64
    return c0, c1, c2, c3

