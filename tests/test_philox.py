"""Counter-based generator tests.

The known-answer blocks below were captured from numpy.random.Philox
(random_raw), which implements the same published algorithm.  numpy
advances its 256-bit counter before generating, so its first output
block corresponds to counter + 1; the offsets in the fixtures account
for that.  A live cross-check against numpy runs as well, so a numpy
behavior change would show up as a disagreement between the two tests.
"""

import numpy as np
import pytest
from numpy.random import Philox
from philox_reference import philox4x64_block

from trunc_centroid.errors import ParameterError
from trunc_centroid.philox import (
    CounterStream,
    _stream_words,
    _uniform_closed_open,
    _uniform_open,
    philox4x64,
    scratch,
)

MASK = (1 << 64) - 1


def _inc(counter, by):
    counter = list(counter)
    for _ in range(by):
        for i in range(4):
            counter[i] = (counter[i] + 1) & MASK
            if counter[i]:
                break
    return tuple(counter)


# (key0, start counter, first numpy block, second numpy block)
KAT = [
    (
        0x0,
        (0, 0, 0, 0),
        (0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC),
        (0x809BF322883987C3, 0x471128B9E807F7DD, 0xF250BA0DBEC065B7, 0xFC6ED66767A457BC),
    ),
    (
        0x123456789ABCDEF0,
        (1, 2, 3, 4),
        (0x7E4297793916DFF7, 0x0DDCF0308A69D1D1, 0x343F951138A32D1C, 0x16265706A58D7313),
        (0x0C821702C6F88385, 0x6D7B8DF8B16A865E, 0x3C4646E2DD196328, 0x42A0A30C5A659785),
    ),
    (
        0xFFFFFFFFFFFFFFFF,
        (MASK, MASK, MASK, MASK),
        (0xFBBC0FD705763D7D, 0x5941EC5DAC2BD286, 0x7E844D9ABA8C946C, 0xEB11E7C2ACB3D49F),
        (0x3C2521C58DDE5BFB, 0xB7A1AD5DAE1306D7, 0x6942EAE9FD2FEB84, 0xB7552E878D1C26FE),
    ),
    (
        0x2A,
        (10**18, 0, 0, 7),
        (0x4C0531E23070AFDC, 0xBCC96E445CE046C3, 0xBA421CF6C39F0B8E, 0x670D665F8FC81EAF),
        (0xBA111AB99213EF20, 0x22727AAFFED584DD, 0x4AAC95309465A900, 0xE6EBD33AD4B6E97A),
    ),
]


@pytest.mark.parametrize("key0,counter,block1,block2", KAT)
def test_scalar_known_answers(key0, counter, block1, block2):
    assert philox4x64_block(_inc(counter, 1), (key0, 0)) == block1
    assert philox4x64_block(_inc(counter, 2), (key0, 0)) == block2


@pytest.mark.parametrize("key0,counter,block1,block2", KAT)
def test_vectorized_matches_scalar_kat(key0, counter, block1, block2):
    counters = np.array([_inc(counter, 1), _inc(counter, 2)], dtype=np.uint64)
    words = philox4x64(
        counters[:, 0], counters[:, 1], counters[:, 2], counters[:, 3], key0, 0
    )
    got = [tuple(int(words[w][i]) for w in range(4)) for i in range(2)]
    assert got == [block1, block2]


def test_live_cross_check_against_numpy():
    rng = np.random.default_rng(20240817)
    for _ in range(16):
        key0 = int(rng.integers(0, 1 << 63))
        counter = tuple(int(v) for v in rng.integers(0, 1 << 63, size=4))
        raw = Philox(key=key0, counter=list(counter)).random_raw(4)
        assert tuple(int(v) for v in raw) == philox4x64_block(
            _inc(counter, 1), (key0, 0)
        )


def test_vectorized_matches_scalar_on_random_lanes():
    rng = np.random.default_rng(7)
    c = rng.integers(0, 1 << 63, size=(64, 4)).astype(np.uint64)
    words = philox4x64(c[:, 0], c[:, 1], c[:, 2], c[:, 3], 1234, 567)
    for i in range(64):
        expected = philox4x64_block(tuple(int(v) for v in c[i]), (1234, 567))
        assert tuple(int(words[w][i]) for w in range(4)) == expected


@pytest.mark.parametrize("lanes", [1, 2])
def test_vectorized_matches_scalar_on_few_lanes(lanes):
    rng = np.random.default_rng(lanes)
    c = rng.integers(0, 1 << 63, size=(lanes, 4)).astype(np.uint64) << np.uint64(1)
    words = philox4x64(c[:, 0], c[:, 1], c[:, 2], c[:, 3], MASK, 3)
    for i in range(lanes):
        expected = philox4x64_block(tuple(int(v) for v in c[i]), (MASK, 3))
        assert tuple(int(words[w][i]) for w in range(4)) == expected


def test_stream_blocks_of_no_blocks():
    with scratch():
        assert _stream_words(5, 2, 28, 0).shape == (0,)
        assert _stream_words(5, 2, 29, 0).shape == (0,)
    empty = np.zeros(0, dtype=np.uint64)
    assert [w.shape for w in philox4x64(empty, empty, empty, empty, 5, 0)] == [(0,)] * 4


def test_counter_stream_across_a_chunk_matches_scalar_blocks():
    # One take, and takes that start inside a block: the second crosses the
    # chunk boundary at word 4 * CHUNK_BLOCKS = 16 384.
    n = 30_333
    blocks = [philox4x64_block((j, 0, 0, 3), (9, 0)) for j in range((n + 3) // 4)]
    words = np.array(blocks, dtype=np.uint64).reshape(-1)[:n]
    expected = _uniform_closed_open(words, np.empty(n))
    assert np.array_equal(CounterStream(9, stream=3).take(n), expected)
    stream = CounterStream(9, stream=3)
    parts = np.concatenate([stream.take(k) for k in (3, 16_383, 5, 13_942)])
    assert np.array_equal(parts, expected)


def _uniforms(core, words):
    """core over a copy of words, into a new array."""
    return core(np.array(words, dtype=np.uint64), np.empty(len(words)))


def test_uniform_ranges():
    words = [0, MASK]
    oo = _uniforms(_uniform_open, words)
    co = _uniforms(_uniform_closed_open, words)
    assert oo[0] == 2.0**-53
    assert oo[1] == 1.0 - 2.0**-53
    assert co[0] == 0.0
    assert co[1] == 1.0 - 2.0**-53
    assert np.all(oo > 0.0) and np.all(oo < 1.0)
    assert np.all(co >= 0.0) and np.all(co < 1.0)
    # Odd multiples of 2^-53, so 1 - u is exact.
    u = _uniforms(_uniform_open, [1 << 12, 12345 << 20, MASK >> 1])
    assert np.all(np.mod(u * 2.0**53, 2.0) == 1.0)
    assert np.all(1.0 - (1.0 - u) == u)


def test_counter_stream_deterministic_and_chunk_invariant():
    a = CounterStream(99, stream=2)
    b = CounterStream(99, stream=2)
    whole = a.take(16)
    with pytest.raises(ParameterError):
        b.take(-1)
    with pytest.raises(ParameterError, match="^n must be an integer, got 2.5$"):
        b.take(2.5)
    parts = np.concatenate([b.take(7), b.take(9)])
    assert np.array_equal(whole, parts)
    again = CounterStream(99, stream=2).take(16)
    assert np.array_equal(whole, again)


def test_counter_stream_refuses_a_negative_count():
    stream = CounterStream(1, 2)
    first = stream.take(3)
    with pytest.raises(ParameterError, match="^cannot take -1 values$"):
        stream.take(-1)
    # Past Python's 4300-digit int-to-str limit, the count is quoted short.
    with pytest.raises(ParameterError, match="^cannot take -<int of 16610 bits> values$"):
        stream.take(-(10**5000))
    # 2**53 words or more is refused before any buffer is made.
    for n, quoted in ((2**53, "9007199254740992"), (2**62, "4611686018427387904"),
                      (10**5000, "<int of 16610 bits>")):
        with pytest.raises(ParameterError, match=f"^cannot take {quoted} values$"):
            stream.take(n)
    # A refused take moves no cursor.
    assert np.array_equal(np.concatenate([first, stream.take(5)]), CounterStream(1, 2).take(8))


@pytest.mark.parametrize(
    "seed, stream, message",
    [
        (1.5, 2, "seed must be an integer, got 1.5"),
        ("7", 2, "seed must be an integer, got '7'"),
        (1, 2.5, "stream must be an integer, got 2.5"),
        (1, None, "stream must be an integer, got None"),
        # Its repr fails past Python's 4300-digit int-to-str limit.
        ({1: 10**5000}, 2, "seed must be an integer, got <dict>"),
    ],
)
def test_counter_stream_refuses_a_seed_or_stream_that_is_not_an_integer(seed, stream, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        CounterStream(seed, stream)


def test_counter_stream_masks_any_integer_to_64_bits():
    # Whatever operator.index takes passes: a bool, a numpy integer.
    words = CounterStream(2**64 - 1, 1).take(8)
    for seed, stream in ((-1, True), (np.uint64(2**64 - 1), np.int8(1)), (2**128 - 1, 2**64 + 1)):
        assert np.array_equal(CounterStream(seed, stream).take(8), words)


def test_counter_stream_separation():
    base = CounterStream(99, stream=2).take(8)
    other_stream = CounterStream(99, stream=3).take(8)
    other_seed = CounterStream(100, stream=2).take(8)
    assert not np.array_equal(base, other_stream)
    assert not np.array_equal(base, other_seed)
