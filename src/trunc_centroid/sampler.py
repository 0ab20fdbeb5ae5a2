"""Seeded draws from the Gaussian conditioned outside the hole.

Every consumer reads one Philox stream over contiguous counters: block j
of stream s is counter (j, 0, 0, s) under key (seed, 0).  Each stream
yields candidates in block order, and a consumer keeps the accepted ones
in that order: the k-th draw served by a stream is its k-th accepted
candidate.  So draw i is a pure function of (seed, i): a longer batch
extends a shorter one, and the chunk size used to generate blocks never
shows in the output.

  * exterior mass >= 0.05: rejection on stream 0.  A block is two
    Box-Muller pairs (w0, w1) and (w2, w3); each pair gives its cos and
    its sin output, so a block holds four normal candidates.  Acceptance
    is decided on the observable value, making the support invariant
    immediate.
  * exterior mass < 0.05: tail mixture.  Draw i goes to the left tail if
    word i of stream 1 falls below the left share of the exterior mass.
    Each tail then takes accepted candidates from its own stream (6 left,
    7 right) by Marsaglia's exact tail rejection: from a pair (u1, u2),
    y = sqrt(e^2 - 2 log u1) is accepted when u2 * y <= e, where e > 0 is
    the standardized edge.  Mass < 0.05 puts both edges past 1.64, where
    the acceptance e * Q(e) / phi(e) is above 0.79.

Blocks are generated in chunks sized from the expected acceptance and
capped at CHUNK_BLOCKS, so the working set does not grow with n.

The estimate handed back by monte_carlo_centroid is the plain sample
mean with its standard error; the test suite checks it against the
closed form at 4 standard errors.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DeepTruncationError, ParameterError, require_finite
from .model import UNDERFLOW_MASS_FLOOR, ExcludedInterval, GaussianParams
from .philox import (
    CHUNK_BLOCKS,
    CounterStream,
    stream_blocks,
    uniform_closed_open,
    uniform_open_closed,
)
from .special import std_cdf, std_tail

MIXTURE_MASS_THRESHOLD = 0.05
_TWO_PI = 2.0 * math.pi

REJECTION_STREAM = 0
SIDE_STREAM = 1
LEFT_TAIL_STREAM = 6
RIGHT_TAIL_STREAM = 7
# A stream that needs more candidates than this per draw is refused; at
# the rejection path's worst acceptance of 0.05 a single draw reaches the
# cap with probability 0.95**1024, about 1e-23.
_MAX_CANDIDATES_PER_DRAW = 1 << 10

# Maps a (blocks, 4) array of Philox words to flat candidate values and an
# acceptance mask, both in block order.
Candidates = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True, eq=False)
class SampleBatch:
    values: np.ndarray
    seed: int
    acceptance_rate: float


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    n: int


def sample_exterior(
    params: GaussianParams,
    hole: ExcludedInterval,
    shift: float,
    n: int,
    seed: int,
) -> SampleBatch:
    """n independent draws from N(mu + shift, sigma^2) given the exterior."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n!r}")
    seed = int(seed)
    loc = require_finite(params.mu + shift, "mu + shift")
    a = (hole.lower - loc) / params.sigma
    b = (hole.upper - loc) / params.sigma
    left = std_cdf(a)
    right = std_tail(b)
    mass = left + right
    if mass < UNDERFLOW_MASS_FLOOR:
        raise DeepTruncationError(
            f"exterior mass {mass:.3e} is at underflow scale; sampling "
            f"would effectively never terminate"
        )
    if mass >= MIXTURE_MASS_THRESHOLD:
        values, rate = _rejection(loc, params.sigma, hole, n, seed, mass)
    else:
        values = _tail_mixture(loc, params.sigma, hole, n, seed, left / mass, a, b)
        rate = 1.0
    return SampleBatch(values=values, seed=seed, acceptance_rate=rate)


def _first_accepted(
    seed: int, stream: int, n: int, per_block: float, candidates: Candidates
) -> tuple[np.ndarray, int]:
    """The first n accepted candidates of a stream, and how many were tried.

    per_block is the expected number of accepted candidates per block; it
    only sizes the chunks.  "Tried" counts candidates up to and including
    the n-th acceptance.
    """
    out = np.empty(n, dtype=np.float64)
    filled = 0
    tried = 0
    block = 0
    while filled < n:
        count = min(CHUNK_BLOCKS, math.ceil(1.05 * (n - filled) / per_block) + 2)
        values, ok = candidates(stream_blocks(seed, stream, block, count))
        block += count
        hits = np.flatnonzero(ok)[: n - filled]
        out[filled : filled + hits.size] = values[hits]
        filled += hits.size
        tried += int(hits[-1]) + 1 if filled == n else values.size
        if tried > n * _MAX_CANDIDATES_PER_DRAW:
            raise ParameterError(
                f"stream {stream} accepted {filled} of {n} candidates in "
                f"{tried} tries; exterior mass too small for this strategy"
            )
    return out, tried


def _rejection(
    loc: float,
    sigma: float,
    hole: ExcludedInterval,
    n: int,
    seed: int,
    mass: float,
) -> tuple[np.ndarray, float]:
    def candidates(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        radius = np.sqrt(-2.0 * np.log(uniform_open_closed(words[:, 0::2])))
        angle = _TWO_PI * uniform_closed_open(words[:, 1::2])
        z = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=2)
        x = loc + sigma * z.reshape(-1)
        return x, (x <= hole.lower) | (x >= hole.upper)

    values, tried = _first_accepted(seed, REJECTION_STREAM, n, 4.0 * mass, candidates)
    return values, n / tried


def _tail_mixture(
    loc: float,
    sigma: float,
    hole: ExcludedInterval,
    n: int,
    seed: int,
    left_share: float,
    a: float,
    b: float,
) -> np.ndarray:
    go_left = CounterStream(seed, SIDE_STREAM).take(n) < left_share
    n_left = int(np.count_nonzero(go_left))
    z = np.empty(n, dtype=np.float64)
    z[go_left] = -_marsaglia_tail(seed, LEFT_TAIL_STREAM, -a, n_left)
    z[~go_left] = _marsaglia_tail(seed, RIGHT_TAIL_STREAM, b, n - n_left)
    x = loc + sigma * z
    # Rounding in loc + sigma*z may land a hair inside; pin to the edge.
    np.minimum(x, hole.lower, out=x, where=go_left)
    np.maximum(x, hole.upper, out=x, where=~go_left)
    return x


def _marsaglia_tail(seed: int, stream: int, edge: float, n: int) -> np.ndarray:
    """n draws of a standard normal given z >= edge > 0 (Marsaglia 1964)."""

    def candidates(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.sqrt(edge * edge - 2.0 * np.log(uniform_open_closed(words[:, 0::2])))
        return y.reshape(-1), (uniform_closed_open(words[:, 1::2]) * y <= edge).reshape(-1)

    # Two candidates per block; edge^2 / (1 + edge^2) <= edge * Q / phi
    # bounds the acceptance from below (Gordon's inequality).
    per_block = 2.0 * edge * edge / (1.0 + edge * edge)
    values, _ = _first_accepted(seed, stream, n, per_block, candidates)
    return values


def monte_carlo_centroid(batch: SampleBatch) -> MonteCarloEstimate:
    """Sample mean of a batch with its standard error."""
    n = int(batch.values.size)
    if n < 2:
        raise ParameterError(f"standard error needs n >= 2, got n = {n}")
    mean = float(np.mean(batch.values))
    spread = float(np.std(batch.values, ddof=1))
    return MonteCarloEstimate(mean=mean, std_error=spread / math.sqrt(n), n=n)
