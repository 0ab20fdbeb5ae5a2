"""Seeded draws from the Gaussian conditioned outside the hole, by inversion.

Draw i is a pure function of (seed, i): it reads word i of Philox stream
0 under key (seed, 0) (see philox.py), so a longer batch extends a
shorter one, and the run size never shows in the output.

The word becomes an open uniform u = (floor(w / 2^12) + 1/2) / 2^52 in
(0, 1).  With the standardized edges a < b, the tail masses left =
Phi(a) and right = Q(b), and mass = left + right, the draw is

    z = Phi^-1(u * mass)              if u * mass <= left,
    z = -Phi^-1((1 - u) * mass)       otherwise (1 - u is exact),

and x = loc + sigma * z, pinned to the hole edge against rounding.  Every
word gives a draw, so the acceptance rate is 1 at every mass; a side with
exterior share s is resolved to about s * 2^52 equally likely positions.
Phi^-1 is Wichura's AS241 rational approximation (Applied Statistics 37,
1988), the algorithm of the stdlib's statistics.NormalDist.inv_cdf, here
over numpy arrays; it takes the tail branches from min(p, 1 - p), so
deep tails keep full relative precision down to the underflow floor.

Phi^-1 writes each run of draws (philox._runs) into its slice of the
batch.  The run's words, uniforms, tail probabilities and masks, and
Phi^-1's branch arrays, are taken from the calling thread's scratch
(philox.py), so in steady state a call allocates only the draws it
returns and each run's block counters (8 bytes a block).  No result is a
view into the scratch, and threads sample concurrently from stacks of
their own, so a batch has the same bits in any thread.

A draw beyond the float range is a DomainError.  The estimate handed
back by monte_carlo_centroid is the plain sample mean with its standard
error, summed in units of the largest |draw| where plain sums overflow;
the test suite checks it against the closed form at 4 standard errors.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DeepTruncationError, DomainError, ParameterError
from .errors import _float, _integer, _quote, require_finite
from .model import ExcludedInterval, GaussianParams
from .philox import _runs, _uniform_open, scratch, take
from .special import _tail

# The sampler's Philox stream id (see philox.py).
_STREAM = 0
# Exterior mass below which the sampler raises DeepTruncationError: this
# close to float64 underflow (normal floats stop at 2.2e-308) inverted
# tail masses cannot be trusted.  The quadrature oracle declines only
# where its window keeps no more mass than its error bound, and the closed
# form divides each tail by its edge's density.
UNDERFLOW_MASS_FLOOR = 1e-290

# AS241 numerator and denominator coefficients, highest degree first, for
# |p - 1/2| <= 0.425 (in r = 0.180625 - (p - 1/2)^2), then for
# r = sqrt(-log min(p, 1 - p)) <= 5 (in r - 1.6) and beyond (in r - 5).
_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


class SampleBatch(NamedTuple):
    values: np.ndarray
    seed: int
    # Every word gives a draw, so this is 1.0; the CLI reports it.
    acceptance_rate: float

    # values is an array, so a batch equals and hashes as itself only.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class MonteCarloEstimate(NamedTuple):
    mean: float
    std_error: float
    n: int


@np.errstate(over="ignore")  # an overflowing draw is reported below
def sample_exterior(
    params: GaussianParams,
    hole: ExcludedInterval,
    shift: float,
    n: int,
    seed: int,
) -> SampleBatch:
    """n independent draws from N(mu + shift, sigma^2) given the exterior."""
    n, seed = _integer(n, "n"), _integer(seed, "seed")
    if not 1 <= n < 2**53:
        raise ParameterError(f"need 1 <= n < 2^53, got {_quote(n)}")
    loc = require_finite(params.mu + _float(shift), "mu + shift")
    # A standardized edge may overflow; its tail is then exactly 0 or 1.
    left = _tail((loc - hole.lower) / params.sigma)
    right = _tail((hole.upper - loc) / params.sigma)
    # Capped so that rounding never takes u * mass to 1.
    mass = min(left + right, 1.0)
    if mass < UNDERFLOW_MASS_FLOOR:
        raise DeepTruncationError(
            f"exterior mass {mass:.3e} is at underflow scale; its tail "
            f"probabilities cannot be inverted"
        )
    values = np.empty(n, dtype=np.float64)
    for x, words in _runs(seed, _STREAM, 0, values):
        # The words are spent, and their buffer takes the tail
        # probability p = where(go_left, u, 1 - u) * mass.
        u = _uniform_open(words, take(x.shape))
        p = np.subtract(1.0, u, out=words.view(np.float64))
        p *= mass
        u *= mass
        go_left = np.less_equal(u, left, out=take(x.shape, bool))
        np.copyto(p, u, where=go_left)
        # x = loc + where(go_left, sigma, -sigma) * z; -(-sigma * z) is
        # sigma * z exactly.
        _inv_std_cdf(p, x)
        x *= -params.sigma
        np.negative(x, out=x, where=go_left)
        x += loc
        # Rounding in Phi^-1 or in loc + sigma*z may land a hair inside.
        inside = np.greater(x, hole.lower, out=take(x.shape, bool))
        inside &= np.less(x, hole.upper, out=take(x.shape, bool))
        if inside.any():
            x[inside] = np.where(go_left[inside], hole.lower, hole.upper)
        if not np.isfinite(x, out=inside).all():
            raise DomainError(
                f"draws overflow the float range, mu + shift = {loc!r}, "
                f"sigma = {params.sigma!r}"
            )
    return SampleBatch(values=values, seed=seed, acceptance_rate=1.0)


def _horner(coefficients: tuple, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A polynomial in r, into out (never r itself), in the stdlib's order."""
    np.multiply(coefficients[0], r, out=out)
    for c in coefficients[1:-1]:
        out += c
        out *= r
    out += coefficients[-1]
    return out


def _piecewise(mask: np.ndarray, x: np.ndarray, out: np.ndarray, on_true, on_false) -> None:
    """on_true(x[mask]) and on_false(x[~mask]) into out, all 1-D.

    A side that takes every element is handed x and out themselves, and
    an empty side is skipped: only a mixed mask gathers, with np.compress
    into scratch, and scatters from scratch with np.place.  The mask is
    left as it was.
    """
    count = np.count_nonzero(mask)
    if count in (0, mask.size):
        (on_true if count else on_false)(x, out)
        return
    gathered, results = take(x.shape), take(x.shape)
    for branch, size in ((on_true, count), (on_false, mask.size - count)):
        branch(np.compress(mask, x, out=gathered[:size]), results[:size])
        np.place(out, mask, results[:size])
        np.logical_not(mask, out=mask)


def _inv_std_cdf(p: np.ndarray, out: np.ndarray) -> None:
    """Phi^-1 at every element of the 1-D p into out.

    The central branch and the near and far tails each gather and scatter
    their elements only where the branch mask is mixed (see _piecewise);
    low-mass batches are all tail, and most tails are all near.  The work
    arrays are taken from scratch (see philox.py).
    """
    with scratch():
        q = np.subtract(p, 0.5, out=take(p.shape))
        central = np.less_equal(np.abs(q, out=q), 0.425, out=take(p.shape, bool))
        _piecewise(central, p, out, _inv_central, _inv_tail)


def _inv_central(p: np.ndarray, z: np.ndarray) -> None:
    q = np.subtract(p, 0.5, out=take(p.shape))
    r = np.multiply(q, q, out=take(p.shape))
    np.subtract(0.180625, r, out=r)
    _horner(_CENTRAL[0], r, z)
    z *= q
    z /= _horner(_CENTRAL[1], r, q)  # q is spent


def _inv_tail(p: np.ndarray, z: np.ndarray) -> None:
    r = np.subtract(1.0, p, out=take(p.shape))
    np.minimum(p, r, out=r)
    np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
    far = np.greater(r, 5.0, out=take(p.shape, bool))
    _piecewise(far, r, z, partial(_rational, _FAR, 5.0), partial(_rational, _NEAR, 1.6))
    np.copysign(z, np.subtract(p, 0.5, out=r), out=z)  # r is spent


def _rational(coefficients: tuple, origin: float, r: np.ndarray, z: np.ndarray) -> None:
    """The ratio of the two polynomials in r - origin, into z; r is spent."""
    r -= origin
    _horner(coefficients[0], r, z)
    z /= _horner(coefficients[1], r, take(r.shape))


@np.errstate(over="ignore")
def monte_carlo_centroid(batch: SampleBatch) -> MonteCarloEstimate:
    """Sample mean of a batch with its standard error."""
    n = int(batch.values.size)
    if n < 2:
        raise ParameterError(f"standard error needs n >= 2, got n = {n}")
    values, scale = batch.values, 1.0
    mean = float(np.mean(values))
    spread = float(np.std(values, ddof=1))
    if math.isinf(mean) or math.isinf(spread):
        # The sums overflow: take them in units of the largest |draw|.
        scale = float(np.max(np.abs(values)))
        mean = float(np.mean(values / scale))
        spread = float(np.std(values / scale, ddof=1))
    return MonteCarloEstimate(
        mean=scale * mean, std_error=scale * (spread / math.sqrt(n)), n=n
    )
