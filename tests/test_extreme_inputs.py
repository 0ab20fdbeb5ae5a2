"""Extreme finite inputs: a finite answer or an error that says why.

Edges, shifts and locations run up to the largest double and sigma from
1e-300 to 1e300, so standardized distances, the location mu + shift, the
centroid and the draws can all leave the float range.  Every input must
give finite values, or a TruncCentroidError that names the user-facing
quantity that overflowed, never an internal argument such as the
"x must be finite" of the special functions.
"""

import math
import random

import pytest

from trunc_centroid import centroid_exterior, centroid_quadrature, shift_comparison
from trunc_centroid.errors import TruncCentroidError
from trunc_centroid.model import ExcludedInterval, GaussianParams
from trunc_centroid.sampler import monte_carlo_centroid, sample_exterior

BIG = 1.7976931348623157e308
NAMED = ("h_hat", "l_hat", "u_hat", "mu + shift", "centroid", "exterior mass")


def _extreme(rng: random.Random) -> float:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([BIG, -BIG, 0.0, 1.7e308, -1.7e308, 1e308, -1e308])
    if kind == 1:
        return math.copysign(10.0 ** rng.uniform(-320, 308.25), rng.random() - 0.5)
    if kind == 2:
        return rng.uniform(-50.0, 50.0)
    if kind == 3:
        return rng.uniform(-1.0, 1.0) * BIG
    return math.copysign(10.0 ** rng.uniform(290, 308.25), rng.random() - 0.5)


def _problems(seed: int, count: int):
    """(params, hole, shift): a third with the hole near mu + shift."""
    rng = random.Random(seed)
    while count:
        mu, shift = _extreme(rng), _extreme(rng)
        sigma = 10.0 ** rng.uniform(-300, 300)
        lower, upper = sorted((_extreme(rng), _extreme(rng)))
        if rng.random() < 0.3:
            lower = mu + shift + rng.uniform(-40.0, 40.0) * sigma
            upper = lower + rng.uniform(0.0, 80.0) * sigma
        if math.isfinite(lower) and math.isfinite(upper) and upper > lower:
            count -= 1
            yield GaussianParams(mu, sigma), ExcludedInterval(lower, upper), shift


def _closed_form(params, hole, shift):
    return [centroid_exterior(params, hole, shift).value]


def _oracle(params, hole, shift):
    return [centroid_quadrature(params, hole, shift).value]


def _comparison(params, hole, shift):
    moved = shift_comparison(params, hole, shift)
    return [moved.base.value, moved.shifted.value, moved.delta]


def _sampled(params, hole, shift):
    batch = sample_exterior(params, hole, shift, 4, 7)
    estimate = monte_carlo_centroid(batch)
    return [*batch.values.tolist(), estimate.mean, estimate.std_error]


@pytest.mark.parametrize("solve", [_closed_form, _oracle, _comparison, _sampled])
def test_finite_value_or_named_error(solve):
    outcomes = {"finite": 0, "refused": 0}
    for params, hole, shift in _problems(20261018, 1000):
        try:
            values = solve(params, hole, shift)
        except TruncCentroidError as exc:
            message = str(exc)
            assert "x must be finite" not in message, (params, hole, shift)
            assert any(name in message for name in NAMED), message
            outcomes["refused"] += 1
            continue
        assert all(map(math.isfinite, values)), (params, hole, shift, values)
        outcomes["finite"] += 1
    # Both outcomes occur, so neither branch passes vacuously.
    assert min(outcomes.values()) >= 100, outcomes


def test_overflowing_edge_distance_has_exact_tail():
    # u - h overflows; its tail is exactly 0, so the mass is Phi(l - h) = 1.
    params = GaussianParams(0.0, 1.0)
    hole = ExcludedInterval(-1.0, 1.7e308)
    result = centroid_exterior(params, hole, -1.7e308)
    assert (result.value, result.support_mass) == (-1.7e308, 1.0)
    assert shift_comparison(params, hole, -1.7e308).delta == -1.7e308 - (
        centroid_exterior(params, hole, 0.0).value
    )
    batch = sample_exterior(params, ExcludedInterval(1.7e308, 1.75e308), -1.7e308, 10, 1)
    assert (batch.values == -1.7e308).all()
    estimate = monte_carlo_centroid(batch)
    assert (estimate.mean, estimate.std_error) == (-1.7e308, 0.0)


def test_overflowing_centroid_and_draws_are_named():
    # The exact answers lie beyond the largest double.
    params, hole = GaussianParams(1e308, 1e300), ExcludedInterval(-1e307, 1e307)
    with pytest.raises(TruncCentroidError, match="centroid overflows"):
        centroid_exterior(params, hole, 1e308)
    with pytest.raises(TruncCentroidError, match="mu \\+ shift must be finite"):
        sample_exterior(params, hole, 1e308, 10, 1)
    with pytest.raises(TruncCentroidError, match="draws overflow"):
        sample_exterior(GaussianParams(BIG, 1e300), hole, 0.0, 10, 1)
    # The centroid jumps from the upper edge to the lower one.
    wide = ExcludedInterval(-1.7e308, 1.7e308)
    with pytest.raises(TruncCentroidError, match="moves by more than"):
        shift_comparison(GaussianParams(1e300, 1.0), wide, -2e300)


def test_small_centroid_of_a_huge_mu_keeps_its_digits():
    # (lower - mu)/sigma rounds to an ulp of mu/sigma, about 2e291, so mu +
    # sigma * centroid would cancel back to that ulp.  Taken from the nearer
    # edge, the answer is the exact centroid (800-digit mpmath) to the bit.
    params = GaussianParams(5.569648038916882e307, 3.196226724189726)
    hole = ExcludedInterval(16.168560000397946, 1.4370780088164235e308)
    result = centroid_exterior(params, hole, 7.099804699747895e-13)
    assert result.value == 16.168560000397946
