"""The reference example as CSV rows: masked densities plus both centroids.

Base density N(1, 4) with hole (-1, 4), shifted by 2.  Everything here is
scalar closed-form work, so the `figure` command runs without numpy.
"""

from __future__ import annotations

from .centroid import centroid_exterior
from .model import ExcludedInterval, GaussianParams
from .special import std_pdf

REFERENCE_PARAMS = GaussianParams(mu=1.0, sigma=2.0)
REFERENCE_HOLE = ExcludedInterval(lower=-1.0, upper=4.0)
REFERENCE_SHIFT = 2.0


def reference_example_rows() -> list[tuple[float, float, float]]:
    """Masked densities of the base and shifted reference configurations.

    x walks [-8, 12] in steps of 0.01; the mask keeps density only on
    the closed exterior (x <= -1 or x >= 4).
    """
    mu = REFERENCE_PARAMS.mu
    sigma = REFERENCE_PARAMS.sigma
    shifted_mu = mu + REFERENCE_SHIFT
    lower = REFERENCE_HOLE.lower
    upper = REFERENCE_HOLE.upper
    rows = []
    for k in range(2001):
        x = (k - 800) / 100.0
        on_support = x <= lower or x >= upper
        base = std_pdf((x - mu) / sigma) / sigma if on_support else 0.0
        shifted = std_pdf((x - shifted_mu) / sigma) / sigma if on_support else 0.0
        rows.append((x, base, shifted))
    return rows


def reference_figure() -> tuple[list[tuple], float, float]:
    """Reference-example rows, ending in the centroid row, and the two centroids."""
    base = centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, 0.0).value
    shifted = centroid_exterior(REFERENCE_PARAMS, REFERENCE_HOLE, REFERENCE_SHIFT).value
    return [*reference_example_rows(), ("centroid", base, shifted)], base, shifted
