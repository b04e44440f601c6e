"""Statistics that only the test suite runs.

``uniformity_chi_square`` tests a sample against the uniform law on a
polytope, over a grid of cells whose masses are exact or Monte Carlo.
``estimate_tv_overlap`` estimates the total-variation distance between the
uniform laws on two ellipsoids. ``sphere_points`` and ``ball_points`` draw
uniform batches on the unit sphere and in the unit ball; the walks draw one
point per step through ``johnswalk.geometry.ball_point``, which must match
``ball_points(n, 1, rng)[0]`` bit for bit.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

import numpy as np
from scipy.stats import chisquare

from johnswalk.errors import GeometryError, InputDataError, NumericalError
from johnswalk.geometry import Ellipsoid, Polytope, contains

_MC_CELL_SAMPLES = 20_000


class TvEstimate(NamedTuple):
    value: float
    se: float


def sphere_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform points on the unit sphere in R^n."""
    z = rng.standard_normal((count, n))
    norms = np.linalg.norm(z, axis=1)
    while not norms.all():  # probability zero, but keep it total
        bad = norms == 0.0
        z[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None]


def ball_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform points in the unit ball in R^n."""
    u = sphere_points(n, count, rng)
    radii = rng.random(count) ** (1.0 / n)
    return u * radii[:, None]


def estimate_tv_overlap(
    dist1: Ellipsoid,
    dist2: Ellipsoid,
    mc_samples: int,
    rng: np.random.Generator,
) -> TvEstimate:
    """Monte Carlo estimate of the total-variation distance between the
    uniform laws on two ellipsoids, with its standard error.

    Uses TV = 1 - E_1[min(1, p2/p1)]: draw from dist1, where the density
    ratio is vol1/vol2 on dist2's support and 0 outside.
    """
    if mc_samples < 1:
        raise GeometryError("need at least one Monte Carlo sample")
    if dist1.n != dist2.n:
        raise GeometryError("ellipsoid dimensions differ")
    z = dist1.center + ball_points(dist1.n, mc_samples, rng) @ dist1.mat.T
    w = np.linalg.solve(dist2.mat, (z - dist2.center).T)
    inside = np.linalg.norm(w, axis=0) <= 1.0
    p_hat = float(np.mean(inside))
    factor = min(1.0, math.exp(dist1.logdet - dist2.logdet))
    value = 1.0 - factor * p_hat
    se = factor * math.sqrt(p_hat * (1.0 - p_hat) / mc_samples)
    return TvEstimate(value=value, se=se)


def uniformity_chi_square(
    poly: Polytope,
    samples: np.ndarray,
    grid_per_axis: int,
    bounding_box,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Chi-square p-value of the samples against the uniform law on the
    polytope, over an axis-aligned grid of the bounding box.

    Cell masses come from the volume of cell-and-polytope intersections:
    exact for cells whose corners all lie in the body (convexity), Monte
    Carlo over ``_MC_CELL_SAMPLES`` points otherwise. Requires every sample
    inside the box and at least 5 expected counts in every cell of positive
    mass. The p-value is ``scipy.stats.chisquare``'s, the chi-square tail of
    Pearson's statistic.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != poly.n:
        raise GeometryError("samples must be (k, n) with n matching the body")
    lo = np.asarray(bounding_box[0], dtype=float)
    hi = np.asarray(bounding_box[1], dtype=float)
    if lo.shape != (poly.n,) or hi.shape != (poly.n,) or np.any(hi <= lo):
        raise GeometryError("bounding box must satisfy lo < hi per axis")
    if grid_per_axis < 1:
        raise GeometryError("grid_per_axis must be at least 1")
    outside = ~np.all((samples >= lo) & (samples <= hi), axis=1)
    if np.any(outside):
        row = int(np.argmax(outside))
        raise GeometryError(
            f"sample row {row} = {samples[row]} lies outside the bounding box"
        )
    rng = rng if rng is not None else np.random.default_rng(0)

    n = poly.n
    edges = [np.linspace(lo[j], hi[j], grid_per_axis + 1) for j in range(n)]
    widths = (hi - lo) / grid_per_axis
    cell_volume = float(np.prod(widths))

    cells = list(itertools.product(range(grid_per_axis), repeat=n))
    masses = np.empty(len(cells))
    for idx, cell in enumerate(cells):
        lo_c = np.array([edges[j][cell[j]] for j in range(n)])
        hi_c = lo_c + widths
        corners = itertools.product(*zip(lo_c, hi_c))
        if all(contains(poly, np.array(corner)) for corner in corners):
            masses[idx] = cell_volume
        else:
            pts = lo_c + rng.random((_MC_CELL_SAMPLES, n)) * widths
            frac = np.mean(
                np.all(pts @ poly.A.T <= poly.b[None, :], axis=1)
            )
            masses[idx] = cell_volume * float(frac)
    total = masses.sum()
    if total <= 0.0:
        raise NumericalError("bounding box does not meet the polytope")
    masses /= total

    bins = np.stack(
        [np.digitize(samples[:, j], edges[j][1:-1]) for j in range(n)], axis=1
    )
    flat = np.ravel_multi_index(bins.T, (grid_per_axis,) * n)
    observed_all = np.bincount(flat, minlength=len(cells)).astype(float)

    positive = masses > 0.0
    if np.any(observed_all[~positive] > 0):
        raise NumericalError("samples fell in cells of zero estimated mass")
    observed = observed_all[positive]
    expected = masses[positive] / masses[positive].sum() * samples.shape[0]
    if expected.min() < 5.0:
        raise InputDataError(
            f"too few samples per cell: min expected count "
            f"{expected.min():.2f} < 5"
        )
    total_obs, total_exp = observed.sum(), expected.sum()
    if abs(total_obs - total_exp) > 1e-8 * min(total_obs, total_exp):
        raise NumericalError("observed and expected totals disagree")
    return float(chisquare(observed, expected).pvalue)

