"""Empirical checks of the walk's step geometry and chain quality.

``check_step_lemmas`` probes the three local facts the walk's step-size
choice leans on, in the frame where the inscribed ellipsoid at the base
point is the unit ball: for |y| <= c n^(-5/2) the inscribed ellipsoid at y
keeps det within O(n^-2) of 1 and its smallest semi-axis within O(n^-1) of
1, and the chord cross-ratio dominates the local norm divided by sqrt(n).

The remaining helpers are a Monte Carlo estimate of the total-variation
overlap of two uniform-ellipsoid laws and standard chain statistics
(chi-square uniformity against cell masses, autocorrelation-based effective
sample size).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import chdtrc

from .errors import GeometryError, InputDataError, NumericalError
from .geometry import (
    Ellipsoid,
    Polytope,
    analytic_center,
    ball_point,
    ball_points,
    contains,
    cross_ratio,
)
from .walk import WalkConfig, _ellipsoid_at, radius

_MC_CELL_SAMPLES = 20_000


@dataclass(frozen=True)
class LemmaReport:
    """Worst deviations seen over the trials, pre-scaled by the envelope
    powers of n (so values compare directly against O(1) bounds)."""

    n: int
    trials: int
    max_det_dev: float
    min_eig_dev: float
    crossratio_violations: int


class TvEstimate(NamedTuple):
    value: float
    se: float


def check_step_lemmas(
    poly: Polytope,
    n_trials: int,
    c: float,
    rng: np.random.Generator,
    x: Optional[np.ndarray] = None,
) -> LemmaReport:
    """Sample displacements |y| <= c n^(-5/2) in the normalized frame at a
    base point (the analytic center unless ``x`` is given) and record the
    worst det / smallest semi-axis deviations of the inscribed ellipsoid at y,
    scaled by n^2 and n respectively, plus any cross-ratio violations. Every
    ellipsoid is the walk's under ``WalkConfig(c=c)``, at gap 2 n^-10.

    Parameters
    ----------
    poly : Polytope
        Body to probe; it must admit inscribed-ellipsoid computation.
    n_trials : int
        Number of random displacements.
    c : float
        Radius constant of the walk.
    rng : numpy.random.Generator
        Source of randomness.
    x : ndarray, optional
        Base point; defaults to the analytic center.

    Returns
    -------
    LemmaReport
    """
    if n_trials < 1:
        raise GeometryError("need at least one trial")
    config = WalkConfig(c=c)
    n = poly.n
    base = np.asarray(x, dtype=float) if x is not None else analytic_center(poly)
    e_mat = _ellipsoid_at(poly, base, config).mat
    # Normalized frame: original point = base + E_x @ w.
    normalized = Polytope(poly.A @ e_mat, poly.b - poly.A @ base)
    r = radius(n, c)
    origin = np.zeros(n)

    max_det_dev = 0.0
    min_eig_dev = 0.0
    violations = 0
    for _ in range(n_trials):
        y = r * ball_point(n, rng)
        ell_y = _ellipsoid_at(normalized, y, config)
        det_y = math.exp(ell_y.logdet)
        eig_min = float(np.linalg.svd(ell_y.mat, compute_uv=False)[-1])  # semi-axis
        max_det_dev = max(max_det_dev, abs(det_y - 1.0) * n * n)
        min_eig_dev = max(min_eig_dev, (1.0 - eig_min) * n)
        sigma = cross_ratio(normalized, origin, y)
        if sigma < float(np.linalg.norm(y)) / math.sqrt(n) - 1e-9:
            violations += 1
    return LemmaReport(
        n=n,
        trials=n_trials,
        max_det_dev=max_det_dev,
        min_eig_dev=min_eig_dev,
        crossratio_violations=violations,
    )


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
    mass. The p-value is the chi-square tail of Pearson's statistic, as
    ``scipy.stats.chisquare`` computes it, taken from ``scipy.special`` so
    that importing this module does not load scipy.stats.
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
    stat = ((observed - expected) ** 2 / expected).sum()
    return float(chdtrc(observed.size - 1, stat))


def ess(series: np.ndarray) -> float:
    """Effective sample size of a scalar series via the initial positive
    sequence truncation of the autocorrelation function.

    Autocorrelations are summed in adjacent pairs and truncated at the
    first nonpositive pair sum; ESS = N / tau with
    tau = -1 + 2 * sum of the kept pair sums, clipped to [1, N]. A constant
    series returns 1.0.
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 10:
        raise InputDataError(f"series too short for ESS: {n} < 10")
    x = x - x.mean()
    var0 = float(x @ x) / n
    if var0 <= 0.0 or not np.isfinite(var0):
        return 1.0
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real / n
    rho = acov / acov[0]
    tau = -1.0
    for k in range(n // 2):
        pair = rho[2 * k] + (rho[2 * k + 1] if 2 * k + 1 < n else 0.0)
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    tau = max(tau, 1.0)
    return float(min(max(n / tau, 1.0), n))
