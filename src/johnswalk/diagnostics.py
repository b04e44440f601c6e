"""Empirical checks of the walk's step geometry and chain quality.

``check_step_lemmas`` probes the three local facts the walk's step-size
choice leans on, in the frame where the inscribed ellipsoid at the base
point is the unit ball: for |y| <= c n^(-5/2) the inscribed ellipsoid at y
keeps det within O(n^-2) of 1 and its smallest semi-axis within O(n^-1) of
1, and the chord cross-ratio dominates the local norm divided by sqrt(n).
The ``diagnose`` command runs it.

``ess`` is the autocorrelation-based effective sample size of a chain
coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GeometryError, InputDataError
from .geometry import Polytope, analytic_center, ball_point, cross_ratio
from .walk import WalkConfig, _ellipsoid_at, radius


@dataclass(frozen=True)
class LemmaReport:
    """Worst deviations seen over the trials, pre-scaled by the envelope
    powers of n (so values compare directly against O(1) bounds)."""

    n: int
    trials: int
    max_det_dev: float
    min_eig_dev: float
    crossratio_violations: int


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
