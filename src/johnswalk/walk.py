"""Random walks on a convex polytope.

The main walk is a lazy Metropolis chain whose proposal at x is uniform on
the inscribed John ellipsoid of the symmetrization at x, shrunk to local
radius r = c * n^(-5/2):

1. toss a fair coin; on heads hold (no solver work),
2. on tails propose z uniform on the shrunk ellipsoid at x,
3. hold when z is not strictly interior, or when x lies outside the shrunk
   ellipsoid at z (the reversibility guard),
4. otherwise accept z with probability min(1, det E_x / det E_z), the ratio
   of proposal volumes.

Off the diagonal the resulting kernel has density
min(1/vol E_x(r), 1/vol E_z(r)) on mutually contained pairs, which is
symmetric in its arguments; ``transition_density`` exposes it for tests.

Ball-walk and hit-and-run steps are included as baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import GeometryError
from .geometry import (
    Ellipsoid,
    Polytope,
    _log_unit_ball_volume,
    ball_points,
    chord,
    contains,
    local_norm,
    symmetrize,
)
from .mve import solve_mve


def radius(n: int, c: float) -> float:
    """Local ellipsoid radius c * n^(-5/2)."""
    if n < 1 or not 0.0 < c < math.inf:
        raise GeometryError(f"need n >= 1 and finite c > 0, not n={n}, c={c}")
    return c * float(n) ** -2.5


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters. ``gap`` of None resolves to 2 n^-10 at run time."""

    c: float = 0.5
    lazy: bool = True
    solver: str = "oracle"
    gap: Optional[float] = None
    seed: int = 0


@dataclass(frozen=True)
class Tallies:
    lazy_hold: int = 0
    reject_outside: int = 0
    reject_reversibility: int = 0
    reject_filter: int = 0
    accept: int = 0

    @property
    def total(self) -> int:
        return (
            self.lazy_hold
            + self.reject_outside
            + self.reject_reversibility
            + self.reject_filter
            + self.accept
        )

    def _bump(self, name: str) -> "Tallies":
        return replace(self, **{name: getattr(self, name) + 1})


@dataclass
class WalkState:
    """Current point, its shrunk-ellipsoid factor, the chain's generator,
    and the step/rejection accounting."""

    x: np.ndarray
    ellipsoid: Ellipsoid
    rng: np.random.Generator
    step_count: int = 0
    tallies: Tallies = field(default_factory=Tallies)


def _effective_gap(gap: Optional[float], n: int) -> float:
    """The requested gap, or the default 2 n^-10 when it is None."""
    return gap if gap is not None else 2.0 * float(n) ** -10


def _ellipsoid_at(poly: Polytope, point: np.ndarray, config: WalkConfig) -> Ellipsoid:
    body = symmetrize(poly, point)
    sol = solve_mve(body, method=config.solver, gap=_effective_gap(config.gap, poly.n))
    return sol.ellipsoid.recentered(point)


def init_state(
    poly: Polytope,
    x0: np.ndarray,
    config: WalkConfig,
    chain_index: int = 0,
) -> WalkState:
    """Build the starting state (one solver call). Chains draw from streams
    keyed by (seed, chain_index) so parallel chains never share randomness."""
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng([config.seed, chain_index])
    return WalkState(x=x0, ellipsoid=_ellipsoid_at(poly, x0, config), rng=rng)


def propose(ell: Ellipsoid, r: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the ellipsoid shrunk by factor r about its center."""
    if r <= 0.0:
        raise GeometryError("proposal radius must be positive")
    u = ball_points(ell.n, 1, rng)[0]
    return ell.center + r * (ell.mat @ u)


def john_step(poly: Polytope, state: WalkState, config: WalkConfig) -> WalkState:
    """Advance the chain by one step, updating the tallies."""
    r = radius(poly.n, config.c)
    rng = state.rng

    def hold(reason: str) -> WalkState:
        return replace(
            state,
            step_count=state.step_count + 1,
            tallies=state.tallies._bump(reason),
        )

    if config.lazy and rng.random() < 0.5:
        return hold("lazy_hold")
    z = propose(state.ellipsoid, r, rng)
    if np.any(poly.slacks(z) <= 0.0):
        return hold("reject_outside")
    ell_z = _ellipsoid_at(poly, z, config)
    if local_norm(ell_z, state.x) > r:
        return hold("reject_reversibility")
    log_ratio = state.ellipsoid.logdet - ell_z.logdet
    if log_ratio < 0.0 and rng.random() >= math.exp(log_ratio):
        return hold("reject_filter")
    return WalkState(
        x=z,
        ellipsoid=ell_z,
        rng=rng,
        step_count=state.step_count + 1,
        tallies=state.tallies._bump("accept"),
    )


def run_chain(
    poly: Polytope,
    x0: np.ndarray,
    steps: int,
    config: WalkConfig,
    chain_index: int = 0,
):
    """Run ``steps`` John-walk steps from x0.

    Returns (samples, tallies) where samples has shape (steps + 1, n) and
    starts with x0; holds repeat the previous point. Tallies sum to steps.
    """
    if steps < 0:
        raise GeometryError("steps must be nonnegative")
    radius(poly.n, config.c)  # refuse a bad c before the start-point solve
    state = init_state(poly, x0, config, chain_index)
    samples = np.empty((steps + 1, poly.n))
    samples[0] = state.x
    for k in range(steps):
        state = john_step(poly, state, config)
        samples[k + 1] = state.x
    return samples, state.tallies


def transition_density(
    poly: Polytope, x: np.ndarray, y: np.ndarray, config: WalkConfig
) -> float:
    """Density (with respect to Lebesgue measure) of the non-lazy kernel at
    a move x -> y with x != y: min(1/vol E_x(r), 1/vol E_y(r)) when each
    point lies in the other's shrunk ellipsoid, else 0. Symmetric in x, y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(x != y):
        raise GeometryError("transition density is defined off the diagonal")
    r = radius(poly.n, config.c)
    ell_x = _ellipsoid_at(poly, x, config)
    ell_y = _ellipsoid_at(poly, y, config)
    if local_norm(ell_x, y) > r or local_norm(ell_y, x) > r:
        return 0.0
    n = poly.n
    log_vol = n * math.log(r) + _log_unit_ball_volume(n) + max(ell_x.logdet, ell_y.logdet)
    return math.exp(-log_vol)


# ---------------------------------------------------------------------------
# baseline walks


def ball_walk_step(
    poly: Polytope, x: np.ndarray, delta: float, rng: np.random.Generator
) -> np.ndarray:
    """Propose uniformly in the radius-delta ball; move iff the proposal
    stays in the polytope."""
    if not 0.0 < delta < math.inf:
        raise GeometryError(f"ball walk radius must be positive and finite, not {delta}")
    x = np.asarray(x, dtype=float)
    z = x + delta * ball_points(poly.n, 1, rng)[0]
    return z if contains(poly, z) else x


def hit_and_run_step(
    poly: Polytope, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Move to a uniform point of the chord through x along a uniform
    random direction."""
    x = np.asarray(x, dtype=float)
    direction = rng.standard_normal(poly.n)
    norm = float(np.linalg.norm(direction))
    while norm == 0.0:
        direction = rng.standard_normal(poly.n)
        norm = float(np.linalg.norm(direction))
    direction /= norm
    p, q = chord(poly, x, direction)
    t = rng.random()
    return p + t * (q - p)


def run_ball_walk(
    poly: Polytope,
    x0: np.ndarray,
    steps: int,
    delta: float,
    seed: int = 0,
) -> np.ndarray:
    if steps < 0:
        raise GeometryError("steps must be nonnegative")
    rng = np.random.default_rng([seed, 0])
    samples = np.empty((steps + 1, poly.n))
    samples[0] = np.asarray(x0, dtype=float)
    for k in range(steps):
        samples[k + 1] = ball_walk_step(poly, samples[k], delta, rng)
    return samples


def run_hit_and_run(
    poly: Polytope,
    x0: np.ndarray,
    steps: int,
    seed: int = 0,
) -> np.ndarray:
    if steps < 0:
        raise GeometryError("steps must be nonnegative")
    rng = np.random.default_rng([seed, 0])
    samples = np.empty((steps + 1, poly.n))
    samples[0] = np.asarray(x0, dtype=float)
    for k in range(steps):
        samples[k + 1] = hit_and_run_step(poly, samples[k], rng)
    return samples
