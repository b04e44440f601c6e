"""Random walks on a convex polytope.

The main walk is a lazy Metropolis chain whose proposal at x is uniform on
the inscribed John ellipsoid of the symmetrization at x, shrunk to local
radius r = c * n^(-5/2). ``solution_at`` returns that solve's whole
``JohnSolution``, which ``WalkState.solution`` keeps at x. A step does:

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
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from .errors import GeometryError
from .geometry import (
    Ellipsoid,
    Polytope,
    _log_unit_ball_volume,
    ball_point,
    chord,
    contains,
    local_norm,
    refuse_outside,
    symmetrize,
)
from .mve import ROUTES, JohnSolution, solve_mve


def radius(n: int, c: float) -> float:
    """Local ellipsoid radius c * n^(-5/2)."""
    if n < 1 or not 0.0 < c < math.inf:
        raise GeometryError(f"need n >= 1 and finite c > 0, not n={n}, c={c}")
    return c * float(n) ** -2.5


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters, checked when built. ``gap`` of None resolves to
    2 n^-10 at run time."""

    c: float = 0.5
    lazy: bool = True
    solver: str = "oracle"
    gap: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise GeometryError(f"need a finite c > 0, not c={self.c}")
        if self.gap is not None and not 0.0 < self.gap < math.inf:
            raise GeometryError(f"gap must be positive and finite, not {self.gap}")
        if self.solver not in ROUTES:
            raise GeometryError(f"unknown solver method {self.solver!r}")
        if self.seed < 0:
            raise GeometryError(f"seed must be nonnegative, not {self.seed}")


@dataclass
class Tallies:
    lazy_hold: int = 0
    reject_outside: int = 0
    reject_reversibility: int = 0
    reject_filter: int = 0
    accept: int = 0

    @property
    def total(self) -> int:
        return sum(astuple(self))


@dataclass
class WalkState:
    """Current point, the walk's solve record there, the chain's generator
    and the tallies of step outcomes; ``john_step`` updates it in place."""

    x: np.ndarray
    solution: JohnSolution
    rng: np.random.Generator
    tallies: Tallies = field(default_factory=Tallies)


def _effective_gap(gap: Optional[float], n: int) -> float:
    """The requested gap, or the default 2 n^-10 when it is None."""
    return gap if gap is not None else 2.0 * float(n) ** -10


def solution_at(poly: Polytope, point: np.ndarray, config: WalkConfig,
                slacks: Optional[np.ndarray] = None) -> JohnSolution:
    """The walk's solve at ``point``: the inscribed ellipsoid of the body
    symmetrized there (from the point's ``slacks`` when given), centered at
    the point, with its iterations and gaps."""
    return solve_mve(symmetrize(poly, point, slacks), method=config.solver,
                     gap=_effective_gap(config.gap, poly.n))


def init_state(
    poly: Polytope,
    x0: np.ndarray,
    config: WalkConfig,
) -> WalkState:
    """Build the starting state (one solver call). The chain draws from the
    stream keyed by (seed, 0)."""
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng([config.seed, 0])
    return WalkState(x=x0, solution=solution_at(poly, x0, config), rng=rng)


def propose(ell: Ellipsoid, r: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the ellipsoid shrunk by factor r about its center."""
    if not 0.0 < r < math.inf:
        raise GeometryError(f"proposal radius must be positive and finite, not {r}")
    u = ball_point(ell.n, rng)
    return ell.center + r * (ell.mat @ u)


def john_step(poly: Polytope, state: WalkState, config: WalkConfig) -> WalkState:
    """Advance the chain by one step in place, counting the outcome in the
    tallies. Returns the state."""
    r = radius(poly.n, config.c)
    rng, tallies = state.rng, state.tallies
    if config.lazy and rng.random() < 0.5:
        tallies.lazy_hold += 1
        return state
    z = propose(state.solution.ellipsoid, r, rng)
    s = poly.slacks(z)
    if not (s > 0.0).all():
        tallies.reject_outside += 1
        return state
    sol_z = solution_at(poly, z, config, s)
    log_ratio = state.solution.ellipsoid.logdet - sol_z.ellipsoid.logdet
    if local_norm(sol_z.ellipsoid, state.x) > r:
        tallies.reject_reversibility += 1
    elif log_ratio < 0.0 and rng.random() >= math.exp(log_ratio):
        tallies.reject_filter += 1
    else:
        state.x, state.solution = z, sol_z
        tallies.accept += 1
    return state


def _start(poly: Polytope, x0: np.ndarray, steps: int) -> np.ndarray:
    """x0 as a float array, once steps is nonnegative and x0 strictly
    interior."""
    if steps < 0:
        raise GeometryError("steps must be nonnegative")
    x = np.asarray(x0, dtype=float)
    refuse_outside(poly.slacks(x), f"start point {x.tolist()}")
    return x


def _trajectory(x: np.ndarray, steps: int, step) -> np.ndarray:
    """The points x_0 = x, x_1, ..., x_steps of a walk as rows, x_(k+1) =
    step(x_k)."""
    samples = np.empty((steps + 1, x.size))
    samples[0] = x
    for k in range(steps):
        samples[k + 1] = step(samples[k])
    return samples


def run_chain(
    poly: Polytope,
    x0: np.ndarray,
    steps: int,
    config: WalkConfig,
):
    """Run ``steps`` John-walk steps from x0.

    Returns (samples, tallies) where samples has shape (steps + 1, n) and
    starts with x0; holds repeat the previous point. Tallies sum to steps.
    """
    state = init_state(poly, _start(poly, x0, steps), config)
    samples = _trajectory(state.x, steps, lambda _: john_step(poly, state, config).x)
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
    ell_x = solution_at(poly, x, config).ellipsoid
    ell_y = solution_at(poly, y, config).ellipsoid
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
    stays in the polytope. A rejected proposal from a point outside the
    polytope raises, so such a chain does not hold its start forever."""
    if not 0.0 < delta < math.inf:
        raise GeometryError(f"ball walk radius must be positive and finite, not {delta}")
    x = np.asarray(x, dtype=float)
    z = x + delta * ball_point(poly.n, rng)
    if contains(poly, z):
        return z
    if not contains(poly, x):
        raise GeometryError("ball walk point lies outside the polytope")
    return x


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
    rng = np.random.default_rng([seed, 0])
    return _trajectory(_start(poly, x0, steps), steps,
                       lambda x: ball_walk_step(poly, x, delta, rng))


def run_hit_and_run(
    poly: Polytope,
    x0: np.ndarray,
    steps: int,
    seed: int = 0,
) -> np.ndarray:
    rng = np.random.default_rng([seed, 0])
    return _trajectory(_start(poly, x0, steps), steps, lambda x: hit_and_run_step(poly, x, rng))
