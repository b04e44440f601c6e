"""Polytope and ellipsoid primitives.

A polytope is stored in inequality form {x : Ax <= b}. Symmetrizing at an
interior point x intersects the body with its point reflection through x,
which yields an origin-symmetric body {y : |Ay| <= 1} in coordinates
centered at x, stored with one slack-scaled row per constraint pair; only
``SymmetricPolytope.as_polytope`` spells out the two half-spaces of a row.
Ellipsoids are stored by an invertible linear factor and its inverse: the
point set {mat @ u + center for |u| <= 1}.

Boundedness of a polytope is never verified up front. Operations that would
be meaningless on an unbounded body (chords, inscribed ellipsoids, the
analytic center) raise when they run into an unbounded direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .errors import GeometryError, NumericalError, UnboundedPolytopeError

# Relative slack used by membership tests.
MEMBERSHIP_RTOL = 1e-12

# Sign-normalised unit rows that differ by at most this much in every
# component count as parallel; normalising the same row at two scales
# differs by at most 2 ulp.
_PARALLEL_TOL = 8.0 * float(np.finfo(float).eps)


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Polytope:
    """Convex polytope {x : Ax <= b} with no all-zero rows.

    Fewer than n + 1 rows cannot bound a body, but row count is not checked
    here: boundedness is diagnosed lazily by the operations that need it.
    """

    A: np.ndarray
    b: np.ndarray
    _min_slack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = _as_float_array(self.A, "A")
        b = _as_float_array(self.b, "b")
        if A.ndim != 2:
            raise GeometryError("A must be a 2-d array")
        if b.ndim != 1 or b.shape[0] != A.shape[0]:
            raise GeometryError(
                f"b has length {b.shape}, expected ({A.shape[0]},) to match A"
            )
        _, n = A.shape
        if n < 1:
            raise GeometryError("polytope must live in dimension >= 1")
        row_norms = np.linalg.norm(A, axis=1)
        if np.any(row_norms == 0.0):
            raise GeometryError(
                f"row {int(np.argmin(row_norms))} of A is identically zero"
            )
        object.__setattr__(self, "A", np.ascontiguousarray(A))
        object.__setattr__(self, "b", np.ascontiguousarray(b))
        object.__setattr__(self, "_min_slack", -MEMBERSHIP_RTOL * (1.0 + np.abs(b)))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def slacks(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise GeometryError(
                f"point has shape {x.shape}, polytope lives in R^{self.n}"
            )
        return self.b - self.A @ x

    @cached_property
    def row_facts(self) -> tuple:
        """:func:`row_facts` of A, computed once."""
        return row_facts(self.A)


def row_facts(a: np.ndarray) -> tuple:
    """(:func:`parallel_classes` of the rows of a, whether its unit rows span
    R^n): facts that no positive row scaling changes, so a body symmetrized
    anywhere has those of the polytope it came from."""
    units = a / np.linalg.norm(a, axis=1)[:, None]
    return parallel_classes(a), moments_span(units.T @ units, a.shape[0])


def moments_span(mat: np.ndarray, m: int) -> bool:
    """Whether the m points with moment matrix ``mat`` (any positive multiple
    of sum_i p_i p_i^T) span R^n, up to the rounding of an m-term sum. The
    test runs on ``mat`` rescaled to unit diagonal, so a body that is merely
    thin along a coordinate axis passes."""
    diag = np.sqrt(np.diagonal(mat))
    return bool(m >= diag.size and diag.min() > 0.0 and np.linalg.eigvalsh(
        mat / np.outer(diag, diag))[0] > m * np.finfo(float).eps)


def parallel_classes(a: np.ndarray) -> tuple | None:
    """(order, first, label) for the classes of parallel rows of a, of either
    sign, whose sign-normalised unit rows differ by at most ``_PARALLEL_TOL``
    in every component: ``first`` marks the first row of each class in
    ``order``, and ``label`` numbers the classes along it. None when no two
    rows are parallel."""
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    # Parallel rows have equal |cosine| with a fixed generic direction, so
    # sorted by it they are neighbours; the cosine's sign also orients them.
    key = (a @ np.cos(np.arange(1.0, a.shape[1] + 1.0))) / norms
    order = np.argsort(np.abs(key))
    units = a[order] * (np.sign(key[order]) / norms[order])[:, None]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (np.abs(units[1:] - units[:-1]) > _PARALLEL_TOL).any(axis=1)
    return None if first.all() else (order, first, np.cumsum(first))


def longest_per_class(a: np.ndarray, classes: tuple | None) -> np.ndarray:
    """The longest row of a in each of its :func:`parallel_classes`, the
    first on a tie, in the order of a; a itself when there are none."""
    if classes is None:
        return a
    order, first, label = classes
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    keep = order[np.lexsort((order, -norms[order], label))[first]]
    keep.sort()
    return a[keep]


@dataclass(frozen=True)
class SymmetricPolytope:
    """Origin-symmetric body {y : |Ay| <= 1}.

    Each row a_i stands for the constraint pair -1 <= a_i . y <= 1, so
    membership of y and -y always coincide. A row listed with its negation
    describes the same body, only redundantly. ``anchor`` records the center
    of symmetry in the original coordinates of the body this was derived
    from.

    A body built directly has its rows and anchor checked: finite, of
    matching dimensions, no row zero. :func:`symmetrize` derives its rows
    from a validated :class:`Polytope` and builds the body through
    ``_derived``, which checks nothing; so does the cutting-plane route
    from the ``distinct`` rows of a body.
    """

    A: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        A = _as_float_array(self.A, "A")
        anchor = _as_float_array(self.anchor, "anchor")
        if A.ndim != 2 or anchor.ndim != 1 or A.shape[1] != anchor.shape[0]:
            raise GeometryError("row matrix and anchor dimensions disagree")
        if not (norms := np.linalg.norm(A, axis=1)).all():
            raise GeometryError(f"row {int(np.argmin(norms))} of A is identically zero")
        object.__setattr__(self, "A", np.ascontiguousarray(A))
        object.__setattr__(self, "anchor", np.ascontiguousarray(anchor))

    @classmethod
    def _derived(cls, A: np.ndarray, anchor: np.ndarray) -> "SymmetricPolytope":
        """Body with finite contiguous rows A and anchor of matching
        dimensions, which the caller guarantees, so nothing is checked."""
        body = object.__new__(cls)
        object.__setattr__(body, "A", A)
        object.__setattr__(body, "anchor", anchor)
        return body

    @cached_property
    def distinct(self) -> np.ndarray:
        """The longest row per class of parallel rows, of either sign, in the
        order of ``A`` (``A`` itself when no two rows are parallel): the rows
        every solver route runs on. Raises UnboundedPolytopeError unless the
        rows span R^n (:func:`row_facts`): the body is unbounded."""
        classes, spans = row_facts(self.A)
        if not spans:
            raise UnboundedPolytopeError("row set does not span; the body is unbounded")
        return longest_per_class(self.A, classes)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    def as_polytope(self) -> Polytope:
        """The body in inequality form, both half-spaces of every row."""
        return Polytope(np.vstack([self.A, -self.A]), np.ones(2 * self.rows))


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Ellipsoid {mat @ u + center : |u| <= 1} with invertible factor ``mat``.

    Any square root F of the shape F F^T will do: F and F Q, for an
    orthogonal Q, describe the same ellipsoid. ``inv`` = F^-1 and ``logdet``
    = log |det F|, the log volume up to the unit-ball constant, are computed
    once at construction.
    """

    mat: np.ndarray
    center: np.ndarray
    inv: np.ndarray = field(init=False, repr=False)
    logdet: float = field(init=False)

    def __post_init__(self):
        mat = _as_float_array(self.mat, "mat")
        center = _as_float_array(self.center, "center")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise GeometryError("ellipsoid factor must be square")
        if center.shape != (mat.shape[0],):
            raise GeometryError("ellipsoid center dimension mismatch")
        sign, logdet = np.linalg.slogdet(mat)
        if sign == 0.0:
            raise GeometryError("ellipsoid factor is singular")
        self._set(mat, np.linalg.inv(mat), logdet, center)

    def _set(self, mat, inv, logdet, center) -> None:
        object.__setattr__(self, "mat", np.ascontiguousarray(mat))
        object.__setattr__(self, "center", np.ascontiguousarray(center))
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "logdet", float(logdet))

    @classmethod
    def factored(cls, mat: np.ndarray, inv: np.ndarray, logdet: float,
                 center: np.ndarray) -> "Ellipsoid":
        """Ellipsoid with factor ``mat`` whose inverse and log |det| a solver
        already holds, so neither is recomputed nor checked."""
        ell = object.__new__(cls)
        ell._set(mat, inv, logdet, center)
        return ell

    @property
    def n(self) -> int:
        return self.mat.shape[0]


def contains(poly: Polytope, x: np.ndarray) -> bool:
    """Membership test Ax <= b with the polytope's per-row relative slack."""
    s = poly.slacks(np.asarray(x, dtype=float))
    return bool((s >= poly._min_slack).all())


def symmetrize(poly: Polytope, x: np.ndarray,
               slacks: np.ndarray | None = None) -> SymmetricPolytope:
    """Intersect the body with its reflection through the interior point x.

    The result is expressed in coordinates centered at x: each original row
    a_i, divided by its slack s_i = b_i - a_i.x, becomes the constraint pair
    |a_i . y| <= s_i; ``distinct`` comes from ``poly.row_facts`` if they
    span. Given ``slacks`` must be ``poly.slacks(x)``. The rows of a
    validated polytope are not validated again. Two checks remain, each
    raising GeometryError naming the row: x must be strictly interior, and
    no row may overflow when divided by a tiny slack.
    """
    x = np.asarray(x, dtype=float)
    s = poly.slacks(x) if slacks is None else slacks
    if not (s > 0.0).all():
        row = int(np.argmin(s))
        raise GeometryError(
            f"point is not strictly interior: row {row} has slack {s[row]:.6e}"
        )
    rows = poly.A / s[:, None]
    if not np.isfinite(rows).all():
        row = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise GeometryError(
            f"row {row} divided by its slack {s[row]:.6e} is not finite"
        )
    body = SymmetricPolytope._derived(rows, x.copy())
    classes, spans = poly.row_facts
    if spans:
        body.__dict__["distinct"] = longest_per_class(rows, classes)
    return body


def local_norm(ell: Ellipsoid, y: np.ndarray) -> float:
    """Norm of y - center in the metric of the ellipsoid, |mat^-1 (y - c)|.
    Values <= 1 mean y lies inside."""
    y = np.asarray(y, dtype=float)
    if y.shape != (ell.n,):
        raise GeometryError(f"point has shape {y.shape}, expected ({ell.n},)")
    d = ell.inv @ (y - ell.center)
    return math.sqrt(d.dot(d))  # np.linalg.norm's sum, without its overhead


def chord(poly: Polytope, x: np.ndarray, direction: np.ndarray):
    """Endpoints (p, q) of the chord of the polytope through x along
    ``direction``, with p on the negative ray and q on the positive ray.

    Raises UnboundedPolytopeError when no constraint bounds one of the two
    rays, and GeometryError when x is not strictly interior.
    """
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (poly.n,):
        raise GeometryError("direction dimension mismatch")
    dnorm = np.linalg.norm(direction)
    if dnorm == 0.0:
        raise GeometryError("chord direction must be nonzero")
    s = poly.slacks(x)
    if not (s > 0.0).all():
        row = int(np.argmin(s))
        raise GeometryError(
            f"chord base point is not strictly interior "
            f"(row {row}, slack {s[row]:.6e})"
        )
    speed = poly.A @ direction
    fwd = speed > 0.0
    bwd = speed < 0.0
    if not fwd.any() or not bwd.any():
        raise UnboundedPolytopeError("polytope is unbounded along direction")
    t_plus = float(np.min(s[fwd] / speed[fwd]))
    t_minus = float(np.max(s[bwd] / speed[bwd]))
    return x + t_minus * direction, x + t_plus * direction


def cross_ratio(poly: Polytope, x: np.ndarray, y: np.ndarray) -> float:
    """Cross-ratio sigma(x, y) = |x-y| |p-q| / (|p-x| |y-q|) where p, x, y, q
    lie in this order on the chord of the polytope through x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = y - x
    if float(np.linalg.norm(diff)) == 0.0:
        raise GeometryError("cross-ratio is undefined for coincident points")
    if not (poly.slacks(y) > 0.0).all():
        raise GeometryError("cross-ratio endpoint y is not strictly interior")
    p, q = chord(poly, x, diff)
    num = np.linalg.norm(x - y) * np.linalg.norm(p - q)
    den = np.linalg.norm(p - x) * np.linalg.norm(y - q)
    return float(num / den)


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


def ball_point(n: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform point in the unit ball in R^n: bitwise
    ``ball_points(n, 1, rng)[0]`` from the same generator, without the
    bookkeeping of a batch, for the walks' one draw per step."""
    z = rng.standard_normal(n)
    norm = np.sqrt(np.add.reduce(z * z))
    while not norm:  # probability zero, as in sphere_points
        z = rng.standard_normal(n)
        norm = np.sqrt(np.add.reduce(z * z))
    return z / norm * (rng.random(1) ** (1.0 / n))


def _log_unit_ball_volume(n: int) -> float:
    """Natural log of the volume of the unit ball in R^n."""
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def _log_barrier(A: np.ndarray, b: np.ndarray):
    """(newton, inside) of the log barrier -sum_i log(b_i - a_i.x) for
    ``_damped_newton``: the Newton step with its decrement, and the test
    that x lies in the open polytope."""

    def newton(x: np.ndarray):
        w = A / (b - A @ x)[:, None]
        grad = w.sum(axis=0)
        try:
            step = -np.linalg.solve(w.T @ w, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("log-barrier Hessian is singular; polytope "
                                 "rows do not span (body is unbounded)") from exc
        return step, -float(grad @ step)

    def inside(x: np.ndarray) -> bool:
        return bool((b - A @ x > 0.0).all())

    return newton, inside


def _damped_newton(x: np.ndarray, newton, inside, tol: float, max_steps: int):
    """Damped Newton descent from the interior point x, without a line
    search: ``newton(x)`` gives the step and its decrement lambda^2, and x
    moves by 1 / (1 + lambda) times the step, which on a self-concordant
    barrier stays inside the domain (Nesterov & Nemirovskii 1994). A step
    failing the domain test ``inside`` or rounding to no move ends the
    descent, as does a decrement of at most 1/16 that does not fall below
    the last: Newton squares it there, so a stall is rounding. Returns
    (x, converged), converged once the decrement is below ``tol`` and >= 0."""
    previous = math.inf
    for _ in range(max_steps):
        step, decrement = newton(x)
        if decrement < tol:
            return x, decrement >= 0.0
        if decrement <= 1.0 / 16.0 and not decrement < previous:
            return x, False
        previous = decrement
        trial = x + 1.0 / (1.0 + math.sqrt(decrement)) * step
        if not inside(trial) or np.array_equal(trial, x):
            return x, False
        x = trial
    return x, False


def analytic_center(poly: Polytope) -> np.ndarray:
    """Analytic center of the polytope: the minimizer of the log barrier
    -sum_i log(b_i - a_i.x), found by at most 200 damped Newton steps
    1 / (1 + lambda), stopping once half the Newton decrement is below 1e-12.

    A phase-1 LP supplies the strictly interior starting point when the
    origin is not interior. Raises NumericalError when Newton fails to
    converge (for example on an unbounded body, where no center exists).
    """
    x = np.zeros(poly.n)
    if np.any(poly.slacks(x) <= 0.0):
        x = _interior_point_lp(poly)
    newton, inside = _log_barrier(poly.A, poly.b)
    x, converged = _damped_newton(x, newton, inside, 2e-12, 200)
    if not converged:
        raise NumericalError(
            "analytic center failed to converge; polytope may be unbounded"
        )
    return x


def _interior_point_lp(poly: Polytope) -> np.ndarray:
    """Strictly interior point via a max-slack LP, used to seed Newton."""
    m, n = poly.m, poly.n
    # Variables (x, t): maximize t subject to Ax + t * |a_i| <= b.
    norms = np.linalg.norm(poly.A, axis=1)
    a_ub = np.hstack([poly.A, norms[:, None]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    bounds = [(-1e8, 1e8)] * n + [(None, 1e8)]
    res = linprog(c, A_ub=a_ub, b_ub=poly.b, bounds=bounds, method="highs")
    if not res.success or res.x[-1] <= 0.0:
        raise NumericalError(
            "no strictly interior point found (polytope may be empty)"
        )
    return np.asarray(res.x[:n], dtype=float)
