"""Polytope and ellipsoid primitives.

A polytope is stored in inequality form {x : Ax <= b}. Symmetrizing at an
interior point x intersects the body with its point reflection through x,
which yields an origin-symmetric body in coordinates centered at x whose
constraint rows are slack-scaled to right-hand side 1. Ellipsoids are stored
by their positive definite linear factor: the point set {mat @ u + center
for |u| <= 1}.

Boundedness of a polytope is never verified up front. Operations that would
be meaningless on an unbounded body (chords, inscribed ellipsoids, the
analytic center) raise when they run into an unbounded direction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import GeometryError, NumericalError, UnboundedPolytopeError

# Relative slack used by membership tests.
MEMBERSHIP_RTOL = 1e-12

# Condition number of an ellipsoid factor beyond which local norms are
# considered unreliable.
COND_LIMIT = 1e14


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


@dataclass(frozen=True)
class SymmetricPolytope:
    """Origin-symmetric body {y : Ay <= 1}.

    Rows come in negated pairs (row i + m equals -row i), so membership of y
    and -y always coincide. ``anchor`` records the center of symmetry in the
    original coordinates of the body this was derived from.
    """

    A: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        A = _as_float_array(self.A, "A")
        anchor = _as_float_array(self.anchor, "anchor")
        if A.ndim != 2 or anchor.ndim != 1 or A.shape[1] != anchor.shape[0]:
            raise GeometryError("row matrix and anchor dimensions disagree")
        rows = A.shape[0]
        if rows % 2 != 0:
            raise GeometryError("symmetric body needs an even number of rows")
        half = rows // 2
        scale = 1.0 + np.abs(A[:half]).max(initial=0.0)
        if np.abs(A[half:] + A[:half]).max(initial=0.0) > 1e-12 * scale:
            raise GeometryError("rows are not negated pairs: A[m:] != -A[:m]")
        object.__setattr__(self, "A", np.ascontiguousarray(A))
        object.__setattr__(self, "anchor", np.ascontiguousarray(anchor))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    def as_polytope(self) -> Polytope:
        return Polytope(self.A, np.ones(self.rows))


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Ellipsoid {mat @ u + center : |u| <= 1} with SPD factor ``mat``.

    ``logdet`` is computed once at construction and equals
    log det(mat); it is the log volume up to the unit-ball constant.
    """

    mat: np.ndarray
    center: np.ndarray
    logdet: float = field(init=False)
    _cond: float = field(init=False, repr=False)

    def __post_init__(self):
        mat = _as_float_array(self.mat, "mat")
        center = _as_float_array(self.center, "center")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise GeometryError("ellipsoid factor must be square")
        if center.shape != (mat.shape[0],):
            raise GeometryError("ellipsoid center dimension mismatch")
        scale = max(1.0, float(np.abs(mat).max()))
        if np.abs(mat - mat.T).max() > 1e-12 * scale:
            raise GeometryError("ellipsoid factor is not symmetric")
        mat = 0.5 * (mat + mat.T)
        eigvals = np.linalg.eigvalsh(mat)
        if eigvals[0] <= 0.0:
            raise GeometryError(
                f"ellipsoid factor is not positive definite "
                f"(min eigenvalue {eigvals[0]:.3e})"
            )
        self._set(mat, center, eigvals)

    def _set(self, mat: np.ndarray, center: np.ndarray, eigvals: np.ndarray) -> None:
        object.__setattr__(self, "mat", np.ascontiguousarray(mat))
        object.__setattr__(self, "center", np.ascontiguousarray(center))
        object.__setattr__(self, "logdet", float(np.sum(np.log(eigvals))))
        object.__setattr__(self, "_cond", float(eigvals.max() / eigvals.min()))

    @classmethod
    def from_eigh(
        cls, radii: np.ndarray, axes: np.ndarray, center: np.ndarray
    ) -> "Ellipsoid":
        """Ellipsoid with factor axes @ diag(radii) @ axes.T, for positive
        radii and orthonormal axes from a symmetric eigendecomposition.
        Log det and condition number are read off the radii, so no second
        eigendecomposition runs."""
        mat = (axes * radii) @ axes.T
        ell = object.__new__(cls)
        ell._set(0.5 * (mat + mat.T), center, radii)
        return ell

    def recentered(self, center: np.ndarray) -> "Ellipsoid":
        """The same ellipsoid moved to ``center``, without validating the
        factor again."""
        ell = copy.copy(self)
        object.__setattr__(ell, "center", np.ascontiguousarray(center, dtype=float))
        return ell

    @property
    def n(self) -> int:
        return self.mat.shape[0]


def contains(poly: Polytope, x: np.ndarray) -> bool:
    """Membership test Ax <= b with per-row relative slack."""
    s = poly.slacks(np.asarray(x, dtype=float))
    tol = MEMBERSHIP_RTOL * (1.0 + np.abs(poly.b))
    return bool(np.all(s >= -tol))


def symmetrize(poly: Polytope, x: np.ndarray) -> SymmetricPolytope:
    """Intersect the body with its reflection through the interior point x.

    The result is expressed in coordinates centered at x: each original row
    a_i is divided by its slack b_i - a_i.x and paired with its negation.
    Raises GeometryError naming the violated row when x is not strictly
    interior.
    """
    x = np.asarray(x, dtype=float)
    s = poly.slacks(x)
    if np.any(s <= 0.0):
        row = int(np.argmin(s))
        raise GeometryError(
            f"point is not strictly interior: row {row} has slack {s[row]:.6e}"
        )
    scaled = poly.A / s[:, None]
    return SymmetricPolytope(np.vstack([scaled, -scaled]), x.copy())


def local_norm(ell: Ellipsoid, y: np.ndarray) -> float:
    """Norm of y - center in the metric of the ellipsoid, i.e.
    sqrt((y - c)^T mat^-2 (y - c)). Values <= 1 mean y lies inside."""
    y = np.asarray(y, dtype=float)
    if y.shape != (ell.n,):
        raise GeometryError(f"point has shape {y.shape}, expected ({ell.n},)")
    if ell._cond > COND_LIMIT:
        raise NumericalError(
            f"ellipsoid factor condition number {ell._cond:.3e} exceeds "
            f"{COND_LIMIT:.0e}; local norm is unreliable"
        )
    w = np.linalg.solve(ell.mat, y - ell.center)
    return float(np.linalg.norm(w))


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
    if np.any(s <= 0.0):
        row = int(np.argmin(s))
        raise GeometryError(
            f"chord base point is not strictly interior "
            f"(row {row}, slack {s[row]:.6e})"
        )
    speed = poly.A @ direction
    fwd = speed > 0.0
    bwd = speed < 0.0
    if not np.any(fwd) or not np.any(bwd):
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
    if np.any(poly.slacks(y) <= 0.0):
        raise GeometryError("cross-ratio endpoint y is not strictly interior")
    p, q = chord(poly, x, diff)
    num = np.linalg.norm(x - y) * np.linalg.norm(p - q)
    den = np.linalg.norm(p - x) * np.linalg.norm(y - q)
    return float(num / den)


def sphere_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform points on the unit sphere in R^n."""
    z = rng.standard_normal((count, n))
    norms = np.linalg.norm(z, axis=1)
    while np.any(norms == 0.0):  # probability zero, but keep it total
        bad = norms == 0.0
        z[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None]


def ball_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform points in the unit ball in R^n."""
    u = sphere_points(n, count, rng)
    radii = rng.random(count) ** (1.0 / n)
    return u * radii[:, None]


def _log_barrier(A: np.ndarray, b: np.ndarray):
    """(newton, value) of the log barrier -sum_i log(b_i - a_i.x) for
    ``_damped_newton``: the Newton step with its decrement, and the barrier
    value, +inf outside the open polytope."""

    def newton(x: np.ndarray):
        w = A / (b - A @ x)[:, None]
        grad = w.sum(axis=0)
        try:
            step = -np.linalg.solve(w.T @ w, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("log-barrier Hessian is singular; polytope "
                                 "rows do not span (body is unbounded)") from exc
        return step, -float(grad @ step)

    def value(x: np.ndarray) -> float:
        s = b - A @ x
        return -float(np.sum(np.log(s))) if np.all(s > 0.0) else np.inf

    return newton, value


def _damped_newton(x: np.ndarray, newton, value, tol: float, max_steps: int):
    """Damped Newton descent from the interior point x: ``newton(x)`` gives
    the step and its decrement, ``value(x)`` the barrier (+inf outside its
    domain). A step halves up to 60 times until the value falls by a quarter
    of the decrement times its length. Returns (x, converged), converged once
    the decrement falls below ``tol`` and is not negative."""
    for _ in range(max_steps):
        step, decrement = newton(x)
        if decrement < tol:
            return x, decrement >= 0.0
        base = value(x)
        t = 1.0
        for _ in range(60):
            trial = x + t * step
            if value(trial) <= base - 0.25 * t * decrement:
                break
            t *= 0.5
        else:
            return x, False
        x = trial
    return x, False


def analytic_center(
    poly: Polytope, tol: float = 1e-12, max_iter: int = 200
) -> np.ndarray:
    """Analytic center of the polytope: the minimizer of the log barrier
    -sum_i log(b_i - a_i.x), found by damped Newton iteration until half
    the Newton decrement falls below ``tol``.

    A phase-1 LP supplies the strictly interior starting point when the
    origin is not interior. Raises NumericalError when Newton fails to
    converge (for example on an unbounded body, where no center exists).
    """
    x = np.zeros(poly.n)
    if np.any(poly.slacks(x) <= 0.0):
        x = _interior_point_lp(poly)
    newton, value = _log_barrier(poly.A, poly.b)
    x, converged = _damped_newton(x, newton, value, 2.0 * tol, max_iter)
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
