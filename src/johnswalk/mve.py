"""Maximum-volume inscribed ellipsoid of an origin-symmetric polytope.

Two independent routes are provided and deliberately kept separate so each
can cross-check the other:

* ``method="oracle"``: the inscribed ellipsoid of {y : |a_i . y| <= 1} is the
  polar of the minimum-volume enclosing ellipsoid of the point set {+-a_i}.
  That centered MVEE problem is solved in two phases on the simplex of
  weights. A Khachiyan-style multiplicative weight ascent with Wolfe-Atwood
  away steps starts from a core set, weight 1/n on n of the m points
  (Kumar & Yildirim, JOTA 2005), and runs until the largest leverage is
  within 1% of its optimal value n. The core set is picked greedily in the
  frame that whitens the points (:func:`_core_start`), so it depends only
  on the points and is invariant under linear maps of them; E stays a
  deterministic, affine-invariant function of the body. Between exact
  recomputes of the moment matrix the ascent updates the matrix inverse and
  the leverages by Sherman-Morrison rank-one formulas in O(mn) per
  iteration (Todd & Yildirim, Discrete Appl. Math. 2007). Newton
  steps on the support of the weights then replace the ascent's linear
  tail. When they do not certify, the ascent resumes from their best
  weights, so the result never depends on the Newton phase converging.
  Either phase certifies only on an exact recompute (see
  :func:`_khachiyan_ascent`). That certificate converts into a rigorous
  bound on the log-volume gap.

* ``method="vaidya"``: the log-det program over the matrix variable X = E^2,
      minimize -log det X
      s.t.    <X, a_i a_i^T> <= 1 for every row, X >= I/n,
  is handed to the volumetric cutting-plane engine after a Dikin
  preconditioning step that makes the unit ball a known inscribed ellipsoid.
  Symmetric matrices travel through the engine as vectors of the upper
  triangle with off-diagonal entries scaled by sqrt(2), so the Frobenius
  inner product of matrices equals the dot product of their vectors.

A symmetric body holds one row per constraint pair (see
:class:`~johnswalk.geometry.SymmetricPolytope`); only
:func:`dikin_precondition`, whose barrier sums over half-spaces, spells out
both halves. Both routes solve on one row per direction
(:func:`_distinct_rows`): of exactly parallel rows only the longest binds,
so boxes and other bodies with parallel facets shrink to fewer rows. Both
return an ellipsoid checked against every row of the body, shrunk if
rounding left it outside one, together with an upper bound ``logdet_gap`` on
how far its log volume can sit below the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import qr
from scipy.optimize import nnls

from . import vaidya as _vaidya
from .errors import GeometryError, NumericalError, SolverError, UnboundedPolytopeError
from .geometry import Ellipsoid, SymmetricPolytope

_ASCENT_MAX_ITER = 500_000
# Ascent iterations between exact recomputes of the moment matrix.
_EXACT_EVERY = 50
# The ascent hands over to Newton steps on the support once an exact
# recompute shows max_i g_i / n - 1 at most this; the polish takes at most
# _NEWTON_MAX_STEPS steps.
_NEWTON_FROM = 1e-2
_NEWTON_MAX_STEPS = 8
_CONTACT_SLACK = 1e-7
_EPS = float(np.finfo(float).eps)

# Sign-normalised unit rows that differ by at most this much in every
# component count as parallel; normalising the same row at two scales
# differs by at most 2 ulp.
_PARALLEL_TOL = 8.0 * _EPS


# ---------------------------------------------------------------------------
# symmetric-matrix vectorization


@lru_cache(maxsize=None)
def _triu_indices(n: int):
    iu, ju = np.triu_indices(n)
    weights = np.where(iu == ju, 1.0, np.sqrt(2.0))
    return iu, ju, weights


def sym_dim(n: int) -> int:
    """Dimension n(n+1)/2 of the space of symmetric n x n matrices."""
    return n * (n + 1) // 2


def sym_to_vec(x: np.ndarray) -> np.ndarray:
    """Upper triangle of a symmetric matrix as a vector, off-diagonals
    scaled by sqrt(2) so that <X, Y>_F = sym_to_vec(X) . sym_to_vec(Y)."""
    n = x.shape[0]
    iu, ju, w = _triu_indices(n)
    return x[iu, ju] * w


def vec_to_sym(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`sym_to_vec`."""
    iu, ju, w = _triu_indices(n)
    x = np.zeros((n, n))
    x[iu, ju] = v / w
    x = x + x.T
    x[np.diag_indices(n)] *= 0.5
    return x


@lru_cache(maxsize=None)
def _generic_direction(n: int) -> np.ndarray:
    return np.cos(np.arange(1.0, n + 1.0))


def _distinct_rows(body: SymmetricPolytope) -> np.ndarray:
    """One row per direction of the symmetric body {y : |a_i . y| <= 1}.

    Cuts each class of exactly parallel rows, of either sign, down to its
    longest row, the first of them on a tie; that row's constraint implies
    the others'. Symmetrizing a body with parallel facets, a box for one,
    yields such classes, and so does a body that lists a row with both
    signs. Both solver routes run on these rows, in the body's order; they
    give the same optimum as all rows.
    """
    a = body.A
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    # Parallel rows have equal |cosine| with a fixed generic direction, so
    # sorted by it they are neighbours; the cosine's sign also orients them.
    key = (a @ _generic_direction(body.n)) / norms
    order = np.argsort(np.abs(key))
    units = a[order] * (np.sign(key[order]) / norms[order])[:, None]
    first = np.ones(order.size, dtype=bool)  # first of its class in `order`
    first[1:] = (np.abs(units[1:] - units[:-1]) > _PARALLEL_TOL).any(axis=1)
    if first.all():
        return a
    longest_first = np.lexsort((order, -norms[order], np.cumsum(first)))
    return a[np.sort(order[longest_first[first]])]


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class ContactSet:
    """Unit contact directions of an inscribed ellipsoid with their
    positive John weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or wts.ndim != 1 or pts.shape[0] != wts.shape[0]:
            raise GeometryError("contact points and weights disagree in shape")
        norms = np.linalg.norm(pts, axis=1)
        if pts.shape[0] and np.abs(norms - 1.0).max() > 1e-8:
            raise GeometryError("contact points must be unit vectors")
        if np.any(wts <= 0.0):
            raise GeometryError("contact weights must be strictly positive")
        object.__setattr__(self, "points", np.ascontiguousarray(pts))
        object.__setattr__(self, "weights", np.ascontiguousarray(wts))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class JohnSolution:
    """Inscribed ellipsoid (centered at the symmetrization origin) plus a
    bound on the log-volume gap and the solver that produced it.

    ``iterations`` counts the solver's work: weight-ascent iterations on the
    oracle route, separation-oracle calls on the cutting-plane route.
    ``newton_steps`` counts Newton steps: on the oracle route those on the
    support of the ascent weights (see :func:`_khachiyan_ascent`), on the
    cutting-plane route the recentering systems the engine solved.
    """

    ellipsoid: Ellipsoid
    logdet_gap: float
    solver_tag: str
    iterations: int = 0
    newton_steps: int = 0


class JohnConditions(NamedTuple):
    """Residual triple (frobenius, weight_sum, balance) of the decomposition
    conditions sum c_i u_i u_i^T = I, sum c_i = n, sum c_i u_i = 0."""

    frobenius: float
    weight_sum: float
    balance: float


# ---------------------------------------------------------------------------
# Khachiyan ascent (centered MVEE of a symmetric point set)


def _khachiyan_ascent(points: np.ndarray, tol: float):
    """Maximize log det sum_i u_i p_i p_i^T over the simplex in two phases:
    a coarse multiplicative-weight ascent with away steps (Khachiyan, Math.
    Oper. Res. 1996), then Newton steps on the support of the weights
    (:func:`_newton_polish`).

    The ascent starts from weight 1/n on the n points :func:`_core_start`
    picks, the core set the rank-one ascent of Todd & Yildirim is built to
    run from; with m == n that is the uniform start. A uniform start spends
    an away step on each point the optimum does not use; at the center of a
    random (10, 60) body the core start cut the ascent from 78 to 16
    iterations.

    Each ascent iteration moves the weights to u' = (1 - beta) u + beta e_j,
    then clips them at 0 and renormalizes them to sum 1. An away step that
    drops point j sets u_j to exactly 0: rounding would leave about 1e-19,
    which keeps j in the support of the Newton polish. Between exact
    recomputes the moment inverse M^-1 and the leverages
    g_i = p_i^T M^-1 p_i follow by the Sherman-Morrison formula in O(mn)
    (Todd & Yildirim, Discrete Appl. Math. 2007): with v = M^-1 p_j,
    w = P v and c = beta / (1 - beta + beta g_j),

        g <- (g - c w^2) / (1 - beta),   M^-1 <- (M^-1 - c v v^T) / (1 - beta),

    both also scaled by the renormalizing sum. Every ``_EXACT_EVERY``
    iterations, and whenever the updated g meets the tolerance or, before
    the polish has run, ``_NEWTON_FROM``, M and g are recomputed exactly
    from u; only such an exact recompute certifies, so rounding in the
    updates never reaches the certificate.

    The first exact recompute with max_i g_i / n - 1 <= ``_NEWTON_FROM``
    hands the weights to the Newton polish, once. The ascent then resumes
    from the weights the polish returns, which are its best iterate; when
    the polish certified, that resumption returns at once.

    Stops once max_i p_i^T M^-1 p_i <= n (1 + tol), within
    ``_ASCENT_MAX_ITER`` ascent iterations. Returns (u, M, g_max,
    iterations, newton_steps).
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    u = np.full(m, 1.0 / m)
    mat = pts.T @ (pts * u[:, None])
    _check_spans(mat, m)
    if m > n:
        u = _core_start(pts)
        mat = pts.T @ (pts * u[:, None])
    iterations = 0
    newton_steps = 0
    polished = False
    since_exact = 0  # rank-one updates since `mat` was recomputed from u
    while True:
        if since_exact == 0:
            try:
                sol = np.linalg.solve(mat, pts.T)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    "moment matrix of the ascent weights is singular"
                ) from exc
            g = np.einsum("ij,ji->i", pts, sol)
            inv = None
        j_add = int(np.argmax(g))
        g_add = float(g[j_add])
        eps_add = g_add / n - 1.0
        if eps_add <= (tol if polished else max(tol, _NEWTON_FROM)):
            if since_exact:
                mat = pts.T @ (pts * u[:, None])
                since_exact = 0
            elif eps_add <= tol:
                return u, mat, g_add, iterations, newton_steps
            else:
                u, mat, newton_steps = _newton_polish(pts, u, mat, g, tol)
                polished = True
            continue
        if iterations == _ASCENT_MAX_ITER:
            raise SolverError(
                f"ellipsoid weight ascent did not certify tolerance {tol:.3e} "
                f"within {_ASCENT_MAX_ITER} iterations",
                best=None,
            )
        j_away = int(np.argmin(np.where(u > 0.0, g, np.inf)))
        g_away = float(g[j_away])
        drop = False
        if eps_add >= 1.0 - g_away / n:
            j, gj = j_add, g_add
            beta = (gj - n) / (n * (gj - 1.0))
        else:
            j, gj = j_away, g_away
            uj = float(u[j])
            floor = -uj / (1.0 - uj) if uj < 1.0 else -1.0
            if gj <= 1.0:
                beta = floor
            else:
                beta = max((gj - n) / (n * (gj - 1.0)), floor)
            drop = beta == floor and uj < 1.0
        u *= 1.0 - beta
        u[j] = 0.0 if drop else u[j] + beta
        np.maximum(u, 0.0, out=u)
        total = float(u.sum())
        u /= total
        iterations += 1
        # det M' = det M (1 - beta)^(n-1) denom, so denom <= 0 leaves no
        # positive definite M' to update; the exact recompute reports it.
        denom = 1.0 - beta + beta * gj
        if since_exact + 1 == _EXACT_EVERY or not denom > 0.0:
            mat = pts.T @ (pts * u[:, None])
            since_exact = 0
            continue
        if inv is None:
            inv = np.linalg.inv(mat)
        v = inv @ pts[j]
        w = pts @ v
        c = beta / denom
        scale = total / (1.0 - beta)
        g = (g - c * (w * w)) * scale
        inv = (inv - np.outer(c * v, v)) * scale
        since_exact += 1


def _core_start(pts: np.ndarray) -> np.ndarray:
    """Weights 1/n on n of the m spanning points, 0 on the rest.

    The points are whitened by a thin QR, P = QR, and n rows of Q are picked
    greedily by largest residual norm: column-pivoted QR of Q^T. A linear
    map of the points changes Q only by an orthogonal factor on the right,
    which leaves every residual norm as it was, so the picks are invariant
    under it up to rounding.
    """
    n = pts.shape[1]
    _, _, picks = qr(np.linalg.qr(pts)[0].T, mode="economic", pivoting=True)
    u = np.zeros(pts.shape[0])
    u[picks[:n]] = 1.0 / n
    return u


def _newton_polish(pts: np.ndarray, u: np.ndarray, mat: np.ndarray,
                   g: np.ndarray, tol: float):
    """Newton steps on log det M(u) over the support of u plus its most
    violated point (Todd, Minimum-Volume Ellipsoids, SIAM 2016, ch. 3).

    ``mat`` and ``g`` are the exact moments and leverages of u. On the
    support S the Hessian of log det is -Q with Q = (P_S M^-1 P_S^T)^2
    entrywise, so the step d solves Q d = g_S - lambda 1 with 1^T d = 0.
    A step that would take a weight below 0 stops at that weight, sets it
    to exactly 0 and is kept. A full step is kept only if it lowers the
    exact max_i g_i or raises log det M: the first step often raises the
    leverage of a point outside S, which then joins the support, while near
    the optimum log det stops moving before max_i g_i does. The polish
    stops when max_i g_i / n - 1 <= tol, when a full step is refused, after
    ``_NEWTON_MAX_STEPS`` steps, or on a singular Q or M.

    Returns (u, M, steps): the weights of lowest max_i g_i seen, their
    moments as recomputed exactly from them, and the steps taken.
    """
    n = pts.shape[1]
    g_max = float(g.max())
    last_logdet = float(np.linalg.slogdet(mat)[1])
    best_u, best_mat, best_g_max = u, mat, g_max
    steps = 0
    try:
        while steps < _NEWTON_MAX_STEPS and g_max / n - 1.0 > tol:
            support = np.union1d(np.flatnonzero(u > 0.0), int(np.argmax(g)))
            rows = pts[support]
            q = (rows @ np.linalg.solve(mat, rows.T)) ** 2
            q_inv_g, q_inv_1 = np.linalg.solve(
                q, np.column_stack([g[support], np.ones(support.size)])
            ).T
            # lambda = 1^T Q^-1 g_S / 1^T Q^-1 1 makes 1^T d = 0.
            d = q_inv_g - (q_inv_g.sum() / q_inv_1.sum()) * q_inv_1
            u_s = u[support]
            step, blocking = 1.0, None
            falling = np.flatnonzero(d < 0.0)
            if falling.size:
                ratios = u_s[falling] / -d[falling]
                k = int(np.argmin(ratios))
                if ratios[k] < 1.0:
                    step, blocking = float(ratios[k]), support[falling[k]]
            u = u.copy()
            u[support] = np.maximum(u_s + step * d, 0.0)
            if blocking is not None:
                u[blocking] = 0.0
            u /= u.sum()
            mat = pts.T @ (pts * u[:, None])
            g = np.einsum("ij,ji->i", pts, np.linalg.solve(mat, pts.T))
            steps += 1
            new_g_max = float(g.max())
            logdet = float(np.linalg.slogdet(mat)[1])
            if blocking is None and not (new_g_max < g_max or logdet > last_logdet):
                break
            g_max, last_logdet = new_g_max, logdet
            if g_max < best_g_max:
                best_u, best_mat, best_g_max = u, mat, g_max
    except np.linalg.LinAlgError:
        pass
    return best_u, best_mat, steps


def _check_spans(mat: np.ndarray, m: int) -> None:
    """Raise when the m points whose uniform moment matrix is ``mat`` do not
    span R^n. The test runs on the matrix rescaled to unit diagonal, so a
    body that is merely thin along a coordinate axis passes; what it flags
    is rank deficiency up to the rounding of an m-term sum."""
    diag = np.sqrt(np.diagonal(mat))
    if m >= diag.size and diag.min() > 0.0:
        if np.linalg.eigvalsh(mat / np.outer(diag, diag))[0] > m * _EPS:
            return
    raise UnboundedPolytopeError(
        "point set does not span; the polar body is unbounded"
    )


def _fit_inside(
    body: SymmetricPolytope, radii: np.ndarray, axes: np.ndarray
) -> Ellipsoid:
    """Origin-centered ellipsoid with the given semi-axes, shrunk until
    max_i |E a_i| <= 1 holds as computed over every row of the body.

    A certificate places the factor inside only up to rounding, and rows the
    solver never saw (see :func:`_distinct_rows`) are implied only up to
    rounding; either can leave |E a_i| a few ulp above 1.
    """
    origin = np.zeros(body.n)
    while True:
        ell = Ellipsoid.from_eigh(radii, axes, origin)
        images = body.A @ ell.mat
        reach_sq = float((images * images).sum(axis=1).max())
        if reach_sq <= 1.0:
            return ell
        if not np.isfinite(reach_sq):
            raise NumericalError("inscribed ellipsoid factor is not finite")
        radii = radii / (np.sqrt(reach_sq) * (1.0 + 4.0 * _EPS))


def _solve_mve_oracle(body: SymmetricPolytope, gap: float) -> JohnSolution:
    n = body.n
    tol = gap / (2.0 * n)
    _, mat, g_max, iterations, steps = _khachiyan_ascent(_distinct_rows(body), tol)
    # Polar conversion: the unscaled inscribed factor is (n M)^(-1/2); the
    # certificate scale sqrt(g_max / n) shrinks it onto the feasible side.
    vals, vecs = np.linalg.eigh(n * mat)
    if vals[0] <= 0.0:
        raise NumericalError("moment matrix lost positive definiteness")
    radii = 1.0 / (np.sqrt(vals) * np.sqrt(g_max / n))
    ell = _fit_inside(body, radii, vecs)
    # Any shrink _fit_inside applied widens the gap by the log det it cost.
    shrink = float(np.sum(np.log(radii))) - ell.logdet
    gap_bound = max(0.0, 0.5 * n * np.log(g_max / n)) + shrink
    return JohnSolution(
        ellipsoid=ell, logdet_gap=gap_bound, solver_tag="oracle",
        iterations=iterations, newton_steps=steps,
    )


def dual_logdet_bound(body: SymmetricPolytope, tol: float = 1e-9) -> float:
    """Rigorous upper bound on the optimal inscribed log det for the body,
    obtained from any simplex weights w via weak duality:
    opt <= -1/2 log det(n sum_i w_i a_i a_i^T). A short weight ascent makes
    the bound tight to about n * tol / 2."""
    _, mat, _, _, _ = _khachiyan_ascent(_distinct_rows(body), tol)
    sign, logdet = np.linalg.slogdet(body.n * mat)
    if sign <= 0:
        raise NumericalError("dual moment matrix is singular")
    return -0.5 * float(logdet)


# ---------------------------------------------------------------------------
# Dikin preconditioning and the cutting-plane route


def dikin_precondition(body: SymmetricPolytope):
    """Map the body by T(y) = H^(1/2) y with H the log-barrier Hessian at
    the origin, summed over both half-spaces of every row: H = 2 A^T A.

    In the image the radius-1 Dikin ellipsoid at the origin is the unit
    ball, so unit ball <= image <= sqrt(2 rows) * unit ball. Returns
    (t_mat, image) with t_mat = H^(1/2).
    """
    a = body.A
    # Summed over the half-spaces themselves: 2 A^T A rounds differently.
    halves = np.vstack([a, -a])
    hess = halves.T @ halves
    vals, vecs = np.linalg.eigh(hess)
    if vals[0] <= 1e-14 * max(vals[-1], 1.0):
        raise NumericalError(
            "barrier Hessian is singular; rows do not span (body unbounded)"
        )
    t_mat = (vecs * np.sqrt(vals)) @ vecs.T
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    return t_mat, SymmetricPolytope(a @ inv_sqrt, body.anchor.copy())


@dataclass(frozen=True)
class OracleAnswer:
    """Answer of the inscribed-ellipsoid separation oracle at a symmetric
    matrix X, already vectorized for the cutting-plane engine.

    kind is "feasible" (value = -logdet X, cut = its gradient -X^-1),
    "constraint" (cut = a_i a_i^T for the first violated row i) or "psd"
    (cut = -v v^T for an eigenvector v with eigenvalue below 1/n).
    """

    kind: str
    cut: np.ndarray
    value: Optional[float] = None


def separation_oracle_mve(x_mat: np.ndarray, body: SymmetricPolytope) -> OracleAnswer:
    """Separate the matrix X from the feasible set {<X, a_i a_i^T> <= 1,
    X >= I/n} of the inscribed-ellipsoid program, or report feasibility
    together with the objective -logdet X and its gradient."""
    x_mat = np.asarray(x_mat, dtype=float)
    n = body.n
    if x_mat.shape != (n, n):
        raise GeometryError("matrix dimension does not match the body")
    scale = max(1.0, float(np.abs(x_mat).max()))
    if np.abs(x_mat - x_mat.T).max() > 1e-10 * scale:
        raise GeometryError("separation oracle expects a symmetric matrix")
    vals_rows = np.einsum("ij,jk,ik->i", body.A, x_mat, body.A)
    violated = np.nonzero(vals_rows > 1.0)[0]
    if violated.size:
        row = body.A[int(violated[0])]
        return OracleAnswer(kind="constraint", cut=sym_to_vec(np.outer(row, row)))
    vals, vecs = np.linalg.eigh(x_mat)
    if vals[0] < 1.0 / n:
        v = vecs[:, 0]
        return OracleAnswer(kind="psd", cut=sym_to_vec(-np.outer(v, v)))
    sign, logdet = np.linalg.slogdet(x_mat)
    if sign <= 0:
        raise NumericalError("objective evaluated at a non-PD matrix")
    inv = np.linalg.inv(x_mat)
    inv = 0.5 * (inv + inv.T)
    return OracleAnswer(kind="feasible", cut=sym_to_vec(-inv), value=-float(logdet))


def _solve_mve_vaidya(body: SymmetricPolytope, gap: float) -> JohnSolution:
    n = body.n
    reduced = SymmetricPolytope(_distinct_rows(body), body.anchor)
    t_mat, image = dikin_precondition(reduced)
    d = sym_dim(n)
    # Any feasible X has spectral norm <= the image's half-space count.
    rho = float(2 * image.rows)
    level = np.log2(4.0 / gap) + 1.0

    def oracle(v: np.ndarray):
        ans = separation_oracle_mve(vec_to_sym(v, n), image)
        return ans.value, ans.cut

    result = _vaidya.vaidya_minimize(oracle, d, level, rho)
    if result.point is None:
        raise SolverError(
            "cutting-plane engine found no feasible matrix", best=result
        )
    x_hat = vec_to_sym(result.point, n)
    inv_sqrt_h = np.linalg.inv(t_mat)
    shape = inv_sqrt_h @ x_hat @ inv_sqrt_h
    vals, vecs = np.linalg.eigh(0.5 * (shape + shape.T))
    if vals[0] <= 0.0:
        raise NumericalError("cutting-plane matrix is not positive definite")
    ell = _fit_inside(body, np.sqrt(vals), vecs)
    bound = dual_logdet_bound(body, tol=gap / (2.0 * n))
    gap_bound = max(0.0, bound - ell.logdet)
    sol = JohnSolution(
        ellipsoid=ell,
        logdet_gap=gap_bound,
        solver_tag="vaidya",
        iterations=result.oracle_calls,
        newton_steps=result.state.newton_steps,
    )
    if gap_bound > gap:
        raise SolverError(
            f"cutting-plane solution certifies gap {gap_bound:.3e} > "
            f"requested {gap:.3e}",
            best=sol,
        )
    return sol


def solve_mve(
    body: SymmetricPolytope,
    method: str = "oracle",
    gap: float = 1e-9,
) -> JohnSolution:
    """Maximum-volume inscribed ellipsoid of an origin-symmetric polytope.

    Args:
        body: the symmetric body {y : |Ay| <= 1}, one row per constraint pair.
        method: "oracle" for the Khachiyan polar route, "vaidya" for the
            volumetric cutting-plane route.
        gap: required upper bound on (optimal logdet - achieved logdet).

    Returns:
        JohnSolution whose ellipsoid is strictly feasible: |mat @ a_i| <= 1
        for every row, with the certified logdet_gap. The oracle route
        certifies it from its own ascent; the cutting-plane route certifies
        its answer through :func:`dual_logdet_bound` and raises SolverError
        when that bound exceeds ``gap``. On thin or badly scaled bodies
        rounding in the ascent can leave the oracle route's certified gap
        above ``gap``; it then reports that larger gap rather than raising.
    """
    if not 0.0 < gap < np.inf:
        raise GeometryError(f"gap must be positive and finite, not {gap}")
    if method == "oracle":
        return _solve_mve_oracle(body, gap)
    if method == "vaidya":
        return _solve_mve_vaidya(body, gap)
    raise GeometryError(f"unknown solver method {method!r}")


# ---------------------------------------------------------------------------
# contact extraction and John decomposition checks


def extract_contacts(solution: JohnSolution, body: SymmetricPolytope) -> ContactSet:
    """Contact directions of the inscribed ellipsoid with the body and their
    John weights.

    Rows with 1 - |E a_i| <= ``_CONTACT_SLACK`` (1e-7) are treated as
    touching at the unit points +-u_i, u_i = E a_i / |E a_i|. Touch points
    that coincide up to sign share one dyad u u^T, whichever rows they come
    from.
    Weights solve the nonnegative least-squares system sum_k c_k u_k u_k^T = I
    once per dyad, and each dyad's weight is split evenly between +u and -u,
    which keeps sum c_i u_i at exactly zero.
    """
    e_mat = solution.ellipsoid.mat
    images = body.A @ e_mat  # row i is (E a_i)^T since E is symmetric
    norms = np.linalg.norm(images, axis=1)
    tight = np.nonzero(1.0 - norms <= _CONTACT_SLACK)[0]
    # The first touching row of each direction up to sign stands for it.
    dyads: dict[tuple, np.ndarray] = {}
    for u in images[tight] / norms[tight, None]:
        canon = u if u[int(np.argmax(np.abs(u)))] > 0.0 else -u
        dyads.setdefault(tuple(np.round(canon, 7)), u)
    if len(dyads) < body.n:
        raise NumericalError(
            f"contact set rank-deficient: only {len(dyads)} touch directions "
            f"within slack {_CONTACT_SLACK:.1e} (need at least {body.n})"
        )
    units = np.array(list(dyads.values()))
    design = np.column_stack([sym_to_vec(np.outer(u, u)) for u in units])
    dyad_weights, _ = nnls(design, sym_to_vec(np.eye(body.n)))
    kept = dyad_weights > 0.0
    if not kept.any():
        raise NumericalError("all contact weights vanished in NNLS")
    points = np.stack([units[kept], -units[kept]], axis=1).reshape(-1, body.n)
    return ContactSet(points, np.repeat(0.5 * dyad_weights[kept], 2))


def verify_john_conditions(contacts: ContactSet, n: int) -> JohnConditions:
    """Residuals of the John decomposition conditions for a contact set in
    R^n: ||sum c u u^T - I||_F, |sum c - n| and |sum c u|."""
    pts, wts = contacts.points, contacts.weights
    if pts.shape[1] != n:
        raise GeometryError("contact dimension does not match n")
    moment = pts.T @ (pts * wts[:, None])
    frob = float(np.linalg.norm(moment - np.eye(n)))
    weight_sum = abs(float(wts.sum()) - n)
    balance = float(np.linalg.norm(wts @ pts))
    return JohnConditions(frob, weight_sum, balance)
