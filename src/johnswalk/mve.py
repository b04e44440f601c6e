"""Maximum-volume inscribed ellipsoid of an origin-symmetric polytope.

Two routes that share no solver are provided, so each checks the other:

* ``method="oracle"``: the inscribed ellipsoid of {y : |a_i . y| <= 1} is the
  polar of the minimum-volume enclosing ellipsoid of the point set {+-a_i}.
  That centered MVEE problem is solved in two phases on the simplex of
  weights. A Khachiyan-style multiplicative weight ascent with Wolfe-Atwood
  away steps starts from a core set, weight 1/n on n of the m points
  (Kumar & Yildirim, JOTA 2005), and runs until the largest leverage is
  within 10% of its optimal value n. The core set is picked greedily in the
  frame that whitens the points (:func:`_core_start`), so it depends only
  on the points and is invariant under linear maps of them; E stays a
  deterministic, affine-invariant function of the body. Between exact
  recomputes of the moment matrix the ascent updates the matrix inverse and
  the leverages by Sherman-Morrison rank-one formulas in O(mn) per
  iteration (Todd & Yildirim, Discrete Appl. Math. 2007). Newton
  steps on the support of the weights, at most n(n+1) of them, then
  replace the ascent's linear tail. When they do not certify, the ascent
  resumes from their best weights, so the result never depends on the
  Newton phase converging. Either phase certifies only on an exact
  recompute (:func:`_exact_moments`), one QR shared by both: its R, with
  M = R^T R, gives the leverages, a rigorous bound on the log-volume gap
  and the inscribed factor R^-1 / sqrt(g_max).

* ``method="vaidya"``: the log-det program over the matrix variable X = E^2,
      minimize -log det X
      s.t.    <X, a_i a_i^T> <= 1 for every row, X >= I/n,
  is handed to the volumetric cutting-plane engine after a Dikin
  preconditioning step that makes the unit ball a known inscribed ellipsoid.
  It certifies by weak duality at the John weights of the reduced rows
  within slack max(1e-6, gap/(2n)) of the boundary (:func:`_contact_dyads`),
  and the engine stops at the first improving point whose own certificate
  meets the requested gap (:func:`_vaidya_answer` builds it), so the answer
  certifies just under the request; only with n rows near contact by the
  oracle's row values a_i^T X a_i does the stop test build it.
  Symmetric matrices travel through the engine as vectors of the upper
  triangle with off-diagonal entries scaled by sqrt(2), so the Frobenius
  inner product of matrices equals the dot product of their vectors.

A symmetric body holds one row per constraint pair (see
:class:`~johnswalk.geometry.SymmetricPolytope`); only
:func:`dikin_precondition`, whose barrier sums over half-spaces, spells out
both halves. Both routes solve on one row per direction, the body's
``SymmetricPolytope.distinct``: of exactly parallel rows, of either sign,
only the longest binds, so boxes, other bodies with parallel facets and
bodies that list a row with both signs shrink to fewer rows with the same
optimum. The body picks them and makes the one span test, so both routes
raise the same UnboundedPolytopeError on an unbounded body before any
solver work; a symmetrized body takes both from its polytope, computed
once. Both return an ellipsoid checked against every row of the
body, shrunk if rounding left it outside one, together with an upper bound
``logdet_gap`` on how far its log volume can sit below the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dgeqp3, dgeqrf, dorgqr, dpotrf, dpotrs, dtrtri
from scipy.optimize import nnls

from . import vaidya as _vaidya
from .errors import GeometryError, NumericalError, SolverError
from .geometry import Ellipsoid, SymmetricPolytope

_ASCENT_MAX_ITER = 500_000
# Ascent iterations between exact recomputes of the moment matrix.
_EXACT_EVERY = 50
# The ascent hands over to Newton steps on the support once an exact
# recompute shows max_i g_i / n - 1 at most this.
_NEWTON_FROM = 0.1
_CONTACT_SLACK = 1e-6
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# symmetric-matrix vectorization


@lru_cache(maxsize=None)
def _triu_indices(n: int):
    iu, ju = np.triu_indices(n)
    weights = np.where(iu == ju, 1.0, np.sqrt(2.0))
    return iu, ju, weights


@lru_cache(maxsize=None)
def _strict_lower(n: int):
    return np.tril_indices(n, -1)


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
    x.flat[::n + 1] *= 0.5
    return x


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
    """Inscribed ellipsoid, centered at the body's anchor, plus a bound on
    the log-volume gap and the solver that produced it.

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


class _Moments(NamedTuple):
    """Exact state of weights u (:func:`_exact_moments`); M = R^T R."""
    r: np.ndarray  # R of the QR of diag(sqrt(u)) P, with positive diagonal
    r_inv: np.ndarray  # R^-1, so M^-1 = R^-1 R^-T
    y: np.ndarray  # P R^-1, so M^-1 P^T = R^-1 Y^T
    g: np.ndarray  # leverages g_i = p_i^T M^-1 p_i = |y_i|^2


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
    clips u'_j, the one weight rounding can take below 0, at 0 and
    renormalizes them to sum 1. An away step that drops point j sets u_j to
    exactly 0: rounding would leave about 1e-19, which keeps j in the
    support of the Newton polish. Between exact recomputes the moment
    inverse M^-1 and the leverages g_i = p_i^T M^-1 p_i follow by the
    Sherman-Morrison formula in O(mn), in place
    (Todd & Yildirim, Discrete Appl. Math. 2007): with v = M^-1 p_j,
    w = P v and c = beta / (1 - beta + beta g_j),

        g <- (g - c w^2) / (1 - beta),   M^-1 <- (M^-1 - c v v^T) / (1 - beta),

    both also scaled by the renormalizing sum. Every ``_EXACT_EVERY``
    iterations, and whenever the updated g meets the tolerance or, before
    the polish has run, ``_NEWTON_FROM``, R and g are recomputed exactly
    from u (:func:`_exact_moments`, shared with the polish), and M^-1
    restarts from R^-1 R^-T; only such an exact recompute certifies, so
    rounding in the updates never reaches it.

    The first exact recompute with max_i g_i / n - 1 <= ``_NEWTON_FROM``
    (10%) hands the weights and their exact moments to the Newton polish,
    once. The polish hands back its best exact state: when it certified,
    the ascent returns it without a further recompute, and otherwise it
    resumes from those weights.

    Stops once max_i p_i^T M^-1 p_i <= n (1 + tol), within
    ``_ASCENT_MAX_ITER`` ascent iterations. Returns (u, state, g_max,
    iterations, newton_steps), ``state`` the certifying exact recompute.
    The points must span R^n; the solver routes take them from
    ``body.distinct``, which tests that.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    u = _core_start(pts) if m > n else np.full(m, 1.0 / m)
    state = _exact_moments(pts, u)
    g, inv = state.g, None  # copied, then updated in place, by the ascent
    iterations = 0
    newton_steps = 0
    polished = False
    since_exact = 0  # rank-one updates since `state` was recomputed from u
    while True:
        j_add = int(g.argmax())
        g_add = float(g[j_add])
        eps_add = g_add / n - 1.0
        if eps_add <= (tol if polished else max(tol, _NEWTON_FROM)):
            if since_exact:
                state = _exact_moments(pts, u)
                g, inv, since_exact = state.g, None, 0
            elif eps_add <= tol:
                return u, state, g_add, iterations, newton_steps
            else:
                u, state, newton_steps = _newton_polish(pts, u, state, tol)
                g, polished = state.g, True
            continue
        if iterations == _ASCENT_MAX_ITER:
            raise SolverError(
                f"ellipsoid weight ascent did not certify tolerance {tol:.3e} "
                f"within {_ASCENT_MAX_ITER} iterations",
                best=None,
            )
        j_away = int(np.where(u > 0.0, g, np.inf).argmin())
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
        u[j] = 0.0 if drop else max(u[j] + beta, 0.0)
        total = float(u.sum())
        u /= total
        iterations += 1
        # det M' = det M (1 - beta)^(n-1) denom, so denom <= 0 leaves no
        # positive definite M' to update; the exact recompute reports it.
        denom = 1.0 - beta + beta * gj
        if since_exact + 1 == _EXACT_EVERY or not denom > 0.0:
            state = _exact_moments(pts, u)
            g, inv, since_exact = state.g, None, 0
            continue
        if inv is None:
            inv, g = state.r_inv @ state.r_inv.T, g.copy()
        v = inv @ pts[j]
        w = pts @ v
        c = beta / denom
        scale = total / (1.0 - beta)
        w *= w
        w *= c
        g -= w
        g *= scale
        inv -= (c * v)[:, None] * v
        inv *= scale
        since_exact += 1


def _exact_moments(pts: np.ndarray, u: np.ndarray) -> _Moments:
    """R, R^-1, Y = P R^-1 and g_i = |y_i|^2 from u by one QR of
    diag(sqrt(u)) P over the support of u, rows of R signed to a positive
    diagonal, and one triangular inverse; M is never formed. This is the only
    state either phase of :func:`_khachiyan_ascent` certifies from. Raises
    NumericalError when R has a zero diagonal entry: M is singular."""
    support = u > 0.0
    n = pts.shape[1]
    qr, _, _, info = dgeqrf(pts[support] * np.sqrt(u[support])[:, None])
    if info or qr.shape[0] < n:
        raise NumericalError("moment matrix of the ascent weights is singular")
    r = qr[:n] * np.sign(qr.diagonal())[:, None]
    r[_strict_lower(n)] = 0.0  # dgeqrf's Householder vectors
    r_inv, info = dtrtri(r)
    if info:
        raise NumericalError("moment matrix of the ascent weights is singular")
    y = pts @ r_inv
    return _Moments(r, r_inv, y, np.einsum("ij,ij->i", y, y))


def _core_start(pts: np.ndarray) -> np.ndarray:
    """Weights 1/n on n of the m spanning points, 0 on the rest.

    The points are whitened by a thin QR, P = QR, and n rows of Q are picked
    greedily by largest residual norm: column-pivoted QR of Q^T. A linear
    map of the points changes Q only by an orthogonal factor on the right,
    which leaves every residual norm as it was, so the picks are invariant
    under it up to rounding.
    """
    n = pts.shape[1]
    qr, tau, _, info = dgeqrf(pts)
    q, _, info_q = dorgqr(qr, tau)
    _, picks, _, _, info_p = dgeqp3(q.T)
    if info or info_q or info_p:
        raise NumericalError("pivoted QR of the whitened points failed")
    u = np.zeros(pts.shape[0])
    u[picks[:n] - 1] = 1.0 / n  # dgeqp3 numbers the columns from 1
    return u


def _newton_polish(pts: np.ndarray, u: np.ndarray, state: _Moments, tol: float):
    """Newton steps on log det M(u) over the support of u plus its most
    violated point (Todd, Minimum-Volume Ellipsoids, SIAM 2016, ch. 3).

    ``state`` holds the exact factor and leverages of u
    (:func:`_exact_moments`). On the support S the Hessian of log det is -Q
    with Q = (Y_S Y_S^T)^2 entrywise, Y = P R^-1, so the step d solves
    Q d = g_S - lambda 1 with 1^T d = 0; Q is factored by Cholesky. A step
    that would take a weight below 0 stops at that weight, sets it to
    exactly 0 and is kept. A full step is kept only if it lowers the exact
    max_i g_i or raises log det M: the first step often raises the leverage
    of a point outside S, which then joins the support, while near the
    optimum log det stops moving before max_i g_i does. The polish stops
    when max_i g_i / n - 1 <= tol, when a full step is refused, after
    n(n+1) steps, twice the n(n+1)/2 support bound of a basic optimum, or
    when Q does not factor or M is singular.

    Returns (u, state, steps): the weights of lowest max_i g_i seen, their
    exact moments, and the steps taken.
    """
    n = pts.shape[1]
    g_max = float(state.g.max())
    best, best_g_max, steps = (u, state), g_max, 0
    while steps < n * (n + 1) and g_max / n - 1.0 > tol:
        support = u > 0.0
        support[state.g.argmax()] = True
        support = np.flatnonzero(support)
        y_s = state.y[support]
        chol, info = dpotrf((y_s @ y_s.T) ** 2)
        if info:
            break
        q_inv_g = dpotrs(chol, state.g[support])[0]
        q_inv_1 = dpotrs(chol, np.ones(support.size))[0]
        # lambda = 1^T Q^-1 g_S / 1^T Q^-1 1 makes 1^T d = 0.
        d = q_inv_g - (q_inv_g.sum() / q_inv_1.sum()) * q_inv_1
        u_s = u[support]
        step, blocking = 1.0, None
        falling = np.flatnonzero(d < 0.0)
        if falling.size:
            ratios = u_s[falling] / -d[falling]
            k = int(ratios.argmin())
            if ratios[k] < 1.0:
                step, blocking = float(ratios[k]), support[falling[k]]
        u = u.copy()
        u[support] = np.maximum(u_s + step * d, 0.0)
        if blocking is not None:
            u[blocking] = 0.0
        u /= u.sum()
        try:
            new = _exact_moments(pts, u)
        except NumericalError:
            break
        steps += 1
        new_g_max = float(new.g.max())
        if blocking is None and not new_g_max < g_max:
            # log det M = 2 sum_i log R_ii decides only when max_i g_i does not.
            if not _half_logdet(new) > _half_logdet(state):
                break
        state, g_max = new, new_g_max
        if g_max < best_g_max:
            best, best_g_max = (u, state), g_max
    return (*best, steps)


def _half_logdet(state: _Moments) -> float:
    """1/2 log det M = sum_i log R_ii of an exact recompute."""
    return float(np.log(state.r.diagonal()).sum())


def _fit_inside(body: SymmetricPolytope, mat: np.ndarray, inv: np.ndarray,
                logdet: float) -> Ellipsoid:
    """The ellipsoid with factor F = ``mat``, inverse ``inv`` and
    log |det F| = ``logdet``, centered at the body's anchor, scaled down
    until max_i |F^T a_i| <= 1 holds as computed over every row.

    A certificate places the factor inside only up to rounding, and rows the
    solver never saw (see ``body.distinct``) are implied only up to
    rounding; either can leave |F^T a_i| a few ulp above 1.
    """
    scale = 1.0
    ell = Ellipsoid.factored(mat, inv, logdet, body.anchor)
    while True:
        images = body.A @ ell.mat
        reach_sq = float((images * images).sum(axis=1).max())
        if reach_sq <= 1.0:
            return ell
        if not np.isfinite(reach_sq):
            raise NumericalError("inscribed ellipsoid factor is not finite")
        scale /= np.sqrt(reach_sq) * (1.0 + 4.0 * _EPS)
        ell = Ellipsoid.factored(mat * scale, inv / scale,
                                 logdet + body.n * np.log(scale), body.anchor)


def _solve_mve_oracle(body: SymmetricPolytope, gap: float) -> JohnSolution:
    n = body.n
    tol = gap / (2.0 * n)
    _, state, g_max, iterations, steps = _khachiyan_ascent(body.distinct, tol)
    # Polar conversion: the inscribed ellipsoid {y : g_max y^T M y <= 1} has
    # the upper triangular factor F = R^-1 / sqrt(g_max), and
    # |F^T a_i|^2 = g_i / g_max <= 1 certifies it.
    scale = 1.0 / np.sqrt(g_max)
    logdet = float(n * np.log(scale) - _half_logdet(state))
    ell = _fit_inside(body, state.r_inv * scale, state.r / scale, logdet)
    # Any shrink _fit_inside applied widens the gap by the log det it cost.
    gap_bound = max(0.0, 0.5 * n * np.log(g_max / n)) + (logdet - ell.logdet)
    return JohnSolution(
        ellipsoid=ell, logdet_gap=gap_bound, solver_tag="oracle",
        iterations=iterations, newton_steps=steps,
    )


def _weak_dual_bound(rows: np.ndarray, weights: np.ndarray) -> float:
    """-1/2 log det(n sum_i w_i a_i a_i^T), w the weights scaled to sum 1: by
    weak duality a bound on the optimal inscribed log det of any body with
    the rows a_i (Todd, Minimum-Volume Ellipsoids, SIAM 2016). It is
    -sum_i log |R_ii| for the R of the rows scaled by sqrt(n w_i). The log
    det of the formed moment matrix, whose condition number is the rows'
    squared, erred by up to 37 eps (1 + |bound|) on the contacts of random
    (3, 9) bodies: enough to put a tight bound below the optimum."""
    n = rows.shape[1]
    r = np.linalg.qr(rows * np.sqrt(n * weights / weights.sum())[:, None], mode="r")
    diag = np.abs(r.diagonal())
    if diag.size < n or not diag.min() > 0.0:
        raise NumericalError("dual moment matrix is singular")
    return -float(np.log(diag).sum())


def dual_logdet_bound(body: SymmetricPolytope, tol: float = 1e-9) -> float:
    """:func:`_weak_dual_bound` at the oracle route's ascent weights, tight to
    about n * tol / 2: the reference the tests hold both routes' gaps to."""
    rows = body.distinct
    u, _, _, _, _ = _khachiyan_ascent(rows, tol)
    return _weak_dual_bound(rows, u)


# ---------------------------------------------------------------------------
# Dikin preconditioning and the cutting-plane route


def dikin_precondition(body: SymmetricPolytope):
    """Map the body by T(y) = H^(1/2) y with H the log-barrier Hessian at
    the origin, summed over both half-spaces of every row: H = 2 A^T A.

    In the image the radius-1 Dikin ellipsoid at the origin is the unit
    ball, so unit ball <= image <= sqrt(2 rows) * unit ball. Returns
    (inv_sqrt, image) with inv_sqrt = H^(-1/2), which maps the image back.
    """
    a = body.A
    # Summed over the half-spaces themselves: 2 A^T A rounds differently.
    halves = np.vstack([a, -a])
    hess = halves.T @ halves
    vals, vecs = np.linalg.eigh(hess)
    if vals[0] <= 1e-14 * max(vals[-1], 1.0):
        raise NumericalError(
            "barrier Hessian is too ill-conditioned to precondition: its "
            f"eigenvalues run from {vals[0]:.1e} to {vals[-1]:.1e}"
        )
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    return inv_sqrt, SymmetricPolytope(a @ inv_sqrt, body.anchor.copy())


@dataclass(frozen=True)
class OracleAnswer:
    """Answer of the inscribed-ellipsoid separation oracle at a symmetric
    matrix X, already vectorized for the cutting-plane engine.

    kind is "feasible" (value = -logdet X, cut = its gradient -X^-1, and
    ``rows`` the values a_i^T X a_i of every row), "constraint"
    (cut = a_i a_i^T for the first violated row i) or "psd" (cut = -v v^T
    for an eigenvector v with eigenvalue below 1/n).
    """

    kind: str
    cut: np.ndarray
    value: Optional[float] = None
    rows: Optional[np.ndarray] = None


def separation_oracle_mve(x_mat: np.ndarray, body: SymmetricPolytope) -> OracleAnswer:
    """Separate the matrix X from the feasible set {<X, a_i a_i^T> <= 1,
    X >= I/n} of the inscribed-ellipsoid program, or report feasibility
    together with the objective -logdet X, its gradient and the row values
    a_i^T X a_i, each |X^(1/2) a_i|^2."""
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
    # Every eigenvalue is at least 1/n here: the eigh gives logdet X and X^-1.
    inv = (vecs / vals) @ vecs.T
    return OracleAnswer(kind="feasible", cut=sym_to_vec(-inv),
                        value=-float(np.log(vals).sum()), rows=vals_rows)


def _vaidya_answer(body: SymmetricPolytope, inv_sqrt_h: np.ndarray,
                   point: np.ndarray, gap: float):
    """(ellipsoid, gap bound, problem) of a cutting-plane point: the matrix
    it maps back to, by one eigh, fitted inside every row of the body
    (:func:`_fit_inside`) and certified by weak duality at the John weights
    of its contacts (:func:`_contact_dyads`). The bound is inf when the
    contacts give no certificate; ``problem`` words the failure for a bound
    above ``gap``. Raises NumericalError when the matrix is not positive
    definite or the factor is not finite."""
    shape = inv_sqrt_h @ vec_to_sym(point, body.n) @ inv_sqrt_h
    vals, vecs = np.linalg.eigh(0.5 * (shape + shape.T))
    if vals[0] <= 0.0:
        raise NumericalError("cutting-plane matrix is not positive definite")
    radii = np.sqrt(vals)
    mat = (vecs * radii) @ vecs.T
    ell = _fit_inside(body, 0.5 * (mat + mat.T), (vecs / radii) @ vecs.T,
                      np.sum(np.log(radii)))
    try:
        rows, _, weights = _contact_dyads(ell, body, gap)
        gap_bound = max(0.0, _weak_dual_bound(rows, weights) - ell.logdet)
    except NumericalError as exc:
        return ell, np.inf, f"has no certificate: {exc}"
    return ell, gap_bound, f"certifies gap {gap_bound:.3e} > requested {gap:.3e}"


def _solve_mve_vaidya(body: SymmetricPolytope, gap: float) -> JohnSolution:
    n = body.n
    reduced = SymmetricPolytope._derived(body.distinct, body.anchor)
    inv_sqrt_h, image = dikin_precondition(reduced)
    # Any feasible X has spectral norm <= the image's half-space count.
    rho = float(2 * image.rows)
    level = np.log2(4.0 / gap) + 1.0

    # _fit_inside only shrinks the factor F, so a contact a_i of _contact_dyads
    # has |F^T a_i|^2 >= (1 - slack)^2, which is a^T X a for its image row a;
    # one more slack covers rounding.
    near = max(0.0, 1.0 - 2.0 * max(_CONTACT_SLACK, gap / (2 * n))) ** 2
    answered = [None, None]  # the point the oracle last answered, its row values

    def oracle(v: np.ndarray):
        ans = separation_oracle_mve(vec_to_sym(v, n), image)
        answered[:] = v, ans.rows
        return ans.value, ans.cut

    last = [None, None]  # the point the engine last asked about, its answer

    def certified(v: np.ndarray) -> bool:
        last[:] = v, None
        # With fewer than n rows near contact _contact_dyads would find none.
        if answered[0] is v and np.count_nonzero(answered[1] >= near) < n:
            return False
        try:
            last[1] = _vaidya_answer(body, inv_sqrt_h, v, gap)
        except NumericalError:
            return False
        return last[1][1] <= gap

    # The engine raises SolverError when it finds no feasible matrix. It
    # stops at the first improving point that certifies the gap; a run that
    # ends otherwise returns its best point, the last one asked about, whose
    # answer is built again only to raise what the stop test caught or skipped.
    result = _vaidya.vaidya_minimize(oracle, sym_dim(n), level, rho, stop=certified)
    point, answer = last
    if point is not result.point or answer is None:
        answer = _vaidya_answer(body, inv_sqrt_h, result.point, gap)
    ell, gap_bound, problem = answer
    sol = JohnSolution(
        ellipsoid=ell,
        logdet_gap=gap_bound,
        solver_tag="vaidya",
        iterations=result.oracle_calls,
        newton_steps=result.state.newton_steps,
    )
    if gap_bound > gap:
        raise SolverError(f"cutting-plane solution {problem}", best=sol)
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
        JohnSolution whose ellipsoid, centered at ``body.anchor``, is
        strictly feasible: |mat^T a_i| <= 1 for every row, with the
        certified logdet_gap. The oracle route certifies it from its own
        ascent, at most gap/4 plus the log det of any shrink that rounding
        forced, which it reports rather than raises; the cutting-plane route
        from the John weights of its own contact points, and it raises
        SolverError when it finds fewer than n contact directions or a bound
        above ``gap``. The routes share no solver.
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


def _contact_dyads(ell: Ellipsoid, body: SymmetricPolytope, gap: float):
    """Contact dyads of an inscribed ellipsoid solved at ``gap``, taken among
    the rows both routes solve on (``body.distinct``), one per
    direction: rows with 1 - |E a_i| <= max(1e-6, gap/(2n)), the ascent's
    tolerance at that gap, touch at the unit points +-u_i,
    u_i = E a_i / |E a_i|, and each gives one dyad u_i u_i^T. Returns
    (rows, units, weights) of the dyads that get a positive weight c_k in
    the nonnegative least-squares solution of sum_k c_k u_k u_k^T = I."""
    slack = max(_CONTACT_SLACK, gap / (2 * body.n))
    rows = body.distinct
    images = rows @ ell.mat  # row i is (F^T a_i)^T
    norms = np.linalg.norm(images, axis=1)
    tight = np.nonzero(1.0 - norms <= slack)[0]
    if tight.size < body.n:
        raise NumericalError(
            f"contact set rank-deficient: only {tight.size} touch directions "
            f"within slack {slack:.1e} (need at least {body.n})"
        )
    rows, units = rows[tight], images[tight] / norms[tight, None]
    design = np.column_stack([sym_to_vec(np.outer(u, u)) for u in units])
    dyad_weights, _ = nnls(design, sym_to_vec(np.eye(body.n)))
    kept = dyad_weights > 0.0
    if not kept.any():
        raise NumericalError("all contact weights vanished in NNLS")
    return rows[kept], units[kept], dyad_weights[kept]


def extract_contacts(
    solution: JohnSolution, body: SymmetricPolytope, gap: float = 1e-9
) -> ContactSet:
    """Contact points +-u_k of the inscribed ellipsoid, solved at ``gap``,
    with their John weights (:func:`_contact_dyads`), each split evenly so
    sum c_i u_i is exactly 0."""
    _, units, weights = _contact_dyads(solution.ellipsoid, body, gap)
    points = np.stack([units, -units], axis=1).reshape(-1, body.n)
    return ContactSet(points, np.repeat(0.5 * weights, 2))


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
