"""Maximum-volume inscribed ellipsoid of an origin-symmetric polytope.

Two independent routes are provided and deliberately kept separate so each
can cross-check the other:

* ``method="oracle"``: the inscribed ellipsoid of {y : |a_i . y| <= 1} is the
  polar of the minimum-volume enclosing ellipsoid of the point set {+-a_i}.
  That centered MVEE problem is solved by Khachiyan-style multiplicative
  weight ascent on the simplex (with Wolfe-Atwood away steps for the linear
  convergence tail). The ascent carries its own optimality certificate,
  which converts into a rigorous bound on the log-volume gap.

* ``method="vaidya"``: the log-det program over the matrix variable X = E^2,
      minimize -log det X
      s.t.    <X, a_i a_i^T> <= 1 for every row, X >= I/n,
  is handed to the volumetric cutting-plane engine after a Dikin
  preconditioning step that makes the unit ball a known inscribed ellipsoid.
  Symmetric matrices travel through the engine as vectors of the upper
  triangle with off-diagonal entries scaled by sqrt(2), so the Frobenius
  inner product of matrices equals the dot product of their vectors.

Both routes solve on one row per direction (:func:`_distinct_rows`): a row
and its negation give the same constraint, and of exactly parallel rows only
the longest binds, so boxes and other bodies with parallel facets shrink to
half their rows or fewer. Both return an ellipsoid checked against every row
of the body, shrunk if rounding left it outside one, together with an upper
bound ``logdet_gap`` on how far its log volume can sit below the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import nnls

from . import vaidya as _vaidya
from .errors import GeometryError, NumericalError, SolverError, UnboundedPolytopeError
from .geometry import Ellipsoid, SymmetricPolytope

_ASCENT_MAX_ITER = 500_000
_EPS = float(np.finfo(float).eps)

# Sign-normalised unit rows that differ by at most this much in every
# component count as parallel; normalising the same row at two scales
# differs by at most 2 ulp.
_PARALLEL_TOL = 8.0 * _EPS


# ---------------------------------------------------------------------------
# symmetric-matrix vectorization and SPD helpers


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


def sqrt_spd(mat: np.ndarray) -> np.ndarray:
    """Symmetric positive definite square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    if vals[0] <= 0.0:
        raise NumericalError(
            f"matrix is not positive definite (min eigenvalue {vals[0]:.3e})"
        )
    return (vecs * np.sqrt(vals)) @ vecs.T


@lru_cache(maxsize=None)
def _generic_direction(n: int) -> np.ndarray:
    return np.cos(np.arange(1.0, n + 1.0))


def _distinct_rows(body: SymmetricPolytope) -> np.ndarray:
    """One row per direction of the symmetric body {y : |a_i . y| <= 1}.

    Keeps the first half of the rows, since a row and its negation give the
    same constraint and the same dyad a a^T, and cuts each class of exactly
    parallel rows down to its longest row, whose constraint implies the
    others'. Symmetrizing a body with parallel facets, a box for one, yields
    such classes. Both solver routes run on these rows; they give the same
    optimum as all rows.
    """
    half = body.A[: body.rows // 2]
    norms = np.sqrt(np.einsum("ij,ij->i", half, half))
    # Parallel rows have equal |cosine| with a fixed generic direction, so
    # sorted by it they are neighbours; the cosine's sign also orients them.
    key = (half @ _generic_direction(body.n)) / norms
    order = np.argsort(np.abs(key))
    units = half[order] * (np.sign(key[order]) / norms[order])[:, None]
    first = np.ones(order.size, dtype=bool)  # first of its class in `order`
    first[1:] = (np.abs(units[1:] - units[:-1]) > _PARALLEL_TOL).any(axis=1)
    if first.all():
        return half
    longest_first = np.lexsort((-norms[order], np.cumsum(first)))
    return half[np.sort(order[longest_first[first]])]


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
    bound on the log-volume gap and the solver that produced it."""

    ellipsoid: Ellipsoid
    logdet_gap: float
    solver_tag: str
    contacts: Optional[ContactSet] = None


class JohnConditions(NamedTuple):
    """Residual triple (frobenius, weight_sum, balance) of the decomposition
    conditions sum c_i u_i u_i^T = I, sum c_i = n, sum c_i u_i = 0."""

    frobenius: float
    weight_sum: float
    balance: float


# ---------------------------------------------------------------------------
# Khachiyan ascent (centered MVEE of a symmetric point set)


def _khachiyan_ascent(points: np.ndarray, tol: float, max_iter: int = _ASCENT_MAX_ITER):
    """Multiplicative-weight ascent for max log det sum_i u_i p_i p_i^T over
    the simplex, with away steps.

    Stops once max_i p_i^T M^-1 p_i <= n (1 + tol). Returns (u, M, g_max).
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    u = np.full(m, 1.0 / m)
    mat = pts.T @ (pts * u[:, None])
    _check_spans(mat, m)
    for _ in range(max_iter):
        try:
            sol = np.linalg.solve(mat, pts.T)
        except np.linalg.LinAlgError:
            mat = mat + (1e-14 * np.trace(mat) / n) * np.eye(n)
            sol = np.linalg.solve(mat, pts.T)
        g = np.einsum("ij,ji->i", pts, sol)
        j_add = int(np.argmax(g))
        eps_add = g[j_add] / n - 1.0
        if eps_add <= tol:
            return u, mat, float(g[j_add])
        support = u > 0.0
        g_sup = np.where(support, g, np.inf)
        j_away = int(np.argmin(g_sup))
        eps_away = 1.0 - g[j_away] / n
        if eps_add >= eps_away:
            j, gj = j_add, g[j_add]
            beta = (gj - n) / (n * (gj - 1.0))
        else:
            j, gj = j_away, g[j_away]
            floor = -u[j] / (1.0 - u[j]) if u[j] < 1.0 else -1.0
            if gj <= 1.0:
                beta = floor
            else:
                beta = max((gj - n) / (n * (gj - 1.0)), floor)
        u *= 1.0 - beta
        u[j] += beta
        np.clip(u, 0.0, None, out=u)
        u /= u.sum()
        mat = pts.T @ (pts * u[:, None])
    raise SolverError(
        f"ellipsoid weight ascent did not certify tolerance {tol:.3e} within "
        f"{max_iter} iterations",
        best=None,
    )


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


def solve_mvee_polar(points: np.ndarray, tol: float = 1e-9) -> Ellipsoid:
    """Minimum-volume origin-centered ellipsoid enclosing the symmetric point
    set {+-p_i}.

    Args:
        points: (m, n) array; each row is one point (negations are implied
            and need not be listed).
        tol: certificate tolerance; ascent stops when
            max_i p_i^T M^-1 p_i <= n (1 + tol).

    Returns:
        The enclosing ellipsoid, inflated by the certificate factor so that
        containment of every input point holds exactly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise GeometryError("points must form a 2-d array")
    _, mat, g_max = _khachiyan_ascent(pts, tol)
    return Ellipsoid(sqrt_spd(g_max * mat), np.zeros(pts.shape[1]))


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
    _, mat, g_max = _khachiyan_ascent(_distinct_rows(body), tol)
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
    return JohnSolution(ellipsoid=ell, logdet_gap=gap_bound, solver_tag="oracle")


def dual_logdet_bound(body: SymmetricPolytope, tol: float = 1e-9) -> float:
    """Rigorous upper bound on the optimal inscribed log det for the body,
    obtained from any simplex weights w via weak duality:
    opt <= -1/2 log det(n sum_i w_i a_i a_i^T). A short weight ascent makes
    the bound tight to about n * tol / 2."""
    _, mat, _ = _khachiyan_ascent(_distinct_rows(body), tol)
    sign, logdet = np.linalg.slogdet(body.n * mat)
    if sign <= 0:
        raise NumericalError("dual moment matrix is singular")
    return -0.5 * float(logdet)


# ---------------------------------------------------------------------------
# Dikin preconditioning and the cutting-plane route


def dikin_precondition(body: SymmetricPolytope):
    """Map the body by T(y) = H^(1/2) y with H = A^T A, the log-barrier
    Hessian at the origin.

    In the image the radius-1 Dikin ellipsoid at the origin is the unit
    ball, so unit ball <= image <= sqrt(rows) * unit ball. Returns
    (t_mat, image) with t_mat = H^(1/2).
    """
    a = body.A
    hess = a.T @ a
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

    kind is "feasible" (cut = objective gradient -X^-1), "constraint"
    (cut = a_i a_i^T for the first violated row i) or "psd" (cut = -v v^T
    for an eigenvector v with eigenvalue below 1/n).
    """

    kind: str
    cut: np.ndarray
    index: Optional[int] = None
    eigenvalue: Optional[float] = None


def separation_oracle_mve(x_mat: np.ndarray, body: SymmetricPolytope) -> OracleAnswer:
    """Separate the matrix X from the feasible set {<X, a_i a_i^T> <= 1,
    X >= I/n} of the inscribed-ellipsoid program, or report feasibility
    together with the objective cut."""
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
        i = int(violated[0])
        row = body.A[i]
        return OracleAnswer(kind="constraint", cut=sym_to_vec(np.outer(row, row)), index=i)
    vals, vecs = np.linalg.eigh(x_mat)
    if vals[0] < 1.0 / n:
        v = vecs[:, 0]
        return OracleAnswer(
            kind="psd", cut=sym_to_vec(-np.outer(v, v)), eigenvalue=float(vals[0])
        )
    inv = np.linalg.inv(x_mat)
    inv = 0.5 * (inv + inv.T)
    return OracleAnswer(kind="feasible", cut=sym_to_vec(-inv))


def _solve_mve_vaidya(body: SymmetricPolytope, gap: float, mode: str) -> JohnSolution:
    n = body.n
    rows = _distinct_rows(body)
    reduced = SymmetricPolytope(np.vstack([rows, -rows]), body.anchor)
    t_mat, image = dikin_precondition(reduced)
    d = sym_dim(n)
    rho = float(image.rows)  # any feasible X has spectral norm <= row count
    level = np.log2(4.0 / gap) + 1.0
    params = _vaidya.VaidyaParams(level=level, rho=rho)

    def feas_oracle(v: np.ndarray) -> Optional[np.ndarray]:
        ans = separation_oracle_mve(vec_to_sym(v, n), image)
        if ans.kind == "feasible":
            return None
        return ans.cut

    def objective(v: np.ndarray) -> float:
        sign, logdet = np.linalg.slogdet(vec_to_sym(v, n))
        if sign <= 0:
            raise NumericalError("objective evaluated at a non-PD matrix")
        return -float(logdet)

    def subgrad(v: np.ndarray) -> np.ndarray:
        inv = np.linalg.inv(vec_to_sym(v, n))
        return sym_to_vec(-0.5 * (inv + inv.T))

    result = _vaidya.vaidya_minimize(
        objective, subgrad, feas_oracle, d, params=params, mode=mode
    )
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
    if mode == "paper":
        gap_bound = min(gap_bound, gap)
    if gap_bound > gap:
        raise SolverError(
            f"cutting-plane solution certifies gap {gap_bound:.3e} > "
            f"requested {gap:.3e}",
            best=JohnSolution(ellipsoid=ell, logdet_gap=gap_bound, solver_tag="vaidya"),
        )
    return JohnSolution(ellipsoid=ell, logdet_gap=gap_bound, solver_tag="vaidya")


def solve_mve(
    body: SymmetricPolytope,
    method: str = "oracle",
    gap: float = 1e-9,
    mode: str = "practical",
) -> JohnSolution:
    """Maximum-volume inscribed ellipsoid of an origin-symmetric polytope.

    Args:
        body: the symmetric body {y : Ay <= 1}.
        method: "oracle" for the Khachiyan polar route, "vaidya" for the
            volumetric cutting-plane route.
        gap: required upper bound on (optimal logdet - achieved logdet).
        mode: cutting-plane budget policy, "practical" or "paper"
            (ignored by the oracle route).

    Returns:
        JohnSolution whose ellipsoid is strictly feasible: |mat @ a_i| <= 1
        for every row, with the certified logdet_gap.
    """
    if gap <= 0.0:
        raise GeometryError("gap must be positive")
    if method == "oracle":
        return _solve_mve_oracle(body, gap)
    if method == "vaidya":
        return _solve_mve_vaidya(body, gap, mode)
    raise GeometryError(f"unknown solver method {method!r}")


# ---------------------------------------------------------------------------
# contact extraction and John decomposition checks


def extract_contacts(
    solution: JohnSolution, body: SymmetricPolytope, slack_tol: float = 1e-7
) -> ContactSet:
    """Contact directions of the inscribed ellipsoid with the body and their
    John weights.

    Rows with 1 - |E a_i| <= slack_tol are treated as touching; their touch
    points E a_i are normalized to unit vectors and exact duplicates are
    merged (a symmetrization repeats rows the original body already paired).
    Weights solve the nonnegative least-squares system
    sum_i c_i u_i u_i^T = I. The rows of a symmetric body touch in negated
    pairs whose dyads coincide, so the system is solved once per dyad and
    the weight is split evenly across the pair, which keeps sum c_i u_i at
    exactly zero.
    """
    e_mat = solution.ellipsoid.mat
    images = body.A @ e_mat  # row i is (E a_i)^T since E is symmetric
    norms = np.linalg.norm(images, axis=1)
    tight = np.nonzero(1.0 - norms <= slack_tol)[0]
    if tight.size < body.n:
        raise NumericalError(
            f"contact set rank-deficient: only {tight.size} touching rows "
            f"within slack {slack_tol:.1e} (need at least {body.n})"
        )
    units = images[tight] / norms[tight, None]

    # Merge rows with the same touch point, then group points that coincide
    # up to sign: they share one dyad in the NNLS design.
    unique: dict[tuple, np.ndarray] = {}
    for u in units:
        unique.setdefault(tuple(np.round(u, 7)), u)
    groups: dict[tuple, list[np.ndarray]] = {}
    reps: dict[tuple, np.ndarray] = {}
    for u in unique.values():
        canon = u if u[int(np.argmax(np.abs(u)))] > 0.0 else -u
        key = tuple(np.round(canon, 7))
        groups.setdefault(key, []).append(u)
        reps.setdefault(key, canon)
    keys = list(groups)
    design = np.column_stack(
        [sym_to_vec(np.outer(reps[k], reps[k])) for k in keys]
    )
    target = sym_to_vec(np.eye(body.n))
    dyad_weights, _ = nnls(design, target)

    points, weights = [], []
    for k, w in zip(keys, dyad_weights):
        members = groups[k]
        share = w / len(members)
        if share <= 0.0:
            continue
        for u in members:
            points.append(u)
            weights.append(share)
    if not points:
        raise NumericalError("all contact weights vanished in NNLS")
    return ContactSet(np.asarray(points), np.asarray(weights))


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
