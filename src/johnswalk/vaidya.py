"""Volumetric-barrier cutting-plane engine (feasibility and minimization).

The engine maintains a bounded localization polytope {z : Gz <= h} that
always contains the target set, starting from the box {|z_i| <= rho}. The
iterate is kept near the volumetric center, the minimizer of
V(z) = 1/2 logdet H(z) where H is the log-barrier Hessian. Recentering runs
the damped Newton loop of ``geometry._damped_newton`` on V, without a line
search, with 2Q for Hess V: Q = w^T diag(sigma) w, the matrix Vaidya's
method steps with, and Q <= Hess V <= 3Q (Anstreicher, Math. Oper. Res.
1997). It stops at a decrement of 1/4 in 2Q, within a factor 2 of the true
one: far looser than the proximity the method was analysed with, and no
certificate rests on it. Each system gets one LAPACK Cholesky factor. The
factor of H at an iterate serves the last Newton step, the drop test and
the next cut; the slacks h - Gz of a trial point serve its domain test and step.
Each round either drops the constraint of smallest leverage (below
``EPS``) or queries the oracle and adds the returned cut through the
current iterate, backing the iterate off by half a Dikin radius so it stays
strictly interior. The cuts, and the feasible points each cut is checked
against, live in buffers that double when full; a drop shifts the later
rows up, so the rows keep the order ``np.delete`` gives.

The conformance constants are fixed module constants: EPS = 0.005,
TAU = 0.007, DELTA_V = 0.00037, and at most MAX_CONSTRAINTS_FACTOR = 201
times d active constraints. Only the precision exponent L and the starting
box half-width rho vary per problem. The paper's iteration budget uses
natural logarithms:

    T = ceil(d * (1.4 L + 2 ln d + 2 ln(1 + 1/EPS)
              + 0.5 ln((1 + TAU) / (1 - EPS)) + 2 ln rho - ln 2) / DELTA_V)

A run makes at most min(T, 20000) oracle calls and stops when an iterate
has no strict slack left, or at the first improving feasible iterate that
the caller's own stop test certifies.
A feasibility search is the minimization of the
zero function, which ends at the first accepted point. Small volume is
certified only by a bound: at the analytic center of an N-row polytope the
body lies inside the radius-N Dikin ellipsoid (Sonnevend), so
log vol <= d log(2N) - 1/2 logdet H + log vol(B_d), with one factor 2 of
slack for a point whose Newton decrement is at most 1/4.
When that bound drops below the volume of the 2^-L ball the claim
vol(target) < vol(2^-L ball) is proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs

from .errors import NumericalError, OracleInconsistencyError, SolverError
from .geometry import _damped_newton, _log_barrier, _log_unit_ball_volume

_NEWTON_TOL = 0.25
_NEWTON_MAX_STEPS = 60
_VOLUME_CHECK_EVERY = 20
_CALL_CAP = 20_000

EPS = 0.005
TAU = 0.007
DELTA_V = 0.00037
MAX_CONSTRAINTS_FACTOR = 201


@dataclass
class CutState:
    """Active cuts {z : Gz <= h}, the current interior iterate, and the
    bookkeeping the results expose."""

    g_rows: np.ndarray
    h_offs: np.ndarray
    iterate: np.ndarray
    peak_rows: int = 0
    drops: int = 0
    # Newton systems solved in recentering; recenters that ended unconverged,
    # and those of them that ran all _NEWTON_MAX_STEPS steps.
    newton_steps: int = 0
    unconverged: int = 0
    capped: int = 0

    @property
    def rows(self) -> int:
        return self.g_rows.shape[0]


@dataclass(frozen=True)
class SmallVolumeCertificate:
    """Certified claim vol(target) < vol(ball of radius 2^-level)."""

    log_volume_bound: float
    log_threshold: float


@dataclass(frozen=True)
class MinimizeResult:
    """Status "optimal_subgradient", "certified", "small_volume", "stagnated"
    or "budget" from ``vaidya_minimize``, "point" or "small_volume" from
    ``vaidya_feasibility``, and "infeasible" on the result a SolverError
    carries. ``point`` and ``value`` are the returned feasible iterate and
    its value, None when there is none; the other feasible iterates are not
    kept."""

    point: Optional[np.ndarray]
    value: Optional[float]
    oracle_calls: int
    status: str
    state: CutState
    certificate: Optional[SmallVolumeCertificate] = None


def iteration_bound(d: int, level: float, rho: float) -> int:
    """Oracle-call budget T for dimension d, precision exponent ``level``
    (target volumes below that of the 2^-level ball are certified small)
    and starting box half-width ``rho`` (natural logarithms throughout)."""
    if d < 1 or rho <= 0.0:
        raise ValueError("need d >= 1 and rho > 0")
    bracket = (
        1.4 * level
        + 2.0 * math.log(d)
        + 2.0 * math.log(1.0 + 1.0 / EPS)
        + 0.5 * math.log((1.0 + TAU) / (1.0 - EPS))
        + 2.0 * math.log(rho)
        - math.log(2.0)
    )
    return int(math.ceil(d * bracket / DELTA_V))


class _IterateOutside(NumericalError):
    """The iterate has no strict slack left on some cut, or the barrier
    Hessian there is too ill-conditioned to factor in binary64."""


def _with_room(buf: np.ndarray, k: int) -> np.ndarray:
    """``buf``, or a copy twice as long when it has no row k."""
    return buf if k < len(buf) else np.concatenate([buf, np.empty_like(buf)])


class _Engine:
    def __init__(self, d: int, rho: float):
        self.d = d
        self._g, self._h = np.vstack([np.eye(d), -np.eye(d)]), np.full(2 * d, float(rho))
        self.state = CutState(self._g[:], self._h[:], np.zeros(d), peak_rows=2 * d)
        self._memo = self._slack_memo = (None, None, None)
        self._recenter()

    # -- barrier quantities -------------------------------------------------

    def _slacks(self, x: np.ndarray) -> np.ndarray:
        """h - Gx, kept until the point object or the rows change."""
        rows = self.state.g_rows
        if self._slack_memo[0] is not x or self._slack_memo[1] is not rows:
            self._slack_memo = (x, rows, self.state.h_offs - rows @ x)
        return self._slack_memo[2]

    def _barrier(self, x: np.ndarray):
        """(w, chol, sigma) at x: the rows over their slacks, the lower
        Cholesky factor L of H = w^T w and the leverages, the squared column
        norms of L^-1 w^T (the d x d L^-1 times w^T, refined once: a solve with
        N right-hand sides runs threaded in scipy's own OpenBLAS, against
        numpy's pool); kept until the iterate object or the rows change."""
        rows = self.state.g_rows
        if self._memo[0] is x and self._memo[1] is rows:
            return self._memo[2]
        s = self._slacks(x)
        if (s <= 0.0).any():
            raise _IterateOutside("iterate left the localization polytope")
        w = rows / s[:, None]
        chol, info = dpotrf(w.T @ w, lower=1)
        if info != 0:
            raise _IterateOutside("barrier Hessian not PD at the iterate")
        linv = dtrtri(chol, lower=1)[0]
        half = linv @ w.T
        half += linv @ (w.T - chol @ half)
        self._memo = (x, rows, (w, chol, np.sum(half * half, axis=0)))
        return self._memo[2]

    def _volumetric(self, x: np.ndarray):
        """(grad V, 2Q) at x: w^T sigma, and twice Q = w^T diag(sigma) w,
        which stands in for Hess V = 3Q - 2 w^T (P*P) w, P = w H^-1 w^T, so
        that no N x N matrix is formed."""
        w, _, sigma = self._barrier(x)
        return w.T @ sigma, 2.0 * (w * sigma[:, None]).T @ w

    def _newton_step(self, x: np.ndarray):
        """Newton step on V with 2Q for its Hessian, and its decrement in 2Q."""
        self.state.newton_steps += 1
        grad, hess = self._volumetric(x)
        chol, info = dpotrf(hess, lower=1)
        if info != 0:
            raise _IterateOutside("volumetric barrier Hessian not PD")
        solved = dpotrs(chol, grad, lower=1)[0]
        return -solved, float(grad @ solved)

    def _recenter(self):
        before = self.state.newton_steps
        self.state.iterate, converged = _damped_newton(
            self.state.iterate, self._newton_step,
            lambda x: bool((self._slacks(x) > 0.0).all()),
            _NEWTON_TOL, _NEWTON_MAX_STEPS,
        )
        if not converged:
            self.state.unconverged += 1
            self.state.capped += self.state.newton_steps - before >= _NEWTON_MAX_STEPS

    # -- cut management -----------------------------------------------------

    def add_cut(self, direction: np.ndarray):
        """Add the central cut direction^T (z - x) <= 0 through the current
        iterate, then re-enter the interior and recenter."""
        x = self.state.iterate
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            raise NumericalError("oracle returned a zero cut direction")
        w_row = direction / norm
        offset = float(w_row @ x)
        chol = self._barrier(x)[1]
        u = dtrtrs(chol, w_row, lower=1)[0]
        width = math.sqrt(float(u @ u))
        if not np.isfinite(width) or width <= 0.0:
            raise NumericalError("degenerate cut direction")
        self.state.iterate = x - 0.5 * dtrtrs(chol, u, lower=1, trans=1)[0] / width
        k = self.state.rows
        self._g, self._h = _with_room(self._g, k), _with_room(self._h, k)
        self._g[k], self._h[k] = w_row, offset
        self.state.g_rows, self.state.h_offs = self._g[:k + 1], self._h[:k + 1]
        self.state.peak_rows = max(self.state.peak_rows, k + 1)
        self._recenter()

    def drop_min_leverage(self, threshold: Optional[float]) -> bool:
        """Drop the cut of smallest leverage. With a threshold, only drop
        when that leverage falls below it. The starting box rows are the
        first 2d rows, since cuts are appended after them; they are never
        dropped, so the localization stays bounded."""
        box = 2 * self.d
        if self.state.rows == box:
            return False
        sigma = self._barrier(self.state.iterate)[2][box:]
        i = int(np.argmin(sigma))
        if threshold is not None and sigma[i] >= threshold:
            return False
        k, j = self.state.rows, box + i
        self._g[j:k - 1], self._h[j:k - 1] = self._g[j + 1:k], self._h[j + 1:k]
        self.state.g_rows, self.state.h_offs = self._g[:k - 1], self._h[:k - 1]
        self.state.drops += 1
        self._recenter()
        return True

    # -- volume certificate --------------------------------------------------

    def log_volume_bound(self) -> float:
        """Upper bound on log vol of the localization polytope via the Dikin
        ellipsoid at an approximate analytic center, or +inf (no bound) when
        the log-barrier Newton decrement there exceeds 1/4."""
        newton, inside = _log_barrier(self.state.g_rows, self.state.h_offs)
        x, converged = _damped_newton(self.state.iterate, newton, inside, 1e-10, 80)
        # With E(y) = {u : u^T H(y) u <= 1}, an N-row polytope P lies in
        # x* + N E(x*) at its analytic center x* (Sonnevend). At x with
        # decrement lambda < 1, r = |x - x*|_x <= lambda / (1 - lambda) and
        # H(x*) >= (1 - r)^2 H(x) (Nesterov & Nemirovskii 1994), so P lies in
        # x + (r + N / (1 - r)) E(x). For lambda <= 1/4, r <= 1/3 and that
        # radius is at most 1/3 + 3N/2 <= 2N for N >= 1.
        if not converged and not newton(x)[1] <= 1.0 / 16.0:
            return math.inf
        # -1/2 logdet H(x) = -sum_i log L_ii for the Cholesky factor L.
        neg_half_logdet = -float(np.sum(np.log(np.diag(self._barrier(x)[1]))))
        return (self.d * math.log(2.0 * self.state.rows) + neg_half_logdet
                + _log_unit_ball_volume(self.d))


def vaidya_minimize(
    oracle: Callable[[np.ndarray], tuple],
    d: int,
    level: float,
    rho: float,
    stop: Optional[Callable[[np.ndarray], bool]] = None,
) -> MinimizeResult:
    """Minimize a convex function f over a convex target set through one
    first-order oracle, starting from the box {|z_i| <= rho}.

    ``oracle(x)`` returns (None, w) when x is outside the target set, w
    asserting that the set lies in {z : w^T (z - x) <= 0}, and (f(x), g)
    with f(x) finite and g a subgradient of f at x when x is inside. Every
    cut is checked against the feasible iterates seen so far, and only the
    first of least value is kept for the result; a zero subgradient returns
    its iterate immediately. ``stop(x)``, when given, is asked at each feasible
    iterate that lowers the best value, and the first iterate it holds at is
    returned with status "certified": the caller's own certificate ends the
    run. Without it, or while it does not hold, the run ends at small
    volume, at an iterate with no strict slack left, or at the budget, and
    returns its best iterate. Raises SolverError carrying the volume
    certificate when no feasible iterate was ever seen.
    """
    engine = _Engine(d, rho)
    budget = min(iteration_bound(d, level, rho), _CALL_CAP)
    # log vol of the 2^-level ball, the small-volume threshold
    log_threshold = -level * d * math.log(2.0) + _log_unit_ball_volume(d)
    cap = MAX_CONSTRAINTS_FACTOR * d
    seen = np.empty((1, d))  # the feasible iterates, in its first `feasible` rows
    feasible = 0
    best_point, best_value = None, math.inf
    calls = 0
    status = "budget"
    try:
        while calls < budget:
            if engine.drop_min_leverage(EPS):
                continue
            if engine.state.rows >= cap:
                # Never-dropped box rows weaken the automatic <= 201 d argument, so
                # enforce the cap directly before adding.
                if not engine.drop_min_leverage(None):
                    raise NumericalError("constraint cap reached with no droppable row")
                continue
            if calls % _VOLUME_CHECK_EVERY == 0 and calls > 0:
                if engine.log_volume_bound() < log_threshold:
                    status = "small_volume"
                    break
            x = np.array(engine.state.iterate)
            value, cut = oracle(x)
            calls += 1
            w = np.asarray(cut, dtype=float)
            if value is None:
                tol = 1e-9 * (1.0 + float(np.linalg.norm(w)))
                if np.any((seen[:feasible] - x) @ w > tol):
                    raise OracleInconsistencyError("cut excludes a previously feasible point")
            else:
                value = float(value)
                seen = _with_room(seen, feasible)
                seen[feasible] = x
                feasible += 1
                if float(np.linalg.norm(w)) == 0.0:
                    # zero subgradient: this iterate is optimal over the target set
                    return MinimizeResult(x, value, calls, "optimal_subgradient", engine.state)
                if value < best_value:
                    best_point, best_value = x, value
                    if stop is not None and stop(x):
                        return MinimizeResult(x, value, calls, "certified", engine.state)
            engine.add_cut(w)
    except _IterateOutside:
        # A cut through an optimum on the target's boundary can leave the
        # iterate with a slack that rounds to zero, or H too ill-conditioned
        # to factor; the run stops there.
        status = "stagnated"
    if feasible:
        return MinimizeResult(best_point, best_value, calls, status, engine.state)
    cert = SmallVolumeCertificate(engine.log_volume_bound(), log_threshold)
    raise SolverError(
        f"no feasible iterate found after {calls} oracle calls",
        best=MinimizeResult(None, None, calls, "infeasible", engine.state, cert),
    )


def vaidya_feasibility(
    oracle: Callable[[np.ndarray], Optional[np.ndarray]],
    d: int,
    level: float = 11.0,
    rho: float = 1.0,
) -> MinimizeResult:
    """Find a point of the target set or certify that its volume is below
    that of the 2^-level ball; the search starts from the box
    {|z_i| <= rho}.

    The oracle returns None to accept a point, or a direction w asserting
    that the target lies in {z : w^T (z - x) <= 0}. The search minimizes the
    zero function over the target set, so the first accepted point ends it
    by its zero subgradient, with status "point". A run that accepts no
    point returns status "small_volume" with the certificate, or raises
    SolverError when the certificate does not prove the claim.
    """
    zero = np.zeros(d)

    def first_order(x: np.ndarray):
        cut = oracle(x)
        return (0.0, zero) if cut is None else (None, cut)

    try:
        result = vaidya_minimize(first_order, d, level, rho)
    except SolverError as exc:
        cert = exc.best.certificate
        if not cert.log_volume_bound < cert.log_threshold:
            raise
        return replace(exc.best, status="small_volume")
    return replace(result, status="point")
