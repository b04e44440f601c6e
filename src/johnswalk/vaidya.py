"""Volumetric-barrier cutting-plane engine (feasibility and minimization).

The engine maintains a bounded localization polytope {z : Gz <= h} that
always contains the target set, starting from the box {|z_i| <= rho}. The
iterate is kept near the volumetric center, the minimizer of
V(z) = 1/2 logdet H(z) where H is the log-barrier Hessian. Recentering runs
the damped Newton loop of ``geometry._damped_newton`` on V with its exact
Hessian, without a line search; one factorization of H per iterate serves
the last Newton step, the drop test and the next cut. The volume certificate
below runs the same loop on the log barrier to reach the analytic center.
Each round either drops the constraint of smallest leverage (below
``EPS``) or queries the oracle and adds the returned cut through the
current iterate, backing the iterate off by half a Dikin radius so it stays
strictly interior.

The conformance constants are fixed module constants: EPS = 0.005,
TAU = 0.007, DELTA_V = 0.00037, and at most MAX_CONSTRAINTS_FACTOR = 201
times d active constraints. Only the precision exponent L and the starting
box half-width rho vary per problem. The paper's iteration budget uses
natural logarithms:

    T = ceil(d * (1.4 L + 2 ln d + 2 ln(1 + 1/EPS)
              + 0.5 ln((1 + TAU) / (1 - EPS)) + 2 ln rho - ln 2) / DELTA_V)

A run makes at most min(T, 20000) oracle calls, stops when an iterate has
no strict slack left, and a minimization also stops once its best value
stalls. Small volume is certified only by a bound: at the analytic center
of an N-row polytope the body lies inside the radius-N Dikin ellipsoid
(Sonnevend), so log vol <= d log(2N) - 1/2 logdet H + log vol(B_d), with
one factor 2 of slack for a point whose Newton decrement is at most 1/4.
When that bound drops below the volume of the 2^-L ball the claim
vol(target) < vol(2^-L ball) is proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, OracleInconsistencyError, SolverError
from .geometry import _damped_newton, _log_barrier, _log_unit_ball_volume

_NEWTON_TOL = 1e-9
_NEWTON_MAX_STEPS = 60
_VOLUME_CHECK_EVERY = 20
_STAGNATION_WINDOW = 50
_STAGNATION_TOL = 1e-12
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
    permanent: np.ndarray
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
    oracle_calls: int


@dataclass(frozen=True)
class FeasibilityResult:
    point: Optional[np.ndarray]
    certificate: Optional[SmallVolumeCertificate]
    oracle_calls: int
    status: str
    state: CutState


@dataclass(frozen=True)
class MinimizeResult:
    point: Optional[np.ndarray]
    value: Optional[float]
    history: list
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


class _Engine:
    def __init__(self, d: int, level: float, rho: float):
        self.d = d
        self.level = level
        g_rows = np.vstack([np.eye(d), -np.eye(d)])
        h_offs = np.full(2 * d, float(rho))
        self.state = CutState(
            g_rows=g_rows,
            h_offs=h_offs,
            permanent=np.ones(2 * d, dtype=bool),
            iterate=np.zeros(d),
            peak_rows=2 * d,
        )
        self.cap = MAX_CONSTRAINTS_FACTOR * d
        self._memo = (None, None, None)
        self._recenter()

    # -- barrier quantities -------------------------------------------------

    def _slacks(self, x: np.ndarray) -> np.ndarray:
        return self.state.h_offs - self.state.g_rows @ x

    def _barrier(self, x: np.ndarray):
        """(w, linv, half, sigma) at x: the rows over their slacks, the inverse
        Cholesky factor of H = w^T w, linv w^T and the leverage scores; kept
        and reused until the iterate object or the rows change."""
        rows = self.state.g_rows
        if self._memo[0] is x and self._memo[1] is rows:
            return self._memo[2]
        s = self._slacks(x)
        if np.any(s <= 0.0):
            raise _IterateOutside("iterate left the localization polytope")
        w = rows / s[:, None]
        try:
            linv = np.linalg.inv(np.linalg.cholesky(w.T @ w))
        except np.linalg.LinAlgError as exc:
            raise _IterateOutside("barrier Hessian not PD at the iterate") from exc
        half = linv @ w.T
        self._memo = (x, rows, (w, linv, half, np.sum(half * half, axis=0)))
        return self._memo[2]

    def _volumetric(self, x: np.ndarray):
        """(grad V, Hess V) at x: w^T sigma and w^T (3 diag(sigma) - 2 P*P) w
        with P = w H^-1 w^T, between Q = w^T diag(sigma) w and 3Q
        (Anstreicher, Math. Oper. Res. 1997)."""
        w, _, half, sigma = self._barrier(x)
        proj = half.T @ half
        hess = 3.0 * (w * sigma[:, None]).T @ w - 2.0 * w.T @ ((proj * proj) @ w)
        return w.T @ sigma, hess

    def _newton_step(self, x: np.ndarray):
        """Newton step on V with its exact Hessian, and its decrement."""
        self.state.newton_steps += 1
        grad, hess = self._volumetric(x)
        try:
            lh_inv = np.linalg.inv(np.linalg.cholesky(hess))
        except np.linalg.LinAlgError as exc:
            raise _IterateOutside("volumetric barrier Hessian not PD") from exc
        u = lh_inv @ grad
        return -(lh_inv.T @ u), float(u @ u)

    def _recenter(self):
        before = self.state.newton_steps
        self.state.iterate, converged = _damped_newton(
            self.state.iterate, self._newton_step,
            lambda x: bool(np.all(self._slacks(x) > 0.0)),
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
        _, linv, _, _ = self._barrier(x)
        u = linv @ w_row
        width = math.sqrt(float(u @ u))
        if not np.isfinite(width) or width <= 0.0:
            raise NumericalError("degenerate cut direction")
        self.state.iterate = x - 0.5 * (linv.T @ u) / width
        self.state.g_rows = np.vstack([self.state.g_rows, w_row])
        self.state.h_offs = np.append(self.state.h_offs, offset)
        self.state.permanent = np.append(self.state.permanent, False)
        self.state.peak_rows = max(self.state.peak_rows, self.state.rows)
        self._recenter()

    def drop_min_leverage(self, threshold: Optional[float]) -> bool:
        """Drop the droppable cut of smallest leverage. With a threshold,
        only drop when that leverage falls below it. The starting box rows
        are permanent so the localization stays bounded."""
        droppable = ~self.state.permanent
        if not np.any(droppable):
            return False
        _, _, _, sigma = self._barrier(self.state.iterate)
        masked = np.where(droppable, sigma, np.inf)
        i = int(np.argmin(masked))
        if threshold is not None and masked[i] >= threshold:
            return False
        self.state.g_rows = np.delete(self.state.g_rows, i, axis=0)
        self.state.h_offs = np.delete(self.state.h_offs, i)
        self.state.permanent = np.delete(self.state.permanent, i)
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
        # -1/2 logdet H(x) = sum_i log (L^-1)_ii for the Cholesky factor L.
        neg_half_logdet = float(np.sum(np.log(np.diag(self._barrier(x)[1]))))
        return (self.d * math.log(2.0 * self.state.rows) + neg_half_logdet
                + _log_unit_ball_volume(self.d))

    def log_threshold(self) -> float:
        d = self.d
        return -self.level * d * math.log(2.0) + _log_unit_ball_volume(d)


def _run_cutting_plane(
    query: Callable[[np.ndarray], tuple],
    d: int,
    level: float,
    rho: float,
):
    """Shared driver. ``query(x)`` returns ("accept", payload) to stop,
    ("cut", direction) to cut. Returns (engine, calls, outcome, payload)
    with outcome in {"accept", "small_volume", "budget", "stagnated"}."""
    engine = _Engine(d, level, rho)
    budget = min(iteration_bound(d, level, rho), _CALL_CAP)
    calls = 0
    try:
        while calls < budget:
            if engine.drop_min_leverage(EPS):
                continue
            if engine.state.rows >= engine.cap:
                # Permanent box rows weaken the automatic <= 201 d argument, so
                # enforce the cap directly before adding.
                if not engine.drop_min_leverage(None):
                    raise NumericalError("constraint cap reached with no droppable row")
                continue
            if calls % _VOLUME_CHECK_EVERY == 0 and calls > 0:
                if engine.log_volume_bound() < engine.log_threshold():
                    return engine, calls, "small_volume", None
            x = np.array(engine.state.iterate)
            outcome = query(x)
            calls += 1
            if outcome[0] == "accept":
                return engine, calls, "accept", outcome[1]
            engine.add_cut(outcome[1])
    except _IterateOutside:
        # A cut through an optimum on the target's boundary can leave the
        # iterate with a slack that rounds to zero, or H too ill-conditioned
        # to factor; the run stops there.
        return engine, calls, "stagnated", None
    return engine, calls, "budget", None


def _certificate(engine: _Engine, calls: int) -> SmallVolumeCertificate:
    return SmallVolumeCertificate(
        log_volume_bound=engine.log_volume_bound(),
        log_threshold=engine.log_threshold(),
        oracle_calls=calls,
    )


def vaidya_feasibility(
    oracle: Callable[[np.ndarray], Optional[np.ndarray]],
    d: int,
    level: float = 11.0,
    rho: float = 1.0,
) -> FeasibilityResult:
    """Find a point of the target set or certify that its volume is below
    that of the 2^-level ball; the search starts from the box
    {|z_i| <= rho}.

    The oracle returns None to accept a point, or a direction w asserting
    that the target lies in {z : w^T (z - x) <= 0}.
    """

    def query(x: np.ndarray):
        ans = oracle(x)
        if ans is None:
            return ("accept", x)
        return ("cut", np.asarray(ans, dtype=float))

    engine, calls, outcome, payload = _run_cutting_plane(query, d, level, rho)
    if outcome == "accept":
        return FeasibilityResult(payload, None, calls, "point", engine.state)
    cert = _certificate(engine, calls)
    if cert.log_volume_bound < cert.log_threshold:
        return FeasibilityResult(None, cert, calls, "small_volume", engine.state)
    raise SolverError(
        f"feasibility search stopped ({outcome}) after {calls} oracle calls "
        "without a point or a volume certificate"
    )


def vaidya_minimize(
    oracle: Callable[[np.ndarray], tuple],
    d: int,
    level: float,
    rho: float,
) -> MinimizeResult:
    """Minimize a convex function f over a convex target set through one
    first-order oracle, starting from the box {|z_i| <= rho}.

    ``oracle(x)`` returns (None, w) when x is outside the target set, w
    asserting that the set lies in {z : w^T (z - x) <= 0}, and (f(x), g)
    with g a subgradient of f at x when x is inside. Feasible iterates are
    recorded and the best one is returned; a zero subgradient returns its
    iterate immediately. The run also stops once the best value has not
    improved by more than 1e-12 over the last 50 feasible evaluations.
    Raises SolverError carrying the volume certificate when no feasible
    iterate was ever seen.
    """
    history: list[tuple[np.ndarray, float]] = []
    best_val = math.inf
    feas_since_improve = 0

    def query(x: np.ndarray):
        nonlocal best_val, feas_since_improve
        value, cut = oracle(x)
        w = np.asarray(cut, dtype=float)
        if value is None:
            tol = 1e-9 * (1.0 + float(np.linalg.norm(w)))
            for p, _ in history:
                if float(w @ (p - x)) > tol:
                    raise OracleInconsistencyError(
                        "cut excludes a previously feasible point"
                    )
            return ("cut", w)
        val = float(value)
        history.append((x, val))
        if val < best_val - _STAGNATION_TOL:
            best_val = val
            feas_since_improve = 0
        else:
            feas_since_improve += 1
        if float(np.linalg.norm(w)) == 0.0:
            return ("accept", x)
        if feas_since_improve >= _STAGNATION_WINDOW:
            return ("accept", None)
        return ("cut", w)

    engine, calls, outcome, payload = _run_cutting_plane(query, d, level, rho)
    if outcome == "accept" and payload is not None:
        # zero subgradient: this iterate is optimal over the target set
        return MinimizeResult(payload, history[-1][1], history, calls,
                              "optimal_subgradient", engine.state)
    if history:
        best = min(history, key=lambda rec: rec[1])
        status = {"accept": "plateau", "small_volume": "small_volume",
                  "budget": "budget", "stagnated": "stagnated"}[outcome]
        return MinimizeResult(best[0], best[1], history, calls, status, engine.state)
    cert = _certificate(engine, calls)
    raise SolverError(
        f"no feasible iterate found after {calls} oracle calls",
        best=MinimizeResult(None, None, [], calls, "infeasible", engine.state, cert),
    )
