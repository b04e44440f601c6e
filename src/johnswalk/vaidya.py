"""Volumetric-barrier cutting-plane engine (feasibility and minimization).

The engine maintains a bounded localization polytope {z : Gz <= h} that
always contains the target set, starting from the box {|z_i| <= rho}. The
iterate is kept near the volumetric center, the minimizer of
V(z) = 1/2 logdet H(z) where H is the log-barrier Hessian. Recentering runs
the damped Newton loop of ``geometry._damped_newton`` on V, with steps
preconditioned by Q(z) = sum_i sigma_i g_i g_i^T / s_i^2 with leverage
scores sigma_i; the volume certificate below runs the same loop on the log
barrier to reach the analytic center. Each round either drops the
constraint of smallest leverage (below ``eps``) or queries the oracle and
adds the returned cut through the current iterate, backing the iterate off
by half a Dikin radius so it stays strictly interior.

The conformance constants are fixed: eps = 0.005, tau = 0.007,
delta_v = 0.00037, and at most 201 d active constraints. The iteration
budget uses natural logarithms:

    T = ceil(d * (1.4 L + 2 ln d + 2 ln(1 + 1/eps)
              + 0.5 ln((1 + tau) / (1 - eps)) + 2 ln rho - ln 2) / delta_v)

Besides exhausting that budget, the engine may certify small volume early:
at the analytic center of an N-row polytope the body lies inside the
radius-N Dikin ellipsoid (Sonnevend), so
log vol <= d log(2N) - 1/2 logdet H + log vol(B_d), with one factor 2 of
slack for the approximate center. When that bound drops below the volume of
the 2^-L ball the claim vol(target) < vol(2^-L ball) is already proved.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError, OracleInconsistencyError, SolverError
from .geometry import _damped_newton, _log_barrier

_NEWTON_TOL = 1e-9
_NEWTON_MAX_STEPS = 60
_VOLUME_CHECK_EVERY = 20
_STAGNATION_WINDOW = 50
_STAGNATION_TOL = 1e-12
_PRACTICAL_CALL_CAP = 20_000


@dataclass(frozen=True)
class VaidyaParams:
    """Engine constants. ``level`` is the precision exponent L (target
    volumes below that of the 2^-level ball are certified small) and
    ``rho`` the half-width of the starting box."""

    eps: float = 0.005
    tau: float = 0.007
    delta_v: float = 0.00037
    level: float = 11.0
    rho: float = 1.0
    max_constraints_factor: int = 201


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

    @property
    def rows(self) -> int:
        return self.g_rows.shape[0]


@dataclass(frozen=True)
class SmallVolumeCertificate:
    """Certified claim vol(target) < vol(ball of radius 2^-level)."""

    log_volume_bound: float
    log_threshold: float
    oracle_calls: int
    early: bool


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


def iteration_bound(
    d: int,
    level: Optional[float] = None,
    rho: Optional[float] = None,
    params: Optional[VaidyaParams] = None,
) -> int:
    """Oracle-call budget T for dimension d, precision exponent ``level``
    and starting box half-width ``rho`` (natural logarithms throughout)."""
    params = params or VaidyaParams()
    lvl = params.level if level is None else level
    radius = params.rho if rho is None else rho
    if d < 1 or radius <= 0.0:
        raise ValueError("need d >= 1 and rho > 0")
    bracket = (
        1.4 * lvl
        + 2.0 * math.log(d)
        + 2.0 * math.log(1.0 + 1.0 / params.eps)
        + 0.5 * math.log((1.0 + params.tau) / (1.0 - params.eps))
        + 2.0 * math.log(radius)
        - math.log(2.0)
    )
    return int(math.ceil(d * bracket / params.delta_v))


class _IterateOutside(NumericalError):
    """The iterate has no strict slack left on some cut."""


class _Engine:
    def __init__(self, d: int, params: VaidyaParams):
        self.d = d
        self.params = params
        g_rows = np.vstack([np.eye(d), -np.eye(d)])
        h_offs = np.full(2 * d, float(params.rho))
        self.state = CutState(
            g_rows=g_rows,
            h_offs=h_offs,
            permanent=np.ones(2 * d, dtype=bool),
            iterate=np.zeros(d),
            peak_rows=2 * d,
        )
        self.cap = params.max_constraints_factor * d
        self._recenter()

    # -- barrier quantities -------------------------------------------------

    def _slacks(self, x: np.ndarray) -> np.ndarray:
        return self.state.h_offs - self.state.g_rows @ x

    def _barrier_value(self, x: np.ndarray) -> float:
        s = self._slacks(x)
        if np.any(s <= 0.0):
            return math.inf
        w = self.state.g_rows / s[:, None]
        hess = w.T @ w
        try:
            chol = np.linalg.cholesky(hess)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("volumetric barrier Hessian not PD") from exc
        return float(np.sum(np.log(np.diag(chol))))

    def _leverages(self, x: np.ndarray):
        s = self._slacks(x)
        if np.any(s <= 0.0):
            raise _IterateOutside("iterate left the localization polytope")
        w = self.state.g_rows / s[:, None]
        hess = w.T @ w
        chol = cho_factor(hess, lower=True)
        half = cho_solve(chol, w.T)
        sigma = np.einsum("ij,ji->i", w, half)
        return w, chol, sigma

    def _newton_step(self, x: np.ndarray):
        """Volumetric Newton step preconditioned by Q, and its decrement."""
        w, _, sigma = self._leverages(x)
        grad = w.T @ sigma
        q_mat = (w * sigma[:, None]).T @ w
        ridge = 1e-13 * (np.trace(q_mat) / self.d + 1.0)
        try:
            step = -cho_solve(cho_factor(q_mat + ridge * np.eye(self.d), lower=True), grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("volumetric Newton system not PD") from exc
        return step, -float(grad @ step)

    def _recenter(self):
        self.state.iterate, _ = _damped_newton(
            self.state.iterate, self._newton_step, self._barrier_value,
            _NEWTON_TOL, _NEWTON_MAX_STEPS,
        )

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
        _, chol, _ = self._leverages(x)
        pull = cho_solve(chol, w_row)
        width = math.sqrt(float(w_row @ pull))
        if not np.isfinite(width) or width <= 0.0:
            raise NumericalError("degenerate cut direction")
        self.state.iterate = x - 0.5 * pull / width
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
        _, _, sigma = self._leverages(self.state.iterate)
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
        """Upper bound on log vol of the localization polytope via the
        analytic-center Dikin ellipsoid, with a factor-2 radius margin for
        center inexactness."""
        rows, offs = self.state.g_rows, self.state.h_offs
        newton, value = _log_barrier(rows, offs)
        x, _ = _damped_newton(self.state.iterate, newton, value, 1e-10, 80)
        s = offs - rows @ x
        w = rows / s[:, None]
        hess = w.T @ w
        sign, logdet = np.linalg.slogdet(hess)
        if sign <= 0:
            raise NumericalError("analytic-center Hessian not PD")
        d = self.d
        log_unit_ball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
        return d * math.log(2.0 * rows.shape[0]) - 0.5 * float(logdet) + log_unit_ball

    def log_threshold(self) -> float:
        d = self.d
        log_unit_ball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
        return -self.params.level * d * math.log(2.0) + log_unit_ball


def _run_cutting_plane(
    query: Callable[[np.ndarray], tuple],
    d: int,
    params: VaidyaParams,
    mode: str,
    max_oracle_calls: Optional[int],
):
    """Shared driver. ``query(x)`` returns ("accept", payload) to stop,
    ("cut", direction) to cut. Returns (engine, calls, outcome, payload)
    with outcome in {"accept", "small_volume", "budget", "stagnated"}."""
    if mode not in ("paper", "practical"):
        raise ValueError(f"unknown mode {mode!r}")
    engine = _Engine(d, params)
    budget = iteration_bound(d, params=params)
    if mode == "practical":
        budget = min(budget, max_oracle_calls or _PRACTICAL_CALL_CAP)
    elif max_oracle_calls is not None:
        budget = min(budget, max_oracle_calls)
    calls = 0
    barrier_trace: deque = deque(maxlen=_STAGNATION_WINDOW + 1)
    try:
        while calls < budget:
            if engine.drop_min_leverage(params.eps):
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
            barrier_trace.append(engine._barrier_value(engine.state.iterate))
            if (
                mode == "practical"
                and len(barrier_trace) > _STAGNATION_WINDOW
                and abs(barrier_trace[-1] - barrier_trace[0]) < _STAGNATION_TOL
            ):
                return engine, calls, "stagnated", None
    except _IterateOutside:
        # A cut through an optimum on the target's boundary can leave the
        # iterate with a slack that rounds to zero; practical mode stops.
        if mode == "paper":
            raise
        return engine, calls, "stagnated", None
    return engine, calls, "budget", None


def _certificate(engine: _Engine, calls: int, early: bool) -> SmallVolumeCertificate:
    return SmallVolumeCertificate(
        log_volume_bound=engine.log_volume_bound(),
        log_threshold=engine.log_threshold(),
        oracle_calls=calls,
        early=early,
    )


def vaidya_feasibility(
    oracle: Callable[[np.ndarray], Optional[np.ndarray]],
    d: int,
    params: Optional[VaidyaParams] = None,
    mode: str = "practical",
    max_oracle_calls: Optional[int] = None,
) -> FeasibilityResult:
    """Find a point of the target set or certify that its volume is below
    that of the 2^-level ball.

    The oracle returns None to accept a point, or a direction w asserting
    that the target lies in {z : w^T (z - x) <= 0}.
    """
    params = params or VaidyaParams()

    def query(x: np.ndarray):
        ans = oracle(x)
        if ans is None:
            return ("accept", x)
        return ("cut", np.asarray(ans, dtype=float))

    engine, calls, outcome, payload = _run_cutting_plane(
        query, d, params, mode, max_oracle_calls
    )
    if outcome == "accept":
        return FeasibilityResult(payload, None, calls, "point", engine.state)
    # The paper's budget is itself the certificate; otherwise the bound must
    # fall below the threshold.
    paper_budget = outcome == "budget" and mode == "paper"
    cert = _certificate(engine, calls, early=not paper_budget)
    if paper_budget or cert.log_volume_bound < cert.log_threshold:
        return FeasibilityResult(None, cert, calls, "small_volume", engine.state)
    raise SolverError(
        f"feasibility search stopped ({outcome}) after {calls} oracle calls "
        "without a point or a volume certificate"
    )


def vaidya_minimize(
    objective: Callable[[np.ndarray], float],
    subgrad: Callable[[np.ndarray], np.ndarray],
    feas_oracle: Callable[[np.ndarray], Optional[np.ndarray]],
    d: int,
    params: Optional[VaidyaParams] = None,
    mode: str = "practical",
    max_oracle_calls: Optional[int] = None,
) -> MinimizeResult:
    """Minimize a convex function over the target set described by
    ``feas_oracle`` (None = point is in the set, else a separating cut).

    Feasible iterates are recorded and the best one is returned; a zero
    subgradient returns its iterate immediately. In practical mode the run
    additionally stops once the best value has not improved by more than
    1e-12 over the last 50 feasible evaluations (the barrier-plateau rule
    alone only fires at numeric exhaustion, since the barrier grows for as
    long as cuts keep arriving). Raises SolverError carrying the volume
    certificate when no feasible iterate was ever seen.
    """
    params = params or VaidyaParams()
    history: list[tuple[np.ndarray, float]] = []
    best_val = math.inf
    feas_since_improve = 0

    def query(x: np.ndarray):
        nonlocal best_val, feas_since_improve
        cut = feas_oracle(x)
        if cut is not None:
            w = np.asarray(cut, dtype=float)
            for p, _ in history:
                if float(w @ (p - x)) > 1e-9 * (1.0 + float(np.linalg.norm(w))):
                    raise OracleInconsistencyError(
                        "cut excludes a previously feasible point"
                    )
            return ("cut", w)
        val = float(objective(x))
        history.append((x, val))
        if val < best_val - _STAGNATION_TOL:
            best_val = val
            feas_since_improve = 0
        else:
            feas_since_improve += 1
        g = np.asarray(subgrad(x), dtype=float)
        if float(np.linalg.norm(g)) == 0.0:
            return ("accept", x)
        if mode == "practical" and feas_since_improve >= _STAGNATION_WINDOW:
            return ("accept", None)
        return ("cut", g)

    engine, calls, outcome, payload = _run_cutting_plane(
        query, d, params, mode, max_oracle_calls
    )
    if outcome == "accept" and payload is not None:
        # zero subgradient: this iterate is optimal over the target set
        return MinimizeResult(payload, float(objective(payload)), history, calls,
                              "optimal_subgradient", engine.state)
    if history:
        best = min(history, key=lambda rec: rec[1])
        status = {"accept": "plateau", "small_volume": "small_volume",
                  "budget": "budget", "stagnated": "stagnated"}[outcome]
        return MinimizeResult(best[0], best[1], history, calls, status, engine.state)
    cert = _certificate(engine, calls, outcome == "small_volume")
    raise SolverError(
        f"no feasible iterate found after {calls} oracle calls",
        best=MinimizeResult(None, None, [], calls, "infeasible", engine.state, cert),
    )
