import math

import numpy as np
import pytest

from johnswalk import vaidya
from johnswalk.errors import OracleInconsistencyError, SolverError
from johnswalk.geometry import symmetrize
from johnswalk.mve import solve_mve
from johnswalk.vaidya import (
    _NEWTON_TOL,
    DELTA_V,
    EPS,
    MAX_CONSTRAINTS_FACTOR,
    TAU,
    _Engine,
    _IterateOutside,
    iteration_bound,
    vaidya_feasibility,
    vaidya_minimize,
)

from conftest import box


def ball_oracle(center, radius):
    center = np.asarray(center, dtype=float)

    def oracle(y):
        if np.linalg.norm(y - center) <= radius:
            return None
        return y - center

    return oracle


def first_order(f, sg, feas):
    """One first-order oracle from a membership oracle ``feas`` (None or a
    cut), an objective f and its subgradient sg."""

    def oracle(x):
        cut = feas(x)
        if cut is not None:
            return None, cut
        return f(x), sg(x)

    return oracle


def box_feas_oracle(half_width):
    def oracle(x):
        j = int(np.argmax(np.abs(x)))
        if abs(x[j]) <= half_width:
            return None
        w = np.zeros(x.size)
        w[j] = np.sign(x[j])
        return w

    return oracle


class TestParams:
    def test_defaults(self):
        assert EPS == 0.005
        assert TAU == 0.007
        assert DELTA_V == 0.00037
        assert MAX_CONSTRAINTS_FACTOR == 201


class TestIterationBound:
    def test_formula_reevaluation(self):
        # Independent inline evaluation of the ceiling formula.
        d, level, rho = 3, 11.0, 8.0
        eps, tau, dv = 0.005, 0.007, 0.00037
        bracket = (
            1.4 * level
            + 2.0 * math.log(d)
            + 2.0 * math.log(1.0 + 1.0 / eps)
            + 0.5 * math.log((1.0 + tau) / (1.0 - eps))
            + 2.0 * math.log(rho)
            - math.log(2.0)
        )
        expected = math.ceil(d * bracket / dv)
        got = iteration_bound(d, level, rho)
        assert got == expected
        assert got == 256829  # ~2.57e5

    def test_monotone_in_level(self):
        lo = iteration_bound(3, 5.0, 2.0)
        hi = iteration_bound(3, 9.0, 2.0)
        assert hi > lo

    def test_monotone_in_rho(self):
        lo = iteration_bound(3, 8.0, 1.0)
        hi = iteration_bound(3, 8.0, 16.0)
        assert hi > lo

    def test_keyword_arguments(self):
        assert iteration_bound(3, rho=8.0, level=11.0) == 256829


class TestEngine:
    def test_recentering_reaches_newton_tol(self):
        engine = _Engine(2, 11.0, 1.0)
        for direction in ([1.0, 0.5], [-0.3, 1.0], [0.2, -1.0]):
            engine.add_cut(np.array(direction))
            _, decrement = engine._newton_step(engine.state.iterate)
            assert 0.0 <= decrement < _NEWTON_TOL
        assert np.all(engine._slacks(engine.state.iterate) > 0.0)

    def test_hessian_matches_gradient_and_brackets_q(self, rng):
        # On a random localization polytope, Hess V is the Jacobian of
        # grad V = w^T sigma (central differences) and Q <= Hess V <= 3Q.
        engine = _Engine(3, 11.0, 1.0)
        for _ in range(6):
            engine.add_cut(rng.standard_normal(3))
        x = engine.state.iterate + 0.05 * rng.standard_normal(3)
        assert np.all(engine._slacks(x) > 0.0)
        grad, hess = engine._volumetric(x)
        step = 1e-6
        jac = np.column_stack([
            (engine._volumetric(x + step * e)[0] - engine._volumetric(x - step * e)[0])
            / (2.0 * step)
            for e in np.eye(3)
        ])
        assert np.allclose(jac, hess, rtol=1e-6, atol=1e-6 * np.abs(hess).max())
        w, _, _, sigma = engine._barrier(x)
        q_mat = (w * sigma[:, None]).T @ w
        l_inv = np.linalg.inv(np.linalg.cholesky(q_mat))
        ratio = np.linalg.eigvalsh(l_inv @ hess @ l_inv.T)
        assert ratio[0] >= 1.0 - 1e-10 and ratio[-1] <= 3.0 + 1e-10

    @pytest.mark.parametrize("widths", [np.ones(2), np.ones(3)], ids=["square", "cube3"])
    def test_no_recenter_reaches_step_cap_on_boxes(self, monkeypatch, widths):
        # The benchmark's cutting-plane solves at the centers of the square
        # and the 3-cube, where the Q-preconditioned step used to stall at
        # the rounding floor until the cap.
        results = []

        def recording(*args, **kwargs):
            results.append(vaidya_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(vaidya, "vaidya_minimize", recording)
        poly = box(widths)
        solve_mve(symmetrize(poly, np.zeros(widths.size)), method="vaidya", gap=1e-5)
        state = results[0].state
        assert state.newton_steps > 0
        assert state.capped == 0

    def test_off_center_point_gives_no_certificate(self, monkeypatch):
        # Certify only at a point whose log-barrier Newton decrement is at
        # most 1/4; with Newton unable to move, the square's center certifies
        # and a point 0.9 from it does not.
        monkeypatch.setattr(vaidya, "_damped_newton", lambda x, *_: (x, False))
        engine = _Engine(2, 11.0, 1.0)
        assert np.isfinite(engine.log_volume_bound())
        engine.state.iterate = np.array([0.9, 0.0])
        assert engine.log_volume_bound() == math.inf


class TestFeasibility:
    def test_starts_at_box_center(self):
        queries = []

        def oracle(y):
            queries.append(np.array(y))
            return None

        res = vaidya_feasibility(oracle, 3, level=6.0, rho=5.0)
        assert res.status == "point"
        assert np.allclose(queries[0], np.zeros(3), atol=1e-12)

    def test_finds_ball_target(self, rng):
        params = dict(level=11.0, rho=1.0)
        for trial in range(3):
            center = rng.uniform(-0.85, 0.85, size=2)
            oracle = ball_oracle(center, 0.1)
            res = vaidya_feasibility(oracle, 2, **params)
            assert res.status == "point"
            assert oracle(res.point) is None  # oracle's own acceptance test
            assert res.oracle_calls <= iteration_bound(2, **params)

    def test_small_target_certified(self):
        oracle = ball_oracle([0.3, -0.2], 1e-12)
        res = vaidya_feasibility(oracle, 2, level=8.0, rho=1.0)
        assert res.status == "small_volume"
        cert = res.certificate
        assert cert.log_volume_bound < cert.log_threshold
        assert cert.oracle_calls == res.oracle_calls > 0

    def test_constraint_cap_respected(self, rng):
        center = rng.uniform(-0.5, 0.5, size=3)
        res = vaidya_feasibility(ball_oracle(center, 0.05), 3, level=11.0, rho=1.0)
        assert res.state.peak_rows <= 201 * 3


class TestMinimize:
    def test_zero_subgradient_returns_immediately(self):
        def f(x):
            return 1.0

        def sg(x):
            return np.zeros(2)

        res = vaidya_minimize(first_order(f, sg, box_feas_oracle(1.0)), 2, 6.0, 1.0)
        assert res.status == "optimal_subgradient"
        assert np.allclose(res.point, np.zeros(2), atol=1e-12)
        assert res.oracle_calls == 1

    def test_iterate_without_slack_ends_practical_run(self):
        # The engine signals an iterate with no strict slack by type. The
        # run then stops with its best feasible point.
        target = np.array([0.3, -0.2])

        def f(x):
            return float((x - target) @ (x - target))

        def sg(x):
            return 2.0 * (x - target)

        def feas(x):
            if len(seen) == 5:
                raise _IterateOutside("iterate left the localization polytope")
            seen.append(x)
            return None

        seen = []
        res = vaidya_minimize(first_order(f, sg, feas), 2, 12.0, 1.0)
        assert res.status == "stagnated"
        assert res.oracle_calls == 5
        assert res.value == min(f(x) for x in seen)

    def test_quadratic_over_box(self):
        def f(x):
            return float(x @ x)

        def sg(x):
            return 2.0 * x

        res = vaidya_minimize(first_order(f, sg, box_feas_oracle(1.0)), 2, 12.0, 1.0)
        assert res.value <= 1e-3

    def test_linear_boundary_optimum(self):
        def f(x):
            return float(x[0])

        def sg(x):
            return np.array([1.0, 0.0])

        res = vaidya_minimize(first_order(f, sg, box_feas_oracle(1.0)), 2, 12.0, 1.0)
        assert res.point[0] <= -1.0 + 1e-2

    def test_value_is_history_minimum(self):
        def f(x):
            return float((x[0] - 0.3) ** 2 + (x[1] - 0.1) ** 2)

        def sg(x):
            return np.array([2.0 * (x[0] - 0.3), 2.0 * (x[1] - 0.1)])

        res = vaidya_minimize(first_order(f, sg, box_feas_oracle(1.0)), 2, 10.0, 1.0)
        replay = min(v for _, v in res.history)
        assert res.value == replay

    def test_infeasible_raises_with_certificate(self):
        def never_feasible(x):
            return ball_oracle([0.2, 0.2], 1e-12)(x)

        def f(x):
            return 0.0

        def sg(x):
            return np.ones(2)

        with pytest.raises(SolverError) as exc_info:
            vaidya_minimize(first_order(f, sg, never_feasible), 2, 8.0, 1.0)
        best = exc_info.value.best
        assert best is not None and best.certificate is not None

    def test_inconsistent_cut_detected(self):
        calls = {"count": 0}

        def flaky(x):
            calls["count"] += 1
            if calls["count"] == 1:
                return None  # accepts the origin
            return -x  # asserts the set lies in {z : -x.(z - x) <= 0},
            # which excludes the origin since -x.(0 - x) = |x|^2 > 0

        def f(x):
            return float(x @ x)

        def sg(x):
            return 2.0 * x if x @ x > 1e-30 else np.array([1.0, 0.0])

        with pytest.raises(OracleInconsistencyError):
            vaidya_minimize(first_order(f, sg, flaky), 2, 8.0, 1.0)

    def test_constraint_cap_respected(self):
        def f(x):
            return float(abs(x[0] - 0.4) + abs(x[1] + 0.2))

        def sg(x):
            return np.array([np.sign(x[0] - 0.4), np.sign(x[1] + 0.2)])

        res = vaidya_minimize(first_order(f, sg, box_feas_oracle(0.9)), 2, 11.0, 1.0)
        assert res.state.peak_rows <= 201 * 2
        assert res.value <= 0.05
