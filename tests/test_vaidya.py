import math

import numpy as np
import pytest

from johnswalk.errors import NumericalError, OracleInconsistencyError, SolverError
from johnswalk.vaidya import (
    VaidyaParams,
    _IterateOutside,
    iteration_bound,
    vaidya_feasibility,
    vaidya_minimize,
)


def ball_oracle(center, radius):
    center = np.asarray(center, dtype=float)

    def oracle(y):
        if np.linalg.norm(y - center) <= radius:
            return None
        return y - center

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
        p = VaidyaParams()
        assert p.eps == 0.005
        assert p.tau == 0.007
        assert p.delta_v == 0.00037
        assert p.max_constraints_factor == 201


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
        got = iteration_bound(d, level=level, rho=rho)
        assert got == expected
        assert got == 256829  # ~2.57e5

    def test_monotone_in_level(self):
        lo = iteration_bound(3, level=5.0, rho=2.0)
        hi = iteration_bound(3, level=9.0, rho=2.0)
        assert hi > lo

    def test_monotone_in_rho(self):
        lo = iteration_bound(3, level=8.0, rho=1.0)
        hi = iteration_bound(3, level=8.0, rho=16.0)
        assert hi > lo

    def test_params_object_used(self):
        p = VaidyaParams(level=11.0, rho=8.0)
        assert iteration_bound(3, params=p) == 256829


class TestFeasibility:
    def test_starts_at_box_center(self):
        queries = []

        def oracle(y):
            queries.append(np.array(y))
            return None

        res = vaidya_feasibility(oracle, 3, params=VaidyaParams(level=6.0, rho=5.0))
        assert res.status == "point"
        assert np.allclose(queries[0], np.zeros(3), atol=1e-12)

    def test_finds_ball_target(self, rng):
        params = VaidyaParams(level=11.0, rho=1.0)
        for trial in range(3):
            center = rng.uniform(-0.85, 0.85, size=2)
            oracle = ball_oracle(center, 0.1)
            res = vaidya_feasibility(oracle, 2, params=params)
            assert res.status == "point"
            assert oracle(res.point) is None  # oracle's own acceptance test
            assert res.oracle_calls <= iteration_bound(2, params=params)

    def test_small_target_certified(self):
        oracle = ball_oracle([0.3, -0.2], 1e-12)
        params = VaidyaParams(level=8.0, rho=1.0)
        res = vaidya_feasibility(oracle, 2, params=params)
        assert res.status == "small_volume"
        cert = res.certificate
        assert cert.log_volume_bound < cert.log_threshold
        assert cert.oracle_calls == res.oracle_calls > 0

    def test_small_target_certified_paper_mode(self):
        oracle = ball_oracle([0.1, 0.1], 1e-12)
        params = VaidyaParams(level=8.0, rho=1.0)
        res = vaidya_feasibility(oracle, 2, params=params, mode="paper")
        assert res.status == "small_volume"

    def test_constraint_cap_respected(self, rng):
        params = VaidyaParams(level=11.0, rho=1.0)
        center = rng.uniform(-0.5, 0.5, size=3)
        res = vaidya_feasibility(ball_oracle(center, 0.05), 3, params=params)
        assert res.state.peak_rows <= 201 * 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            vaidya_feasibility(ball_oracle([0.0, 0.0], 0.5), 2, mode="fast")


class TestMinimize:
    def test_zero_subgradient_returns_immediately(self):
        def f(x):
            return 1.0

        def sg(x):
            return np.zeros(2)

        res = vaidya_minimize(f, sg, box_feas_oracle(1.0), 2,
                              params=VaidyaParams(level=6.0, rho=1.0))
        assert res.status == "optimal_subgradient"
        assert np.allclose(res.point, np.zeros(2), atol=1e-12)
        assert res.oracle_calls == 1

    def test_iterate_without_slack_ends_practical_run(self):
        # The engine signals an iterate with no strict slack by type. A
        # practical run then stops with its best feasible point; paper mode
        # raises.
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

        params = VaidyaParams(level=12.0, rho=1.0)
        seen = []
        res = vaidya_minimize(f, sg, feas, 2, params=params)
        assert res.status == "stagnated"
        assert res.oracle_calls == 5
        assert res.value == min(f(x) for x in seen)
        seen.clear()
        with pytest.raises(NumericalError, match="left the localization"):
            vaidya_minimize(f, sg, feas, 2, params=params, mode="paper")

    def test_quadratic_over_box(self):
        def f(x):
            return float(x @ x)

        def sg(x):
            return 2.0 * x

        res = vaidya_minimize(f, sg, box_feas_oracle(1.0), 2,
                              params=VaidyaParams(level=12.0, rho=1.0))
        assert res.value <= 1e-3

    def test_linear_boundary_optimum(self):
        def f(x):
            return float(x[0])

        def sg(x):
            return np.array([1.0, 0.0])

        res = vaidya_minimize(f, sg, box_feas_oracle(1.0), 2,
                              params=VaidyaParams(level=12.0, rho=1.0))
        assert res.point[0] <= -1.0 + 1e-2

    def test_value_is_history_minimum(self):
        def f(x):
            return float((x[0] - 0.3) ** 2 + (x[1] - 0.1) ** 2)

        def sg(x):
            return np.array([2.0 * (x[0] - 0.3), 2.0 * (x[1] - 0.1)])

        res = vaidya_minimize(f, sg, box_feas_oracle(1.0), 2,
                              params=VaidyaParams(level=10.0, rho=1.0))
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
            vaidya_minimize(f, sg, never_feasible, 2,
                            params=VaidyaParams(level=8.0, rho=1.0))
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
            vaidya_minimize(f, sg, flaky, 2, params=VaidyaParams(level=8.0, rho=1.0))

    def test_constraint_cap_respected(self):
        def f(x):
            return float(abs(x[0] - 0.4) + abs(x[1] + 0.2))

        def sg(x):
            return np.array([np.sign(x[0] - 0.4), np.sign(x[1] + 0.2)])

        res = vaidya_minimize(f, sg, box_feas_oracle(0.9), 2,
                              params=VaidyaParams(level=11.0, rho=1.0))
        assert res.state.peak_rows <= 201 * 2
        assert res.value <= 0.05
