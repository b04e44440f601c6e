import math

import numpy as np
import pytest

from johnswalk import vaidya
from johnswalk.errors import OracleInconsistencyError, SolverError
from johnswalk.geometry import SymmetricPolytope, symmetrize
from johnswalk.mve import (
    dikin_precondition,
    separation_oracle_mve,
    solve_mve,
    sym_dim,
    vec_to_sym,
)
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

from conftest import box, cube


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

    def test_budget_below_one_raises(self):
        # log2(4 / 1e6) + 1 made this bracket negative: a budget of no calls.
        with pytest.raises(ValueError, match="budget"):
            iteration_bound(6, math.log2(4e-6) + 1.0, 24.0)


class TestEngine:
    def test_recentering_reaches_newton_tol(self):
        engine = _Engine(2, 1.0)
        for direction in ([1.0, 0.5], [-0.3, 1.0], [0.2, -1.0]):
            engine.add_cut(np.array(direction))
            _, decrement = engine._newton_step(engine.state.iterate)
            assert 0.0 <= decrement < _NEWTON_TOL
        assert np.all(engine._slacks(engine.state.iterate) > 0.0)

    def test_hessian_matches_gradient_and_brackets_q(self, rng):
        # On a random localization polytope the exact Hess V, formed here as
        # 3Q - 2 w^T (P*P) w with P = w H^-1 w^T, is the Jacobian of
        # grad V = w^T sigma (central differences) and Q <= Hess V <= 3Q.
        # The engine steps with 2Q in its place.
        engine = _Engine(3, 1.0)
        for _ in range(6):
            engine.add_cut(rng.standard_normal(3))
        x = engine.state.iterate + 0.05 * rng.standard_normal(3)
        assert np.all(engine._slacks(x) > 0.0)
        w, chol, sigma = engine._barrier(x)
        q_mat = (w * sigma[:, None]).T @ w
        proj = w @ np.linalg.solve(chol @ chol.T, w.T)
        exact = 3.0 * q_mat - 2.0 * w.T @ ((proj * proj) @ w)
        step = 1e-6
        jac = np.column_stack([
            (engine._volumetric(x + step * e)[0] - engine._volumetric(x - step * e)[0])
            / (2.0 * step)
            for e in np.eye(3)
        ])
        assert np.allclose(jac, exact, rtol=1e-6, atol=1e-6 * np.abs(exact).max())
        assert np.allclose(engine._volumetric(x)[1], 2.0 * q_mat, rtol=1e-12, atol=0.0)
        l_inv = np.linalg.inv(np.linalg.cholesky(q_mat))
        ratio = np.linalg.eigvalsh(l_inv @ exact @ l_inv.T)
        assert ratio[0] >= 1.0 - 1e-10 and ratio[-1] <= 3.0 + 1e-10

    def test_factored_algebra_matches_dense_references(self, rng):
        # The engine solves through Cholesky factors; on the random 3-d
        # localization polytope above every quantity matches its dense form.
        engine = _Engine(3, 1.0)
        for _ in range(6):
            engine.add_cut(rng.standard_normal(3))
        x = engine.state.iterate + 0.05 * rng.standard_normal(3)
        grad, hess = engine._volumetric(x)
        step, decrement = engine._newton_step(x)
        reference = -np.linalg.solve(hess, grad)
        assert np.allclose(step, reference, rtol=1e-10, atol=0.0)
        assert decrement == pytest.approx(-(grad @ reference), rel=1e-10)
        w, chol, sigma = engine._barrier(x)
        gram = w.T @ w
        assert np.allclose(sigma, np.diag(w @ np.linalg.inv(gram) @ w.T), rtol=1e-10, atol=0.0)
        assert np.allclose(chol @ chol.T, gram, rtol=1e-10, atol=1e-10 * np.abs(gram).max())
        newton, inside = vaidya._log_barrier(engine.state.g_rows, engine.state.h_offs)
        center, _ = vaidya._damped_newton(engine.state.iterate, newton, inside, 1e-10, 80)
        w_c = engine._barrier(center)[0]
        _, logdet = np.linalg.slogdet(w_c.T @ w_c)
        expected = (3 * math.log(2.0 * engine.state.rows) - 0.5 * logdet
                    + vaidya._log_unit_ball_volume(3))
        assert engine.log_volume_bound() == pytest.approx(expected, rel=1e-10)

    def test_cut_buffers_match_stacked_rows(self):
        # The engine keeps its cuts in buffers that grow by doubling; its
        # rows must equal, bitwise, rows kept by np.vstack and np.delete.
        rng = np.random.default_rng(17)
        d, box = 3, 6
        engine = _Engine(d, 1.0)
        g_rows, h_offs = engine.state.g_rows.copy(), engine.state.h_offs.copy()
        for _ in range(48):
            if rng.random() < 0.7 or engine.state.rows == box:
                direction, x = rng.standard_normal(d), engine.state.iterate
                w_row = direction / float(np.linalg.norm(direction))
                g_rows = np.vstack([g_rows, w_row])
                h_offs = np.append(h_offs, float(w_row @ x))
                engine.add_cut(direction)
            else:
                sigma = engine._barrier(engine.state.iterate)[2][box:]
                i = box + int(np.argmin(sigma))
                g_rows, h_offs = np.delete(g_rows, i, axis=0), np.delete(h_offs, i)
                assert engine.drop_min_leverage(math.inf)
            assert np.array_equal(engine.state.g_rows, g_rows)
            assert np.array_equal(engine.state.h_offs, h_offs)
        assert engine.state.peak_rows > 4 * d

    def test_drop_updates_the_barrier_memo(self):
        # A drop at an unchanged iterate updates the barrier memo (H less one
        # dyad, its factor, Sherman-Morrison leverages) in place of a rebuild;
        # after runs of one to four drops the memo matches a fresh _barrier.
        rng = np.random.default_rng(31)
        d, box = 3, 6
        engine = _Engine(d, 1.0)
        drops = 0
        for _ in range(12):
            for _ in range(rng.integers(3, 7)):
                engine.add_cut(rng.standard_normal(d))
            for _ in range(min(rng.integers(1, 5), engine.state.rows - box)):
                assert engine.drop_min_leverage(math.inf)
                drops += 1
                x, memo = engine.state.iterate, engine._memo
                assert memo[0] is x and memo[1] is engine.state.g_rows
                engine._memo = (None, None, None, None)
                fresh = engine._barrier(x)
                for kept, rebuilt in zip(memo[2], fresh):
                    assert np.allclose(kept, rebuilt, rtol=1e-10,
                                       atol=1e-10 * np.abs(rebuilt).max())
                assert np.allclose(memo[3], engine._memo[3], rtol=1e-10, atol=0.0)
                engine._memo = memo
        assert drops > 20 and engine.state.peak_rows > 4 * d

    def test_drop_leaves_the_iterate(self, rng):
        # A drop removes a row and nothing else: the iterate object stays and
        # no Newton system is solved; the next cut recenters from it.
        engine = _Engine(3, 1.0)
        for _ in range(6):
            engine.add_cut(rng.standard_normal(3))
        x, steps, rows = engine.state.iterate, engine.state.newton_steps, engine.state.rows
        assert engine.drop_min_leverage(math.inf)
        assert engine.state.iterate is x and engine.state.newton_steps == steps
        assert engine.state.rows == rows - 1 and engine.state.drops == 1
        engine.add_cut(rng.standard_normal(3))
        assert engine.state.newton_steps > steps

    def test_singular_barrier_hessian_leaves_iterate(self):
        # Rows +-e_1 only: H = w^T w is singular, and its factor fails.
        engine = _Engine(2, 1.0)
        engine.state.g_rows = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(_IterateOutside, match="^barrier Hessian not PD"):
            engine._barrier(engine.state.iterate)

    def test_indefinite_volumetric_hessian_leaves_iterate(self, monkeypatch):
        engine = _Engine(2, 1.0)
        monkeypatch.setattr(engine, "_volumetric",
                            lambda x: (np.ones(2), np.diag([1.0, -1.0])))
        with pytest.raises(_IterateOutside, match="volumetric barrier Hessian not PD"):
            engine._newton_step(engine.state.iterate)

    @pytest.mark.parametrize("widths, point", [
        pytest.param(np.ones(2), np.zeros(2), id="square"),
        pytest.param(np.ones(3), np.zeros(3), id="cube3"),
        pytest.param(np.ones(4), np.zeros(4), id="cube4"),
        pytest.param(np.ones(5), np.full(5, 0.1), id="cube5-off-center"),
        pytest.param(np.ones(6), np.zeros(6), id="cube6"),
    ])
    def test_no_recenter_reaches_step_cap_on_boxes(self, monkeypatch, widths, point):
        # Box solves end neither with a recenter at the step cap nor by
        # running the engine to its oracle-call budget.
        results = []

        def recording(*args, **kwargs):
            results.append(vaidya_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(vaidya, "vaidya_minimize", recording)
        solve_mve(symmetrize(box(widths), point), method="vaidya", gap=1e-5)
        result = results[0]
        assert result.state.newton_steps > 0
        assert result.state.capped == 0
        assert result.status != "budget"
        assert result.oracle_calls < 2000

    def test_off_center_point_gives_no_certificate(self, monkeypatch):
        # Certify only at a point whose log-barrier Newton decrement is at
        # most 1/4; with Newton unable to move, the square's center certifies
        # and a point 0.9 from it does not.
        monkeypatch.setattr(vaidya, "_damped_newton", lambda x, *_: (x, False))
        engine = _Engine(2, 1.0)
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
        assert res.oracle_calls > 0

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

    def test_value_is_least_feasible_value(self):
        values = []

        def f(x):
            values.append(float((x[0] - 0.3) ** 2 + (x[1] - 0.1) ** 2))
            return values[-1]

        def sg(x):
            return np.array([2.0 * (x[0] - 0.3), 2.0 * (x[1] - 0.1)])

        res = vaidya_minimize(first_order(f, sg, box_feas_oracle(1.0)), 2, 10.0, 1.0)
        assert len(values) > 1 and res.value == min(values)

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

    @pytest.mark.parametrize("excluded", [0, 2], ids=["first", "last"])
    def test_cut_excluding_one_stored_point_detected(self, excluded):
        # Three feasible iterates, then a cut that excludes only one of them.
        subgradients = np.array([[1.0, 0.3, -0.2], [-0.2, 1.0, 0.5], [0.4, -0.1, 1.0]])
        seen = []

        def oracle(x):
            if len(seen) < 3:
                seen.append(x)
                return 0.0, subgradients[len(seen) - 1]
            offsets = np.array(seen) - x
            target = np.where(np.arange(3) == excluded, 1.0, -1.0)
            w = np.linalg.solve(offsets, target)
            assert np.allclose(offsets @ w, target)
            return None, w

        with pytest.raises(OracleInconsistencyError):
            vaidya_minimize(oracle, 3, 8.0, 1.0)
        assert len(seen) == 3

    @pytest.mark.parametrize("excluded", [0, 8], ids=["first", "last"])
    def test_cut_excluding_one_point_of_a_long_history_detected(self, excluded):
        # Nine feasible iterates, more than the first capacities of the
        # engine's store of feasible points, then a cut that excludes only
        # one of them; in R^10 the nine offsets leave such a cut to solve for.
        rng = np.random.default_rng(23)
        seen = []

        def oracle(x):
            if len(seen) < 9:
                seen.append(x)
                return 0.0, rng.standard_normal(10)
            offsets = np.array(seen) - x
            target = np.where(np.arange(9) == excluded, 1.0, -1.0)
            w = np.linalg.lstsq(offsets, target, rcond=None)[0]
            assert np.allclose(offsets @ w, target)
            return None, w

        with pytest.raises(OracleInconsistencyError):
            vaidya_minimize(oracle, 10, 8.0, 1.0)
        assert len(seen) == 9

    def test_box_rows_stay_first_after_drops(self):
        # drop_min_leverage takes the starting box for the first 2d rows.
        def f(x):
            return float((x - 0.1) @ (x - 0.1))

        def sg(x):
            return 2.0 * (x - 0.1)

        res = vaidya_minimize(first_order(f, sg, box_feas_oracle(0.9)), 3, 10.0, 1.5)
        assert res.state.drops > 0
        assert np.array_equal(res.state.g_rows[:6], np.vstack([np.eye(3), -np.eye(3)]))
        assert np.array_equal(res.state.h_offs[:6], np.full(6, 1.5))

    def test_constraint_cap_respected(self):
        def f(x):
            return float(abs(x[0] - 0.4) + abs(x[1] + 0.2))

        def sg(x):
            return np.array([np.sign(x[0] - 0.4), np.sign(x[1] + 0.2)])

        res = vaidya_minimize(first_order(f, sg, box_feas_oracle(0.9)), 2, 11.0, 1.0)
        assert res.state.peak_rows <= 201 * 2
        assert res.value <= 0.05



def cube_mve_program(n, gap=1e-5):
    """The log-det program that the cutting-plane route hands the engine for
    the n-cube at ``gap``: (oracle, d, level, rho). The oracle keeps every
    query as (point, value), value None at an infeasible point."""
    body = symmetrize(cube(n), np.zeros(n))
    image = dikin_precondition(SymmetricPolytope(body.distinct, body.anchor))[2]
    queries = []

    def oracle(v):
        ans = separation_oracle_mve(vec_to_sym(v, n), image)
        queries.append((v, ans.value))
        return ans.value, ans.cut

    oracle.queries = queries
    return oracle, sym_dim(n), np.log2(4.0 / gap) + 1.0, float(2 * image.rows)


class TestStop:
    def test_never_holding_stop_changes_nothing(self, monkeypatch):
        # A given stop also turns the small-volume check off (the square's
        # plain run ends at small volume after 80 calls); with that check
        # off in the plain run too, a stop that never holds changes nothing.
        monkeypatch.setattr(vaidya, "_VOLUME_CHECK_EVERY", vaidya._CALL_CAP + 1)
        plain = vaidya_minimize(*cube_mve_program(2))
        asked = []
        never = vaidya_minimize(*cube_mve_program(2), stop=lambda x: asked.append(x) or False)
        assert asked
        assert never.oracle_calls == plain.oracle_calls
        assert np.array_equal(never.point, plain.point)
        assert never.status == plain.status
        assert never.state.newton_steps == plain.state.newton_steps

    def test_given_stop_skips_the_small_volume_check(self, monkeypatch):
        # On the mve route only a certified end returns, so a run given a
        # stop never bounds the volume; a run without one bounds it before
        # every _VOLUME_CHECK_EVERY-th oracle call.
        bound, checked = _Engine.log_volume_bound, []

        def counting(engine):
            checked.append(len(program[0].queries))
            return bound(engine)

        monkeypatch.setattr(_Engine, "log_volume_bound", counting)
        program = cube_mve_program(2)
        never = vaidya_minimize(*program, stop=lambda x: False)
        assert checked == [] and never.status != "small_volume"
        program = cube_mve_program(2)
        plain = vaidya_minimize(*program)
        every = vaidya._VOLUME_CHECK_EVERY
        assert plain.status == "small_volume"
        assert checked == list(range(every, plain.oracle_calls + 1, every))

    def test_asked_only_at_improving_feasible_iterates(self):
        # On the 3-cube 8 of the 119 feasible iterates do not improve.
        program = cube_mve_program(3)
        asked = []
        vaidya_minimize(*program, stop=lambda x: asked.append(x) or False)
        feasible = [(x, value) for x, value in program[0].queries if value is not None]
        best, improving = math.inf, []
        for x, value in feasible:
            if value < best:
                best = value
                improving.append(x)
        assert 0 < len(improving) < len(feasible)
        assert len(asked) == len(improving)
        assert all(a is b for a, b in zip(asked, improving))

    @pytest.mark.parametrize("k", [1, 4])
    def test_first_holding_call_ends_the_run(self, k):
        program = cube_mve_program(2)
        queries = program[0].queries
        asked = []

        def stop(x):
            asked.append((x, len(queries)))
            return len(asked) == k

        res = vaidya_minimize(*program, stop=stop)
        point, calls = asked[-1]
        assert len(asked) == k
        assert res.status == "certified"
        assert res.point is point is queries[-1][0]
        assert res.value == queries[-1][1]
        assert res.oracle_calls == calls == len(queries)
