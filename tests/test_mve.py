import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import nnls
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from johnswalk.errors import (
    GeometryError,
    NumericalError,
    SolverError,
    UnboundedPolytopeError,
)
from johnswalk.geometry import (
    Ellipsoid,
    Polytope,
    SymmetricPolytope,
    analytic_center,
    symmetrize,
)
from johnswalk import mve
from johnswalk.mve import (
    ContactSet,
    JohnConditions,
    _khachiyan_ascent,
    dikin_precondition,
    dual_logdet_bound,
    extract_contacts,
    separation_oracle_mve,
    solve_mve,
    sym_dim,
    sym_to_vec,
    vec_to_sym,
    verify_john_conditions,
)
from johnswalk.vaidya import vaidya_minimize
from johnswalk.walk import _effective_gap

from conftest import (
    box,
    cross_polytope,
    cube,
    interior_points,
    random_polytope,
    random_symmetric_polytope,
    unit_normal_polytope,
)
from stats import sphere_points


def centered_body(poly):
    return symmetrize(poly, np.zeros(poly.n))


def exact_weak_dual_bound(rows, weights):
    """mve._weak_dual_bound in rational arithmetic on the binary64 inputs:
    the moment matrix and its determinant are exact, and only the final
    float conversion and log round."""
    n = rows.shape[1]
    w = [Fraction(float(x)) for x in weights]
    a = [[Fraction(float(x)) for x in row] for row in rows]
    m = [[sum(n * wi / sum(w) * ai[j] * ai[k] for wi, ai in zip(w, a)) for k in range(n)]
         for j in range(n)]
    det = Fraction(1)
    for i in range(n):  # Gaussian elimination; the moment matrix is PD
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return -0.5 * math.log(det)


def diamond_body():
    a = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return SymmetricPolytope(np.vstack([a, -a]), np.zeros(2))


class TestVectorization:
    def test_sym_dim(self):
        assert sym_dim(1) == 1
        assert sym_dim(4) == 10

    def test_round_trip(self, rng):
        g = rng.normal(size=(4, 4))
        x = g + g.T
        assert np.allclose(vec_to_sym(sym_to_vec(x), 4), x)

    def test_inner_product_preserved(self, rng):
        g1, g2 = rng.normal(size=(2, 3, 3))
        x, y = g1 + g1.T, g2 + g2.T
        assert np.isclose(
            sym_to_vec(x) @ sym_to_vec(y), np.tensordot(x, y)
        )

    def test_vector_length(self):
        assert sym_to_vec(np.eye(5)).shape == (sym_dim(5),)


def enclosing_shape(points, tol=1e-9):
    """Shape matrix S = g_max M of the minimum-volume origin-centered
    ellipsoid {x : x^T S^-1 x <= 1} enclosing {+-p_i}, from the weight
    ascent (M = R^T R); the certificate scale g_max makes it contain every
    point."""
    _, state, g_max, _, _ = _khachiyan_ascent(points, tol)
    return g_max * (state.r.T @ state.r)


class TestMveePolar:
    def test_axis_points_give_unit_ball(self):
        assert np.allclose(enclosing_shape(np.eye(3)), np.eye(3), atol=1e-7)

    def test_axis_aligned_ellipse(self):
        shape = enclosing_shape(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(shape, np.diag([4.0, 1.0]), atol=1e-7)

    def test_certificate_and_containment(self, rng):
        pts = rng.normal(size=(12, 3))
        tol = 1e-8
        shape = enclosing_shape(pts, tol=tol)
        # every point inside the enclosing ellipsoid
        norms = np.sqrt(np.einsum("ij,ji->i", pts, np.linalg.solve(shape, pts.T)))
        assert norms.max() <= 1.0 + 1e-9
        # certificate means the ellipsoid is within (1+tol)^(1/2) of optimal,
        # so at least one point is essentially on the boundary
        assert norms.max() >= (1.0 + tol) ** -0.5 - 1e-9

    def test_rank_deficient_raises(self):
        # Points on a line have an unbounded polar body: the body whose rows
        # they are says so before either route solves.
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        for method in ("oracle", "vaidya"):
            with pytest.raises(UnboundedPolytopeError, match="does not span"):
                solve_mve(SymmetricPolytope(pts, np.zeros(2)), method=method)


def dense_ascent(points, tol):
    """Reference: the weight ascent with M rebuilt from u and solved against
    every point on every iteration, as it ran before the rank-one updates."""
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    u = np.full(m, 1.0 / m)
    mat = pts.T @ (pts * u[:, None])
    for iteration in range(500_000):
        g = np.einsum("ij,ji->i", pts, np.linalg.solve(mat, pts.T))
        j_add = int(np.argmax(g))
        eps_add = g[j_add] / n - 1.0
        if eps_add <= tol:
            return u, mat, float(g[j_add]), iteration
        j_away = int(np.argmin(np.where(u > 0.0, g, np.inf)))
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
    raise AssertionError("reference ascent did not certify")


def general_position_cases():
    """(n, rows, tol) at the walk's default gap for the reduced bodies of
    random (10, 60) and (20, 120) polytopes, symmetrized at the analytic
    center and at 4 seeded interior points. The points are drawn near the
    center, where chains run: further out the default tolerance at n = 20
    sits at the binary64 floor and either ascent can spin (ROADMAP item 2)."""
    for n, m in ((10, 60), (20, 120)):
        poly = unit_normal_polytope(n, m, 11)
        points = [analytic_center(poly)] + interior_points(
            poly, 4, np.random.default_rng([n, m]), shrink=0.3
        )
        tol = _effective_gap(None, n) / (2.0 * n)
        for x in points:
            yield n, symmetrize(poly, x).distinct, tol


class TestKhachiyanAscent:
    def test_certificate_comes_from_exact_moments(self):
        for n, rows, tol in general_position_cases():
            u, state, g_max, iterations, _ = _khachiyan_ascent(rows, tol)
            assert iterations > 0
            assert_exact_certificate(rows, tol, u, state, g_max)
            assert abs(u.sum() - 1.0) <= rows.shape[0] * np.finfo(float).eps

    def test_agrees_with_dense_reference(self):
        for n, rows, tol in general_position_cases():
            _, state, g_max, iterations, _ = _khachiyan_ascent(rows, tol)
            _, mat_ref, g_ref, iterations_ref = dense_ascent(rows, tol)
            # log det M of either sits within n log(g_max / n) of the optimum.
            gaps = n * np.log(g_max / n) + n * np.log(g_ref / n)
            diff = 2.0 * mve._half_logdet(state) - np.linalg.slogdet(mat_ref)[1]
            assert abs(diff) <= gaps
            # The core start and the Newton polish cut the reference's
            # uniform start and linear tail, on every body.
            assert iterations <= 0.5 * iterations_ref

    def test_boxes_match_dense_reference_bitwise(self, rng):
        # The reduced rows of a box are orthogonal, so the uniform weights
        # certify before any update; the answer is bitwise their exact
        # recompute, and the dense reference's to rounding.
        for poly in (cube(10), box([1.0, 1.0, 1.0, 1.0, 0.01])):
            for _ in range(3):
                x = poly.b[: poly.n] * rng.uniform(0.1, 0.5, poly.n)
                rows = symmetrize(poly, x * rng.choice([-1, 1], poly.n)).distinct
                tol = _effective_gap(None, poly.n) / (2.0 * poly.n)
                u, state, g_max, iterations, _ = _khachiyan_ascent(rows, tol)
                u_ref, mat_ref, g_ref, _ = dense_ascent(rows, tol)
                assert iterations == 0
                assert np.array_equal(u, u_ref)
                assert_exact_certificate(rows, tol, u, state, g_max)
                assert abs(g_max - g_ref) <= 1e-12 * g_ref

    def test_exact_moments_raise_on_rank_deficient_weights(self, rng):
        # Weight only on two of the axis points leaves M exactly singular.
        pts = np.vstack([np.eye(3), rng.standard_normal((3, 3))])
        u = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(NumericalError, match="singular"):
            mve._exact_moments(pts, u)

    def test_singular_moments_raise(self):
        # The ascent does not test its points for a span, which is the
        # body's to decide; points on a line handed to it directly reach
        # the exact recompute, where a regularized solve would certify them.
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(NumericalError, match="singular"):
            _khachiyan_ascent(pts, 1e-9)

    def test_iteration_cap_raises(self, monkeypatch):
        # The ascent at this center takes 7 iterations.
        monkeypatch.setattr(mve, "_ASCENT_MAX_ITER", 3)
        body = _at_center(unit_normal_polytope(10, 60, 0))
        message = "did not certify tolerance .* within 3 iterations"
        with pytest.raises(SolverError, match=message) as err:
            solve_mve(body)
        assert err.value.best is None

    def test_away_step_at_low_leverage_drops_its_point(self):
        # g = (2.217, 2.217, 0.044): the third point's leverage is at most 1,
        # so the away step goes to the floor and sets its weight to exactly 0,
        # which leaves the optimum (0.5, 0.5) of the two axis points.
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]])
        u = np.array([0.45, 0.45, 0.1])
        state = mve._exact_moments(pts, u)
        assert state.g[2] <= 1.0
        u, state, iterations = mve._ascent_rounds(pts, u, state, 1e-9, 0, 1e-9)
        assert iterations == 1
        assert np.array_equal(u, [0.5, 0.5, 0.0])
        assert_exact_certificate(pts, 1e-9, u, state, float(state.g.max()))


def assert_exact_certificate(rows, tol, u, state, g_max):
    """The returned state and g_max are bitwise the exact recompute of the
    returned weights, which agrees with the dense M = P^T diag(u) P and its
    LU solve to rounding."""
    n = rows.shape[1]
    exact = mve._exact_moments(rows, u)
    for got, want in zip(state, exact):
        assert np.array_equal(got, want)
    assert exact.g.max() == g_max
    dense = rows.T @ (rows * u[:, None])
    assert np.abs(exact.r.T @ exact.r - dense).max() <= 1e-13 * np.abs(dense).max()
    g = np.einsum("ij,ji->i", rows, np.linalg.solve(dense, rows.T))
    assert np.all(np.abs(exact.g - g) <= 1e-12 * g)
    assert abs(2.0 * mve._half_logdet(exact) - np.linalg.slogdet(dense)[1]) <= 1e-13 * n
    assert g_max / n - 1.0 <= tol


class TestNewtonPolish:
    def test_certifies_within_step_cap(self, monkeypatch):
        polished = []
        polish = mve._newton_polish

        def recording(*args):
            u, state, steps = polish(*args)
            polished.append((u.copy(), state, steps))
            return u, state, steps

        monkeypatch.setattr(mve, "_newton_polish", recording)
        for n, rows, tol in general_position_cases():
            polished.clear()
            u, state, g_max, _, newton_steps = _khachiyan_ascent(rows, tol)
            # The polish ran once and the ascent returned its weights as
            # they came back, without a further ascent iteration.
            assert len(polished) == 1
            assert np.array_equal(polished[0][0], u) and polished[0][1] is state
            assert 0 < newton_steps == polished[0][2] <= n * (n + 1)
            assert_exact_certificate(rows, tol, u, state, g_max)

    def test_ascent_certifies_without_polish(self, monkeypatch):
        monkeypatch.setattr(
            mve, "_newton_polish", lambda pts, u, state, tol: (u, state, 0)
        )
        for _, rows, tol in general_position_cases():
            u, state, g_max, iterations, newton_steps = _khachiyan_ascent(rows, tol)
            assert iterations > 0
            assert newton_steps == 0
            assert_exact_certificate(rows, tol, u, state, g_max)

    def test_singular_q_leaves_polish(self):
        # p and -p give equal rows of Q, which is then exactly singular.
        pts = np.array([
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [1.0, -2.0, 0.5],
        ])
        u = np.full(6, 1.0 / 6.0)
        state = mve._exact_moments(pts, u)
        out_u, out_state, steps = mve._newton_polish(pts, u, state, 1e-12)
        assert out_u is u and out_state is state and steps == 0
        # The core start need not put both p and -p in the support, so the
        # polish may take steps here; the ascent must still certify.
        u, state, g_max, _, _ = _khachiyan_ascent(pts, 1e-12)
        assert_exact_certificate(pts, 1e-12, u, state, g_max)


def random_linear_map(n, rng):
    """An invertible map with column scales e^U(-3, 3)."""
    while True:
        t = rng.standard_normal((n, n)) * np.exp(rng.uniform(-3.0, 3.0, n))
        if np.linalg.cond(t) < 1e8:
            return t


class TestCoreStart:
    def test_support_invariant_under_linear_maps(self, rng):
        # 36 bodies, each symmetrized at the origin and at an interior point.
        for n, m in ((2, 6), (3, 9), (5, 15), (5, 30), (10, 60), (20, 120)):
            for seed in range(6):
                poly = unit_normal_polytope(n, m, seed)
                for x in [np.zeros(n)] + interior_points(poly, 1, rng, shrink=0.3):
                    rows = symmetrize(poly, x).distinct
                    u = mve._core_start(rows)
                    assert np.count_nonzero(u) == n and u.sum() == pytest.approx(1.0)
                    for _ in range(3):
                        mapped = mve._core_start(rows @ random_linear_map(n, rng))
                        assert np.array_equal(np.flatnonzero(mapped), np.flatnonzero(u))

    def test_picks_match_pivoted_qr_reference(self, rng):
        # The same 36 bodies; the reference runs the library QR wrappers.
        for n, m in ((2, 6), (3, 9), (5, 15), (5, 30), (10, 60), (20, 120)):
            for seed in range(6):
                poly = unit_normal_polytope(n, m, seed)
                for x in [np.zeros(n)] + interior_points(poly, 1, rng, shrink=0.3):
                    rows = symmetrize(poly, x).distinct
                    picks = scipy.linalg.qr(np.linalg.qr(rows)[0].T, mode="economic",
                                            pivoting=True)[2][:n]
                    assert np.array_equal(np.flatnonzero(mve._core_start(rows)),
                                          np.sort(picks))

    def test_square_point_sets_start_uniform(self, rng):
        for n in (1, 2, 5, 10):
            rows = rng.standard_normal((n, n))
            assert np.array_equal(mve._core_start(rows), np.full(n, 1.0 / n))
            u, _, _, iterations, newton_steps = _khachiyan_ascent(rows, 1e-9)
            assert np.array_equal(u, np.full(n, 1.0 / n))
            assert iterations == newton_steps == 0

    def test_halves_ascent_from_uniform_weights_at_center(self, monkeypatch):
        cases = []
        for n, m in ((10, 60), (20, 120)):
            poly = unit_normal_polytope(n, m, 11)
            rows = symmetrize(poly, analytic_center(poly)).distinct
            cases.append((rows, _effective_gap(None, n) / (2.0 * n)))
        core = [_khachiyan_ascent(rows, tol)[3] for rows, tol in cases]
        monkeypatch.setattr(
            mve, "_core_start", lambda pts: np.full(len(pts), 1.0 / len(pts))
        )
        uniform = [_khachiyan_ascent(rows, tol)[3] for rows, tol in cases]
        for ours, theirs in zip(core, uniform):
            assert ours <= 0.5 * theirs


class TestSolveMveClosedForms:
    def test_cube_identity(self):
        for n in (2, 3, 4):
            sol = solve_mve(centered_body(cube(n)), gap=1e-10)
            assert abs(sol.ellipsoid.logdet) <= 1e-8
            assert np.allclose(sol.ellipsoid.mat, np.eye(n), atol=1e-7)

    def test_box_axis_scaling(self):
        sol = solve_mve(centered_body(box([2.0, 1.0])), gap=1e-10)
        assert abs(sol.ellipsoid.logdet - np.log(2.0)) <= 1e-8
        assert np.allclose(sol.ellipsoid.mat, np.diag([2.0, 1.0]), atol=1e-7)

    def test_diamond_disk(self):
        sol = solve_mve(diamond_body(), gap=1e-9)
        assert abs(sol.ellipsoid.logdet + np.log(2.0)) <= 1e-6

    def test_vaidya_route_closed_forms(self):
        sol = solve_mve(centered_body(cube(2)), method="vaidya", gap=1e-5)
        assert sol.solver_tag == "vaidya"
        assert abs(sol.ellipsoid.logdet) <= 1e-5
        sol2 = solve_mve(diamond_body(), method="vaidya", gap=1e-5)
        assert abs(sol2.ellipsoid.logdet + np.log(2.0)) <= 1e-5

    def test_unknown_method_rejected(self):
        with pytest.raises(GeometryError):
            solve_mve(centered_body(cube(2)), method="other")

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(GeometryError):
            solve_mve(centered_body(cube(2)), gap=0.0)

    @pytest.mark.parametrize("method", ["oracle", "vaidya"])
    @pytest.mark.parametrize("gap", [np.nan, np.inf])
    def test_non_finite_gap_rejected(self, method, gap):
        # A nan gap would spin the ascent to its iteration cap; an inf gap
        # overflows the cutting-plane route's level.
        with pytest.raises(GeometryError, match="finite"):
            solve_mve(centered_body(cube(2)), method=method, gap=gap)


class TestSolveMveProperties:
    def test_feasibility_and_gap_sign(self, rng):
        for trial in range(6):
            poly = random_symmetric_polytope(3, 5, rng)
            body = centered_body(poly)
            sol = solve_mve(body, gap=1e-8)
            norms = np.linalg.norm(body.A @ sol.ellipsoid.mat, axis=1)
            assert norms.max() <= 1.0 + 1e-9
            assert 0.0 <= sol.logdet_gap <= 1e-8

    def test_factor_inside_every_row(self):
        # Rounding used to leave max_i |E a_i| a few ulp above 1 on half of
        # these bodies (seeds 0, 1, 4, 6 and 8).
        for seed in range(10):
            rng = np.random.default_rng(seed)
            normals = rng.standard_normal((9, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            body = centered_body(Polytope(normals, np.ones(9)))
            sol = solve_mve(body, gap=1e-5)
            assert np.linalg.norm(body.A @ sol.ellipsoid.mat, axis=1).max() <= 1.0
            assert 0.0 <= sol.logdet_gap <= 1e-5

    @pytest.mark.parametrize("method", ["oracle", "vaidya"])
    def test_ellipsoid_centered_at_anchor(self, method):
        x = np.array([0.3, -0.2])
        sol = solve_mve(symmetrize(cube(2), x), method=method, gap=1e-5)
        assert np.array_equal(sol.ellipsoid.center, x)

    def test_cross_solver_agreement_on_symmetrized_cube(self):
        # Before rows were merged the cutting-plane engine left its
        # localization polytope on the 3-cube's duplicate cuts. At the
        # 4-cube's center the iterate reaches the optimum X = 2I exactly
        # and later finds a slack rounded to zero; the engine then stops
        # with the best point found.
        for x in (np.zeros(3), np.full(3, 0.1), np.zeros(4)):
            body = symmetrize(cube(x.size), x)
            a = solve_mve(body, method="oracle", gap=1e-6)
            b = solve_mve(body, method="vaidya", gap=1e-5)
            diff = abs(a.ellipsoid.logdet - b.ellipsoid.logdet)
            assert diff <= a.logdet_gap + b.logdet_gap + 1e-14

    def test_both_signs_form_matches_one_row_per_pair(self, rng):
        # Listing every row next to its negation describes the same body;
        # both routes must certify the same log det within their gaps.
        general = random_polytope(2, 3, rng)
        for body in (
            symmetrize(general, interior_points(general, 1, rng)[0]),
            centered_body(random_symmetric_polytope(2, 3, rng)),
            symmetrize(box([2.0, 0.5]), np.array([0.3, -0.1])),
        ):
            both = SymmetricPolytope(np.vstack([body.A, -body.A]), body.anchor)
            for method, gap in (("oracle", 1e-9), ("vaidya", 1e-5)):
                a = solve_mve(body, method=method, gap=gap)
                b = solve_mve(both, method=method, gap=gap)
                diff = abs(a.ellipsoid.logdet - b.ellipsoid.logdet)
                assert diff <= a.logdet_gap + b.logdet_gap

    def test_cross_solver_agreement_sample(self, rng):
        for trial in range(3):
            poly = random_symmetric_polytope(3, 6, rng)
            body = centered_body(poly)
            a = solve_mve(body, method="oracle", gap=1e-6)
            b = solve_mve(body, method="vaidya", gap=1e-5)
            assert abs(a.ellipsoid.logdet - b.ellipsoid.logdet) <= 1e-4

    def test_trace_bound_when_optimum_is_ball(self, rng):
        # Normalize a random instance so its optimum becomes the unit ball;
        # any feasible factor there has tr(E^2) <= n.
        for trial in range(4):
            poly = random_symmetric_polytope(3, 5, rng)
            body = centered_body(poly)
            e_opt = solve_mve(body, gap=1e-12).ellipsoid.mat
            normalized = SymmetricPolytope(body.A @ e_opt, body.anchor)
            sol = solve_mve(normalized, gap=1e-10)
            assert np.trace(sol.ellipsoid.mat @ sol.ellipsoid.mat) <= 3 + 1e-8

    def test_affine_invariance(self, rng):
        poly = random_symmetric_polytope(3, 5, rng)
        body = centered_body(poly)
        base = solve_mve(body, gap=1e-11)
        lin = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        mapped = SymmetricPolytope(body.A @ np.linalg.inv(lin), body.anchor)
        sol = solve_mve(mapped, gap=1e-11)
        expected = base.ellipsoid.logdet + np.log(abs(np.linalg.det(lin)))
        assert np.isclose(sol.ellipsoid.logdet, expected, rtol=1e-6, atol=1e-8)

    def test_dual_bound_dominates_achieved(self, rng):
        poly = random_symmetric_polytope(4, 6, rng)
        body = centered_body(poly)
        sol = solve_mve(body, gap=1e-9)
        bound = dual_logdet_bound(body, tol=1e-9)
        assert bound >= sol.ellipsoid.logdet - 1e-12

    @pytest.mark.parametrize("method", ["oracle", "vaidya"])
    def test_unbounded_body_raises(self, method):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        for body in (SymmetricPolytope(a, np.zeros(2)),
                     symmetrize(Polytope(a, np.ones(2)), np.zeros(2))):
            with pytest.raises(UnboundedPolytopeError):
                solve_mve(body, method=method)

    def test_body_without_rows_raises(self):
        # The ascent's uniform start weights divide by the row count.
        body = symmetrize(Polytope(np.zeros((0, 2)), np.zeros(0)), np.zeros(2))
        with pytest.raises(UnboundedPolytopeError):
            solve_mve(body)

    @pytest.mark.parametrize("method", ["oracle", "vaidya"])
    def test_near_flat_body_raises_on_both_paths(self, method):
        # These rows span R^2, but their unit rows' smallest singular value,
        # 3.5e-11, is below the span test's resolution (lambda_min of the
        # unit-diagonal moment matrix above m eps): a body built directly
        # and a symmetrized one are both called unbounded, by either route.
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
        for body in (SymmetricPolytope(a, np.zeros(2)),
                     symmetrize(Polytope(a, np.ones(2)), np.zeros(2))):
            with pytest.raises(UnboundedPolytopeError):
                solve_mve(body, method=method)


@st.composite
def hard_bodies(draw, dims, shape):
    """A bounded polytope symmetrized at an interior point. The n axis rows
    bound the body and k random rows cut it; ``shape`` makes it hard:
    "scaled" scales every row by 10^U(-6, 6), "thin" makes the body thin
    along one axis with aspect ratio up to 1e6, and "parallel" adds
    near-parallel facets (rows copied, scaled by 1-2 and perturbed by 1e-9)."""
    n = draw(dims)
    k = draw(st.integers(0, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.vstack([np.eye(n), rng.standard_normal((k, n))])
    if shape == "scaled":
        exponents = draw(st.lists(st.floats(-6.0, 6.0), min_size=n + k, max_size=n + k))
        rows *= 10.0 ** np.array(exponents)[:, None]
    elif shape == "thin":
        rows[:, draw(st.integers(0, n - 1))] *= 10.0 ** draw(st.floats(0.0, 6.0))
    else:
        picked = rows[rng.integers(n + k, size=draw(st.integers(1, n + k)))]
        copies = picked * rng.uniform(1.0, 2.0, size=(picked.shape[0], 1))
        rows = np.vstack([rows, copies + 1e-9 * rng.standard_normal(copies.shape)])
    poly = Polytope(np.vstack([rows, -rows]), np.ones(2 * rows.shape[0]))
    direction = rng.standard_normal(n)
    reach = draw(st.floats(0.0, 0.9))
    return symmetrize(poly, reach * direction / np.max(poly.A @ direction))


def assert_inscribed_and_certified(body, sol, gap):
    assert np.linalg.norm(body.A @ sol.ellipsoid.mat, axis=1).max() <= 1.0
    assert 0.0 <= sol.logdet_gap <= gap


def scaled_seed7_body():
    """Seed 7 of a numpy replica of hard_bodies("scaled"): n = 5, k = 9, row
    norms from 1e-6 to 1e6, reduced rows of condition number 2.5e8."""
    rng = np.random.default_rng([2026, 7])
    n = int(rng.integers(2, 7))
    k = int(rng.integers(0, 2 * n + 1))
    rows = np.vstack([np.eye(n), rng.standard_normal((k, n))])
    rows *= 10.0 ** rng.uniform(-6.0, 6.0, n + k)[:, None]
    poly = Polytope(np.vstack([rows, -rows]), np.ones(2 * (n + k)))
    direction = rng.standard_normal(n)
    x = rng.uniform(0.0, 0.9) * direction / np.max(poly.A @ direction)
    assert (n, k) == (5, 9)
    return symmetrize(poly, x)


class TestSolveMveHardBodies:
    # Thin and badly scaled bodies hold the requested gap only because the
    # oracle route certifies, and builds its factor, from one QR of the
    # weighted rows: a second route to the factor rounds differently, and
    # the shrink that fits it inside can cost more than the gap. The span
    # test does not reject bounded bodies whose row norms span ~1e12: it
    # runs on the polytope's unit rows (test_scaled_body_spans). Failures
    # are reported unshrunk: shrinking one took over a minute.
    @pytest.mark.parametrize("shape", ["scaled", "thin", "parallel"])
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=100,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(data=st.data(), log_gap=st.floats(-12.0, -3.0))
    def test_oracle_route(self, shape, data, log_gap):
        body = data.draw(hard_bodies(st.integers(2, 6), shape))
        gap = 10.0 ** log_gap
        assert_inscribed_and_certified(body, solve_mve(body, gap=gap), gap)

    def test_scaled_body_spans(self):
        # A span test on the slack-scaled rows, not the unit rows, called
        # this bounded body unbounded. The one test runs on the unit rows,
        # whether the body was symmetrized or built directly.
        body = scaled_seed7_body()
        twin, gap = SymmetricPolytope(body.A, body.anchor), _effective_gap(None, body.n)
        for each in (body, twin):
            assert_inscribed_and_certified(each, solve_mve(each, gap=gap), gap)

    def test_scaled_body_on_the_cutting_plane_route(self):
        # The reduced rows' T has condition number 2.5e8. The factor is
        # T^-1 V L^(1/2) from the eigh of the engine's X = V L V^T: an eigh
        # of T^-1 X T^-T rounded a row at contact 10% outside and kept only
        # 1 touch direction within slack 1e-6.
        body = scaled_seed7_body()
        assert_inscribed_and_certified(body, solve_mve(body, method="vaidya", gap=1e-5), 1e-5)

    @pytest.mark.parametrize("shape", ["scaled", "thin", "parallel"])
    @settings(derandomize=True, deadline=None, max_examples=2)
    @given(data=st.data())
    def test_cutting_plane_route(self, shape, data):
        body = data.draw(hard_bodies(st.just(2), shape))
        sol = solve_mve(body, method="vaidya", gap=1e-5)
        assert_inscribed_and_certified(body, sol, 1e-5)


class TestSolveIsAFunctionOfThePoint:
    # The Metropolis filter is exact only if E_z is the same whichever state
    # proposed z: no solve may carry state into the next.
    @pytest.mark.parametrize("method", ["oracle", "vaidya"])
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: random_polytope(3, 5, np.random.default_rng(32)), id="random3x5"),
        pytest.param(lambda: cube(2), id="square"),
    ])
    def test_same_answer_after_other_solves(self, method, make):
        poly = make()
        gap = _effective_gap(None, poly.n)
        z, *others = interior_points(poly, 4, np.random.default_rng(7))

        def solve(x):
            return solve_mve(symmetrize(poly, x), method=method, gap=gap)

        first = solve(z)
        for x in others:
            solve(x)
        again = solve(z)
        assert np.array_equal(first.ellipsoid.mat, again.ellipsoid.mat)
        assert np.array_equal(first.ellipsoid.center, again.ellipsoid.center)
        assert (first.logdet_gap, first.gap) == (again.logdet_gap, again.gap)


class TestLooseGap:
    """A gap past about 1e5 once gave the cutting-plane engine a negative
    budget: it made no oracle call and raised "no feasible iterate found".
    Both routes certify such a gap at once."""

    @pytest.mark.parametrize("gap", [10.0, 1e6, 1e300])
    @pytest.mark.parametrize("method", ["oracle", "vaidya"])
    @pytest.mark.parametrize("poly", [cube(2), unit_normal_polytope(3, 9, 0)],
                             ids=["square", "rand3x9"])
    def test_both_routes_certify(self, poly, method, gap):
        body = _at_center(poly)
        assert_inscribed_and_certified(body, solve_mve(body, method=method, gap=gap), gap)


class TestUncertifiedRun:
    def test_call_cap_raises_with_the_best_answer(self, monkeypatch):
        # A run cut off by the call cap ends uncertified; its best point's
        # answer is rebuilt, checked inside every row and carried by the error.
        monkeypatch.setattr(mve._vaidya, "_CALL_CAP", 20)
        body = centered_body(cube(3))
        with pytest.raises(SolverError) as err:
            solve_mve(body, method="vaidya", gap=1e-5)
        best = err.value.best
        assert isinstance(best, mve.JohnSolution) and best.solver_tag == "vaidya"
        assert best.iterations <= 20
        assert np.linalg.norm(body.A @ best.ellipsoid.mat, axis=1).max() <= 1.0
        assert best.logdet_gap > 1e-5


def record_eigendecompositions(monkeypatch):
    """From here on, append each dsyevd call's arguments and each oracle
    answer's kind to the two lists returned."""
    calls, kinds = [], []
    dsyevd, oracle = mve.dsyevd, mve.separation_oracle_mve

    def counting(*args, **kwargs):
        calls.append(args)
        return dsyevd(*args, **kwargs)

    def answering(*args):
        ans = oracle(*args)
        kinds.append(ans.kind)
        return ans

    monkeypatch.setattr(mve, "dsyevd", counting)
    monkeypatch.setattr(mve, "separation_oracle_mve", answering)
    return calls, kinds


class TestOneEigendecompositionPerPoint:
    """A cutting-plane answer is built from the eigendecomposition the
    separation oracle made of its X, so dsyevd runs once per oracle answer
    that is not a row cut. Each built answer once decomposed X again: 59,
    138 and 429 calls for 54, 123 and 410 such answers on these bodies."""

    @pytest.mark.parametrize("n, m, gap", [(3, 9, 1e-5), (5, 15, 1e-3), (8, 24, 1e-5)])
    def test_certified_run(self, monkeypatch, n, m, gap):
        body = _at_center(unit_normal_polytope(n, m, 0))
        calls, kinds = record_eigendecompositions(monkeypatch)
        solve_mve(body, method="vaidya", gap=gap)
        assert kinds[-1] == "feasible"
        assert len(calls) == sum(kind != "constraint" for kind in kinds)

    def test_uncertified_run(self, monkeypatch):
        # The final answer of a run cut off by the call cap comes from the
        # kept oracle answer of its best point.
        monkeypatch.setattr(mve._vaidya, "_CALL_CAP", 20)
        calls, kinds = record_eigendecompositions(monkeypatch)
        with pytest.raises(SolverError):
            solve_mve(centered_body(cube(3)), method="vaidya", gap=1e-5)
        assert len(kinds) == 20
        assert len(calls) == sum(kind != "constraint" for kind in kinds)


class TestSolveMveVaidyaBreakdown:
    """Bodies whose localization polytope, run on to the engine's volume
    stop, grew too ill-conditioned to factor: the engine stopped "stagnated"
    there, after 432, 527 and 868 oracle calls on the seed-0 bodies. The
    route now stops at its first improving point that certifies the
    requested gap, long before that breakdown."""

    @pytest.mark.parametrize("n, m, gap", [(5, 15, 2e-7), (6, 18, 1e-5)])
    def test_certifies_within_five_seconds(self, n, m, gap):
        poly = unit_normal_polytope(n, m, 7)
        body = symmetrize(poly, analytic_center(poly))
        start = time.perf_counter()
        sol = solve_mve(body, method="vaidya", gap=gap)
        assert time.perf_counter() - start < 5.0
        assert sol.logdet_gap <= gap
        assert np.all(np.linalg.norm(body.A @ sol.ellipsoid.mat, axis=1) <= 1.0)

    @pytest.mark.parametrize("n, m, gap", [(5, 15, 2e-7), (6, 18, 1e-5), (8, 24, 1e-5)])
    def test_stops_certified_not_stagnated(self, monkeypatch, n, m, gap):
        results = []

        def recording(*args, **kwargs):
            results.append(vaidya_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(mve._vaidya, "vaidya_minimize", recording)
        body = _at_center(unit_normal_polytope(n, m, 0))
        sol = solve_mve(body, method="vaidya", gap=gap)
        assert [r.status for r in results] == ["certified"]
        assert sol.logdet_gap <= gap
        assert sol.iterations == results[0].oracle_calls


def _at_center(poly):
    return symmetrize(poly, analytic_center(poly))


class TestSolveMveTallBodies:
    """Bodies with m >> n at their analytic centers, where many rows nearly
    touch the optimal ellipsoid and the optimal weights are nearly
    non-unique. A Newton polish capped at 8 steps left the ascent to spin
    for 1015, 336 and 105,088 iterations on these three."""

    @pytest.mark.parametrize("n, m", [(10, 300), (20, 1000), (10, 1000)])
    def test_oracle_route_certifies_default_gap(self, n, m):
        gap = _effective_gap(None, n)
        body = _at_center(unit_normal_polytope(n, m, 0))
        sol = solve_mve(body, gap=gap)
        assert_inscribed_and_certified(body, sol, gap)
        assert sol.iterations < 1000


class TestCuttingPlaneCertificate:
    """The cutting-plane route certifies from the John weights of its own
    contact points and reaches no oracle-route function."""

    @pytest.mark.parametrize(
        "make",
        [lambda: centered_body(cube(2)), lambda: centered_body(cube(3)),
         lambda: _at_center(unit_normal_polytope(3, 9, 0))],
        ids=["square", "cube3", "rand3x9"],
    )
    def test_certifies_without_the_oracle_route(self, monkeypatch, make):
        def unreachable(*args, **kwargs):
            raise AssertionError("the cutting-plane route called the oracle route")

        for name in ("_khachiyan_ascent", "_ascent_rounds", "_newton_polish",
                     "_core_start", "dual_logdet_bound", "_solve_mve_oracle"):
            monkeypatch.setattr(mve, name, unreachable)
        body, gap = make(), 1e-5
        sol = solve_mve(body, method="vaidya", gap=gap)
        monkeypatch.undo()
        assert_inscribed_and_certified(body, sol, gap)
        # The route stops at its first answer that certifies the request, so
        # its own bound sits just under the gap: at least the true gap, read
        # from a tight dual reference, and at most what was asked.
        logdet = sol.ellipsoid.logdet
        tight = max(0.0, dual_logdet_bound(body, tol=1e-13) - logdet)
        assert tight - 1e-13 <= sol.logdet_gap <= gap
        oracle = solve_mve(body, method="oracle", gap=gap)
        assert sol.logdet_gap >= oracle.ellipsoid.logdet - logdet - 1e-12

    @pytest.mark.parametrize("seed", [7, 12, 19, 33])
    def test_dual_bound_holds_to_rounding(self, seed):
        # A log det of the formed moment matrix erred by 1.05 to 2.3 times
        # the tolerance below on these bodies' contacts. With 3 contacts in
        # R^3 the bound is the optimum to second order, so such an error put
        # it below the oracle route's answer.
        body = _at_center(unit_normal_polytope(3, 9, seed))
        sol = solve_mve(body, method="vaidya", gap=1e-5)
        rows, _, weights = mve._contact_dyads(sol.ellipsoid, body, 1e-5)
        exact = exact_weak_dual_bound(rows, weights)
        got = mve._weak_dual_bound(rows, weights)
        assert abs(got - exact) <= 16 * np.finfo(float).eps * (1.0 + abs(exact))

    def test_dual_bound_names_singular_rows(self):
        rows = np.array([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]])
        with pytest.raises(NumericalError, match="dual moment matrix is singular"):
            mve._weak_dual_bound(rows, np.ones(3))

    def test_tall_body_certifies_the_walks_default_gap(self):
        body = _at_center(unit_normal_polytope(5, 1000, 0))
        gap = _effective_gap(None, 5)
        assert_inscribed_and_certified(body, solve_mve(body, method="vaidya", gap=gap), gap)

    @pytest.mark.parametrize(
        "seed, point, gap", [(1, 1, 1e-3), (0, None, 1e-1)], ids=["off-center", "center"]
    )
    def test_loose_gap_answer_keeps_its_contacts(self, seed, point, gap):
        # At a loose gap the engine stops early and leaves these answers'
        # contacts at slacks of 1e-7 to 6e-6 from the boundary.
        poly = unit_normal_polytope(2, 6, seed)
        if point is None:
            body = _at_center(poly)
        else:
            x = interior_points(poly, 2, np.random.default_rng(5), shrink=0.5)[point]
            body = symmetrize(poly, x)
        assert_inscribed_and_certified(body, solve_mve(body, method="vaidya", gap=gap), gap)


def stop_tests(monkeypatch, body, gap):
    """Solve ``body`` on the cutting-plane route at ``gap`` and return, for
    every stop test the engine asked, (point, skipped): skipped when the test
    returned without building the answer (:func:`mve._vaidya_answer`)."""
    answer, built, calls = mve._vaidya_answer, [], []

    def counting(*args):
        built.append(args)
        return answer(*args)

    def minimize(oracle, d, level, rho, stop=None):
        def wrapped(x):
            before = len(built)
            held = stop(x)
            calls.append((x, len(built) == before))
            assert not (held and calls[-1][1])
            return held
        return vaidya_minimize(oracle, d, level, rho, stop=wrapped)

    monkeypatch.setattr(mve, "_vaidya_answer", counting)
    monkeypatch.setattr(mve._vaidya, "vaidya_minimize", minimize)
    solve_mve(body, method="vaidya", gap=gap)
    monkeypatch.undo()
    return calls


class TestStopTestSkip:
    """The stop test builds its answer only when at least n rows are near
    contact by the oracle's row values a_i^T X a_i. A skipped test must be
    one the full answer would not have certified."""

    @pytest.mark.parametrize("gap", [1e-5, 1e-3])
    @pytest.mark.parametrize("n, m", [(2, 6), (3, 9), (4, 12), (5, 15)])
    def test_skip_is_conservative(self, monkeypatch, n, m, gap):
        poly = unit_normal_polytope(n, m, 4)
        skipped = total = 0
        for x in (analytic_center(poly),
                  interior_points(poly, 1, np.random.default_rng([n, m]), shrink=0.5)[0]):
            body = symmetrize(poly, x)
            t, t_inv, image = dikin_precondition(
                SymmetricPolytope(body.distinct, body.anchor))
            calls = stop_tests(monkeypatch, body, gap)
            for point, skip in calls:
                if not skip:
                    continue
                ans = separation_oracle_mve(vec_to_sym(point, n), image)
                assert ans.kind == "feasible"
                assert mve._vaidya_answer(body, t, t_inv, ans, gap)[1] > gap
            skipped += sum(skip for _, skip in calls)
            total += len(calls)
        assert 2 * skipped >= total > 0

    def test_loose_gap_counts_every_row_near(self, monkeypatch):
        # At gap / (2n) >= 1/2 the near-contact threshold is clamped at 0;
        # unclamped, (1 - 2 gap / (2n))^2 would be 1 here.
        calls = stop_tests(monkeypatch, centered_body(cube(2)), 4.0)
        assert calls and not any(skip for _, skip in calls)


def assert_symmetrize_picks_standalone_rows(body):
    """The rows symmetrize kept from the polytope's classes are, bitwise, the
    rows the same body built directly derives from its own on first use."""
    standalone = SymmetricPolytope(body.A, body.anchor)
    assert "distinct" in vars(body) and "distinct" not in vars(standalone)
    assert np.array_equal(body.distinct, standalone.distinct)


class TestDistinctRows:
    def test_mapped_box_keeps_one_row_per_axis(self, rng):
        # Under a linear map the rows a/s_i and -a/s_j of each axis stay
        # parallel only up to rounding; the merge must still find them.
        for n in (2, 5, 10):
            lin = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
            poly = box(rng.uniform(0.01, 2.0, n))
            mapped = Polytope(poly.A @ np.linalg.inv(lin), poly.b)
            x = lin @ (0.8 * poly.b[:n] * rng.uniform(-1.0, 1.0, n))
            body = symmetrize(mapped, x)
            rows = body.distinct
            assert rows.shape == (n, n)
            assert_symmetrize_picks_standalone_rows(body)
            # the kept row of each axis is the tighter of its two facets
            norms = np.linalg.norm(body.A[:n], axis=1)
            norms_neg = np.linalg.norm(body.A[n : 2 * n], axis=1)
            kept = np.sort(np.linalg.norm(rows, axis=1))
            assert np.array_equal(kept, np.sort(np.maximum(norms, norms_neg)))

    def test_nearly_parallel_rows_stay(self):
        angle = 1e-9
        a = np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)], [0.0, 1.0]])
        body = symmetrize(Polytope(np.vstack([a, -a]), np.ones(6)), np.zeros(2))
        assert body.distinct.shape == (3, 2)
        assert_symmetrize_picks_standalone_rows(body)

    def test_no_parallel_rows_keeps_half(self, rng):
        normals = rng.standard_normal((10, 4))
        body = centered_body(Polytope(normals, np.ones(10)))
        assert body.distinct is body.A
        assert_symmetrize_picks_standalone_rows(body)

    def test_reduced_solve_matches_full_ascent(self, rng):
        # The reference runs the ascent on every row; the polar of its
        # enclosing ellipsoid is the inscribed one. Both log-dets are
        # certified, so they agree within the sum of the two gaps.
        parallel = random_polytope(3, 4, rng)
        parallel = Polytope(
            np.vstack([parallel.A, 2.0 * parallel.A[-1]]),
            np.concatenate([parallel.b, [1.5 * parallel.b[-1]]]),
        )
        for poly, x in (
            (cube(10), rng.uniform(-0.5, 0.5, 10)),
            (box([1.0, 1.0, 1.0, 1.0, 0.01]), np.array([0.2, -0.3, 0.1, 0.4, 0.003])),
            (parallel, np.zeros(3)),
        ):
            body = symmetrize(poly, x)
            assert body.distinct.shape[0] < body.rows
            assert_symmetrize_picks_standalone_rows(body)
            gap, tol = 1e-9, 1e-10
            reduced = solve_mve(body, gap=gap)
            full = -0.5 * np.linalg.slogdet(enclosing_shape(body.A, tol=tol))[1]
            allowed = reduced.logdet_gap + 0.5 * poly.n * np.log1p(tol) + 1e-12
            assert abs(reduced.ellipsoid.logdet - full) <= allowed


class TestDikinPrecondition:
    def test_cube_rows(self):
        body = centered_body(cube(2))
        _, inv, image = dikin_precondition(body)
        # The 2-cube symmetrization lists +-e_i, and each row bounds two
        # half-spaces, so H = 2 A^T A = 4I; rows of the image are +-e_i / 2,
        # so the image box is |v_i| <= 2.
        assert np.allclose(inv.T @ (2.0 * body.A.T @ body.A) @ inv, np.eye(2))
        widths = 1.0 / np.abs(image.A).max(axis=1)
        assert np.allclose(widths, 2.0)

    def test_map_is_the_triangular_factor(self, rng):
        body = centered_body(random_symmetric_polytope(3, 6, rng))
        t, inv, image = dikin_precondition(body)
        assert np.array_equal(inv, np.triu(inv)) and (inv.diagonal() > 0.0).all()
        assert np.array_equal(t, np.triu(t)) and np.allclose(t @ inv, np.eye(3))
        assert np.allclose(t.T @ t, 2.0 * body.A.T @ body.A)
        assert np.array_equal(image.A, body.A @ inv)
        assert np.allclose(inv.T @ (2.0 * body.A.T @ body.A) @ inv, np.eye(3))

    def test_ill_conditioned_rows_precondition(self):
        # The eigh of the formed 2 A^T A refused these reduced rows, of
        # condition number 2.5e8; the image rows' half-spaces sum to I.
        body = scaled_seed7_body()
        image = dikin_precondition(SymmetricPolytope(body.distinct, body.anchor))[2]
        assert np.abs(2.0 * image.A.T @ image.A - np.eye(body.n)).max() <= 1e-6

    def test_unit_ball_inside_image(self, rng):
        poly = random_symmetric_polytope(3, 6, rng)
        *_, image = dikin_precondition(centered_body(poly))
        pts = sphere_points(3, 1000, rng)
        assert np.all(image.A @ pts.T <= 1.0 + 1e-9)

    def test_image_inside_sqrt_rows_ball(self, rng):
        poly = random_symmetric_polytope(3, 6, rng)
        *_, image = dikin_precondition(centered_body(poly))
        dirs = sphere_points(3, 1000, rng)
        # boundary point along each direction
        t = 1.0 / np.max(image.A @ dirs.T, axis=0)
        boundary = dirs * t[:, None]
        assert np.all(
            np.linalg.norm(boundary, axis=1) <= np.sqrt(2 * image.rows) + 1e-9
        )

    def test_singular_hessian_raises(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(NumericalError, match="barrier Hessian .* is singular"):
            dikin_precondition(SymmetricPolytope(a, np.zeros(2)))


class TestSeparationOracle:
    def test_identity_feasible_on_cube(self):
        body = centered_body(cube(2))
        ans = separation_oracle_mve(np.eye(2), body)
        assert ans.kind == "feasible"
        assert np.allclose(vec_to_sym(ans.cut, 2), -np.eye(2))
        ans = separation_oracle_mve(np.diag([1.0, 0.75]), body)
        assert ans.kind == "feasible"
        assert np.isclose(ans.value, -np.log(0.75))

    def test_scaled_identity_violates_first_row(self):
        body = centered_body(cube(2))
        ans = separation_oracle_mve(2.0 * np.eye(2), body)
        assert ans.kind == "constraint"
        assert ans.value is None
        row = body.A[0]
        assert np.allclose(vec_to_sym(ans.cut, 2), np.outer(row, row))

    def test_small_eigenvalue_gives_psd_cut(self):
        body = centered_body(cube(2))
        x = np.diag([1.0, 1.0 / 4.0])  # second eigenvalue below 1/n = 1/2
        ans = separation_oracle_mve(x, body)
        assert ans.kind == "psd"
        cut = vec_to_sym(ans.cut, 2)
        assert np.allclose(cut, -np.outer([0.0, 1.0], [0.0, 1.0]), atol=1e-12)

    def test_asymmetric_matrix_rejected(self):
        body = centered_body(cube(2))
        with pytest.raises(GeometryError):
            separation_oracle_mve(np.array([[1.0, 0.1], [0.0, 1.0]]), body)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, entry, bad):
        body = centered_body(cube(2))
        x = np.eye(2)
        x[entry] = x[entry[::-1]] = bad
        with pytest.raises(GeometryError, match="finite"):
            separation_oracle_mve(x, body)

    def test_exactly_symmetric_matrix_skips_the_tolerance_test(self, monkeypatch):
        # np.abs runs only in the tolerance test, which an exactly symmetric
        # X, as vec_to_sym builds it, never reaches; X asymmetric by 1e-12
        # reaches it and passes.
        body, calls = centered_body(cube(2)), []
        x = vec_to_sym(sym_to_vec(np.array([[1.0, 0.3], [0.3, 0.8]])), 2)
        monkeypatch.setattr(np, "abs", lambda *a: calls.append(1) or np.absolute(*a))
        assert separation_oracle_mve(x, body).kind == "feasible"
        assert not calls
        x[0, 1] += 1e-12
        assert separation_oracle_mve(x, body).kind == "feasible"
        assert calls

    @pytest.mark.parametrize("seed", range(40))
    def test_answer_matches_eigh_reference(self, seed):
        # An oracle built on np.linalg.eigh and the three-operand einsum
        # gives the same kind of answer, and its value, cut and row values
        # agree to rounding.
        rng = np.random.default_rng([29, seed])
        n = int(rng.integers(2, 6))
        body = centered_body(unit_normal_polytope(n, 3 * n, seed))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = vec_to_sym(sym_to_vec((q * rng.uniform(0.2 / n, 2.0 / n, size=n)) @ q.T), n)
        x *= rng.uniform(0.5, 1.5) / np.einsum("ij,jk,ik->i", body.A, x, body.A).max()
        ans = separation_oracle_mve(x, body)
        rows = np.einsum("ij,jk,ik->i", body.A, x, body.A)
        vals, vecs = np.linalg.eigh(x)
        if (rows > 1.0).any():
            row = body.A[int(np.argmax(rows > 1.0))]
            assert ans.kind == "constraint"
            assert np.array_equal(ans.cut, sym_to_vec(np.outer(row, row)))
        elif vals[0] < 1.0 / n:
            assert ans.kind == "psd"
            reference = sym_to_vec(-np.outer(vecs[:, 0], vecs[:, 0]))
            assert np.abs(ans.cut - reference).max() <= 1e-12
        else:
            assert ans.kind == "feasible"
            inv = (vecs / vals) @ vecs.T
            assert ans.value == pytest.approx(-np.log(vals).sum(), rel=1e-12, abs=1e-14)
            assert np.abs(ans.cut + sym_to_vec(inv)).max() <= 1e-12 * np.abs(inv).max()
            assert np.allclose(ans.rows, rows, rtol=1e-13, atol=0.0)

    def test_constraint_cut_precedes_psd_cut(self):
        # Both a violated row and a small eigenvalue: row cut wins.
        body = centered_body(cube(2))
        ans = separation_oracle_mve(np.diag([3.0, 0.01]), body)
        assert ans.kind == "constraint"

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_feasible_answer_matches_dense_forms(self, n):
        # The feasible answer is read off the oracle's eigendecomposition:
        # value -logdet X and cut -X^-1, as slogdet and inv give them; its
        # row values are a_i^T X a_i.
        rng = np.random.default_rng([5, n])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = (q * rng.uniform(1.0 / n, 1.0, size=n)) @ q.T
        x = 0.5 * (x + x.T)
        body = centered_body(cube(n))
        ans = separation_oracle_mve(x, body)
        assert ans.kind == "feasible"
        assert ans.rows == pytest.approx(np.sum((body.A @ x) * body.A, axis=1), rel=1e-12)
        sign, logdet = np.linalg.slogdet(x)
        assert sign > 0
        assert ans.value == pytest.approx(-logdet, rel=1e-12)
        inv = np.linalg.inv(x)
        assert np.linalg.norm(vec_to_sym(ans.cut, n) + inv) <= 1e-12 * np.linalg.norm(inv)


class TestContactExtraction:
    def test_cube_pairs(self):
        for n in (2, 3):
            body = centered_body(cube(n))
            sol = solve_mve(body, gap=1e-10)
            contacts = extract_contacts(sol, body)
            assert len(contacts) == 2 * n
            assert np.allclose(contacts.weights, 0.5)
            res = verify_john_conditions(contacts)
            assert res.frobenius <= 1e-9
            assert res.weight_sum <= 1e-9
            assert res.balance <= 1e-9

    def test_diamond(self):
        body = diamond_body()
        sol = solve_mve(body, gap=1e-10)
        contacts = extract_contacts(sol, body)
        assert len(contacts) == 4
        assert np.allclose(contacts.weights, 0.5, atol=1e-7)
        assert np.isclose(contacts.weights.sum(), 2.0, atol=1e-7)

    def test_random_corpus_residuals(self, rng):
        for trial in range(5):
            poly = random_symmetric_polytope(3, 5, rng)
            body = centered_body(poly)
            sol = solve_mve(body, gap=1e-12)
            contacts = extract_contacts(sol, body)
            res = verify_john_conditions(contacts)
            assert res.frobenius <= 1e-4
            assert res.weight_sum <= 1e-4
            # balance bound from the decomposition: |sum c u| <= sqrt(n)
            assert res.balance <= np.sqrt(3)

    @pytest.mark.parametrize("method", ["oracle", "vaidya"])
    def test_nearly_parallel_rows_touch_apart(self, method):
        # A third row 1e-9 rad from e_1 touches the disk with e_1 itself;
        # body.distinct keeps the two apart, so each is a contact of its own.
        angle, gap = 1e-9, 1e-9
        a = np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)], [0.0, 1.0]])
        body = SymmetricPolytope(a, np.zeros(2))
        sol = solve_mve(body, method=method, gap=gap)
        assert sol.logdet_gap <= gap
        reach = np.linalg.norm(a @ sol.ellipsoid.mat, axis=1)
        assert np.all(1.0 - reach[:2] <= 1e-6)
        res = verify_john_conditions(extract_contacts(sol, body))
        # The cutting-plane route stops at its first certified answer, whose
        # contact weights meet the John conditions only to about sqrt(gap).
        assert max(res) <= (1e-8 if method == "oracle" else np.sqrt(gap))

    @pytest.mark.parametrize("method, gap", [("vaidya", 1e-3), ("vaidya", 1e-1),
                                             ("oracle", 1e-1)])
    def test_contacts_at_the_solved_gap(self, method, gap):
        # The contact slack follows the gap the solve was asked for. At the
        # default gap's slack of 1e-6 these answers touch in 0, 0 and 1
        # directions.
        body = _at_center(unit_normal_polytope(5, 15, 0))
        sol = solve_mve(body, method=method, gap=gap)
        assert sol.gap == gap
        assert len(extract_contacts(sol, body)) >= 2 * 5

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_design_matches_vectorized_dyads(self, monkeypatch, n):
        # The NNLS design, built in one expression, is bitwise the column
        # stack of sym_to_vec(u u^T) over the unit contact directions.
        designs = []
        real = mve._nnls
        monkeypatch.setattr(mve, "_nnls", lambda a, b: designs.append(a) or real(a, b))
        body = centered_body(unit_normal_polytope(n, 3 * n, n))
        sol = solve_mve(body, gap=1e-9)
        mve._contact_dyads(sol.ellipsoid, body, 1e-9)
        images = body.distinct @ sol.ellipsoid.mat
        norms = np.linalg.norm(images, axis=1)
        tight = np.nonzero(1.0 - norms <= max(mve._CONTACT_SLACK, 1e-9 / (2 * n)))[0]
        units = images[tight] / norms[tight, None]
        expected = np.column_stack([sym_to_vec(np.outer(u, u)) for u in units])
        assert len(designs) == 1 and np.array_equal(designs[0], expected)

    def test_rank_deficient_contact_set(self):
        body = centered_body(cube(2))
        shrunk = Ellipsoid(0.5 * np.eye(2), np.zeros(2))
        from johnswalk.mve import JohnSolution

        with pytest.raises(NumericalError, match="rank-deficient"):
            extract_contacts(
                JohnSolution(ellipsoid=shrunk, logdet_gap=0.0, solver_tag="oracle",
                             gap=1e-9),
                body,
            )

    def test_cross_polytope_weight_sum(self, rng):
        body = centered_body(cross_polytope(3))
        sol = solve_mve(body, gap=1e-10)
        contacts = extract_contacts(sol, body)
        res = verify_john_conditions(contacts)
        assert res.weight_sum <= 1e-6


def unit_dyad_design(n, k, rng):
    """The (n(n+1)/2 x k) design _contact_dyads builds: column j is
    sym_to_vec(u_j u_j^T) for a unit direction u_j, here drawn at random."""
    units = rng.standard_normal((k, n))
    units /= np.linalg.norm(units, axis=1)[:, None]
    iu, ju, w = mve._triu_indices(n)
    return (units[:, iu] * units[:, ju] * w).T


class TestNnls:
    # The package's active-set NNLS against scipy.optimize.nnls, which the
    # package no longer imports. On a full-column-rank design the optimum is
    # unique; with a nonzero residual its weights move by about
    # cond^2 * eps, so these designs are checked to be well conditioned.
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    @pytest.mark.parametrize("shape", ["fewer", "equal", "more"])
    def test_matches_scipy(self, n, shape):
        d = sym_dim(n)
        k = {"fewer": d // 2 + 1, "equal": d, "more": 2 * d}[shape]
        rng = np.random.default_rng([32, n, k])
        b = sym_to_vec(np.eye(n))
        for _ in range(5):
            a = unit_dyad_design(n, k, rng)
            x = mve._nnls(a, b)
            want, rnorm = nnls(a, b)
            assert (x >= 0.0).all()
            assert abs(np.linalg.norm(a @ x - b) - rnorm) <= 1e-13
            if k <= d:
                assert np.linalg.cond(a[:, want > 0.0]) < 100.0
                assert np.array_equal(x > 0.0, want > 0.0)
                assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_duplicated_columns(self, n):
        # A rank-deficient design: the weight of a repeated column may split
        # between its copies, but the residual is the same.
        rng = np.random.default_rng([32, n])
        a = unit_dyad_design(n, sym_dim(n) - 1, rng)
        a = np.hstack([a, a[:, :2], a[:, :1]])
        b = sym_to_vec(np.eye(n))
        x = mve._nnls(a, b)
        assert (x >= 0.0).all()
        assert abs(np.linalg.norm(a @ x - b) - nnls(a, b)[1]) <= 1e-13


class TestContactSetValidation:
    def test_non_unit_points_rejected(self):
        with pytest.raises(GeometryError):
            ContactSet(np.array([[2.0, 0.0]]), np.array([1.0]))

    @pytest.mark.parametrize("points", [[[np.nan, 0.0]], [[1.0, 0.0], [np.nan, 0.0]]],
                             ids=["alone", "beside-a-unit-row"])
    def test_nan_points_rejected(self, points):
        # A NaN norm fails every comparison, so only a test that every norm
        # is near 1 refuses it.
        with pytest.raises(GeometryError, match="unit vectors"):
            ContactSet(np.array(points), np.ones(len(points)))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(GeometryError):
            ContactSet(np.array([[1.0, 0.0]]), np.array([0.0]))


class TestVerifyJohnConditions:
    def test_cube_exact(self):
        pts = np.vstack([np.eye(3), -np.eye(3)])
        res = verify_john_conditions(ContactSet(pts, np.full(6, 0.5)))
        assert res == (0.0, 0.0, 0.0)

    def test_single_point_closed_form(self):
        for n in (2, 4):
            pts = np.zeros((1, n))
            pts[0, 0] = 1.0
            res = verify_john_conditions(ContactSet(pts, np.array([float(n)])))
            assert np.isclose(res.frobenius, np.sqrt((n - 1) ** 2 + (n - 1)))

    def test_weight_perturbation_linear(self):
        pts = np.vstack([np.eye(2), -np.eye(2)])
        base = np.full(4, 0.5)
        delta = 0.125
        bumped = base.copy()
        bumped[0] += delta
        res = verify_john_conditions(ContactSet(pts, bumped))
        assert np.isclose(res.weight_sum, delta)

    def test_residual_accessors(self):
        res = JohnConditions(1.0, 2.0, 3.0)
        assert (res.frobenius, res.weight_sum, res.balance) == (1.0, 2.0, 3.0)
