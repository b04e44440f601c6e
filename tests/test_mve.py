import time

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from johnswalk.errors import (
    GeometryError,
    NumericalError,
    UnboundedPolytopeError,
)
from johnswalk.geometry import (
    Ellipsoid,
    Polytope,
    SymmetricPolytope,
    analytic_center,
    sphere_points,
    symmetrize,
)
from johnswalk import mve
from johnswalk.mve import (
    ContactSet,
    JohnConditions,
    _distinct_rows,
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


def centered_body(poly):
    return symmetrize(poly, np.zeros(poly.n))


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
    ascent; the certificate scale g_max makes it contain every point."""
    _, mat, g_max, _, _ = _khachiyan_ascent(points, tol)
    return g_max * mat


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
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(UnboundedPolytopeError):
            enclosing_shape(pts)


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
            yield n, _distinct_rows(symmetrize(poly, x)), tol


class TestKhachiyanAscent:
    def test_certificate_comes_from_exact_moments(self):
        for n, rows, tol in general_position_cases():
            u, mat, g_max, iterations, _ = _khachiyan_ascent(rows, tol)
            assert iterations > 0
            exact = rows.T @ (rows * u[:, None])
            assert np.array_equal(mat, exact)
            g = np.einsum("ij,ji->i", rows, np.linalg.solve(exact, rows.T))
            assert g.max() == g_max
            assert g_max / n - 1.0 <= tol
            assert abs(u.sum() - 1.0) <= rows.shape[0] * np.finfo(float).eps

    def test_agrees_with_dense_reference(self):
        for n, rows, tol in general_position_cases():
            _, mat, g_max, iterations, _ = _khachiyan_ascent(rows, tol)
            _, mat_ref, g_ref, iterations_ref = dense_ascent(rows, tol)
            # log det M of either sits within n log(g_max / n) of the optimum.
            gaps = n * np.log(g_max / n) + n * np.log(g_ref / n)
            diff = np.linalg.slogdet(mat)[1] - np.linalg.slogdet(mat_ref)[1]
            assert abs(diff) <= gaps
            # The core start and the Newton polish cut the reference's
            # uniform start and linear tail, on every body.
            assert iterations <= 0.5 * iterations_ref

    def test_boxes_match_dense_reference_bitwise(self, rng):
        # The reduced rows of a box are orthogonal, so the uniform weights
        # certify before any update.
        for poly in (cube(10), box([1.0, 1.0, 1.0, 1.0, 0.01])):
            for _ in range(3):
                x = poly.b[: poly.n] * rng.uniform(0.1, 0.5, poly.n)
                rows = _distinct_rows(symmetrize(poly, x * rng.choice([-1, 1], poly.n)))
                tol = _effective_gap(None, poly.n) / (2.0 * poly.n)
                _, mat, g_max, iterations, _ = _khachiyan_ascent(rows, tol)
                _, mat_ref, g_ref, _ = dense_ascent(rows, tol)
                assert iterations == 0
                assert np.array_equal(mat, mat_ref)
                assert g_max == g_ref

    def test_singular_moments_raise(self, monkeypatch):
        # Points on a line pass once the span check is bypassed; a
        # regularized solve would certify them.
        monkeypatch.setattr(mve, "_check_spans", lambda mat, m: None)
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(NumericalError, match="singular"):
            _khachiyan_ascent(pts, 1e-9)


def assert_exact_certificate(rows, tol, u, mat, g_max):
    exact = rows.T @ (rows * u[:, None])
    assert np.array_equal(mat, exact)
    g = np.einsum("ij,ji->i", rows, np.linalg.solve(exact, rows.T))
    assert g.max() == g_max
    assert g_max / rows.shape[1] - 1.0 <= tol


class TestNewtonPolish:
    def test_certifies_within_step_cap(self, monkeypatch):
        polished = []
        polish = mve._newton_polish

        def recording(*args):
            u, mat, steps = polish(*args)
            polished.append((u.copy(), mat, steps))
            return u, mat, steps

        monkeypatch.setattr(mve, "_newton_polish", recording)
        for _, rows, tol in general_position_cases():
            polished.clear()
            u, mat, g_max, _, newton_steps = _khachiyan_ascent(rows, tol)
            # The polish ran once and the ascent returned its weights as
            # they came back, without a further ascent iteration.
            assert len(polished) == 1
            assert np.array_equal(polished[0][0], u) and polished[0][1] is mat
            assert 0 < newton_steps == polished[0][2] <= mve._NEWTON_MAX_STEPS
            assert_exact_certificate(rows, tol, u, mat, g_max)

    def test_ascent_certifies_without_polish(self, monkeypatch):
        monkeypatch.setattr(
            mve, "_newton_polish", lambda pts, u, mat, g, tol: (u, mat, 0)
        )
        for _, rows, tol in general_position_cases():
            u, mat, g_max, iterations, newton_steps = _khachiyan_ascent(rows, tol)
            assert iterations > 0
            assert newton_steps == 0
            assert_exact_certificate(rows, tol, u, mat, g_max)

    def test_singular_q_leaves_polish(self):
        # p and -p give equal rows of Q, which is then exactly singular.
        pts = np.array([
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [1.0, -2.0, 0.5],
        ])
        u = np.full(6, 1.0 / 6.0)
        mat = pts.T @ (pts * u[:, None])
        g = np.einsum("ij,ji->i", pts, np.linalg.solve(mat, pts.T))
        out_u, out_mat, steps = mve._newton_polish(pts, u, mat, g, 1e-12)
        assert out_u is u and out_mat is mat and steps == 0
        # The core start need not put both p and -p in the support, so the
        # polish may take steps here; the ascent must still certify.
        u, mat, g_max, _, _ = _khachiyan_ascent(pts, 1e-12)
        assert_exact_certificate(pts, 1e-12, u, mat, g_max)


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
                    rows = _distinct_rows(symmetrize(poly, x))
                    u = mve._core_start(rows)
                    assert np.count_nonzero(u) == n and u.sum() == pytest.approx(1.0)
                    for _ in range(3):
                        mapped = mve._core_start(rows @ random_linear_map(n, rng))
                        assert np.array_equal(np.flatnonzero(mapped), np.flatnonzero(u))

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
            rows = _distinct_rows(symmetrize(poly, analytic_center(poly)))
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

    def test_unbounded_body_raises(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(UnboundedPolytopeError):
            solve_mve(SymmetricPolytope(a, np.zeros(2)))


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


# Rounding in the oracle route's ascent breaks the requested gap on thin and
# badly scaled bodies, and its span check rejects some bounded bodies whose
# row norms span ~1e12 (ROADMAP item 2).
_ORACLE_ROUNDING = pytest.mark.xfail(
    strict=True, reason="oracle route loses its gap to rounding (ROADMAP item 2)"
)
SHAPES = [
    pytest.param("scaled", marks=_ORACLE_ROUNDING),
    pytest.param("thin", marks=_ORACLE_ROUNDING),
    "parallel",
]


class TestSolveMveHardBodies:
    # Failures are reported unshrunk: on the expected failures shrinking
    # took over a minute.
    @pytest.mark.parametrize("shape", SHAPES)
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

    @pytest.mark.parametrize("shape", ["scaled", "thin", "parallel"])
    @settings(derandomize=True, deadline=None, max_examples=2)
    @given(data=st.data())
    def test_cutting_plane_route(self, shape, data):
        body = data.draw(hard_bodies(st.just(2), shape))
        sol = solve_mve(body, method="vaidya", gap=1e-5)
        assert_inscribed_and_certified(body, sol, 1e-5)


class TestSolveMveVaidyaBreakdown:
    """Bodies whose localization polytope grows too ill-conditioned to
    factor before the run ends; the run stops with its best iterate, which
    still certifies the requested gap."""

    @pytest.mark.parametrize("n, m, gap", [(5, 15, 2e-7), (6, 18, 1e-5)])
    def test_certifies_within_five_seconds(self, n, m, gap):
        poly = unit_normal_polytope(n, m, 7)
        body = symmetrize(poly, analytic_center(poly))
        start = time.perf_counter()
        sol = solve_mve(body, method="vaidya", gap=gap)
        assert time.perf_counter() - start < 5.0
        assert sol.logdet_gap <= gap
        assert np.all(np.linalg.norm(body.A @ sol.ellipsoid.mat, axis=1) <= 1.0)


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
            rows = _distinct_rows(body)
            assert rows.shape == (n, n)
            # the kept row of each axis is the tighter of its two facets
            norms = np.linalg.norm(body.A[:n], axis=1)
            norms_neg = np.linalg.norm(body.A[n : 2 * n], axis=1)
            kept = np.sort(np.linalg.norm(rows, axis=1))
            assert np.array_equal(kept, np.sort(np.maximum(norms, norms_neg)))

    def test_nearly_parallel_rows_stay(self):
        angle = 1e-9
        a = np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)], [0.0, 1.0]])
        body = SymmetricPolytope(np.vstack([a, -a]), np.zeros(2))
        assert _distinct_rows(body).shape == (3, 2)

    def test_no_parallel_rows_keeps_half(self, rng):
        normals = rng.standard_normal((10, 4))
        body = centered_body(Polytope(normals, np.ones(10)))
        assert np.array_equal(_distinct_rows(body), body.A)

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
            assert _distinct_rows(body).shape[0] < body.rows
            gap, tol = 1e-9, 1e-10
            reduced = solve_mve(body, gap=gap)
            full = -0.5 * np.linalg.slogdet(enclosing_shape(body.A, tol=tol))[1]
            allowed = reduced.logdet_gap + 0.5 * poly.n * np.log1p(tol) + 1e-12
            assert abs(reduced.ellipsoid.logdet - full) <= allowed


class TestDikinPrecondition:
    def test_cube_rows(self):
        body = centered_body(cube(2))
        t_mat, image = dikin_precondition(body)
        # The 2-cube symmetrization lists +-e_i, and each row bounds two
        # half-spaces, so H = 2 A^T A = 4I; rows of the image are +-e_i / 2,
        # so the image box is |v_i| <= 2.
        assert np.allclose(t_mat @ t_mat, 2.0 * body.A.T @ body.A)
        widths = 1.0 / np.abs(image.A).max(axis=1)
        assert np.allclose(widths, 2.0)

    def test_unit_ball_inside_image(self, rng):
        poly = random_symmetric_polytope(3, 6, rng)
        _, image = dikin_precondition(centered_body(poly))
        pts = sphere_points(3, 1000, rng)
        assert np.all(image.A @ pts.T <= 1.0 + 1e-9)

    def test_image_inside_sqrt_rows_ball(self, rng):
        poly = random_symmetric_polytope(3, 6, rng)
        _, image = dikin_precondition(centered_body(poly))
        dirs = sphere_points(3, 1000, rng)
        # boundary point along each direction
        t = 1.0 / np.max(image.A @ dirs.T, axis=0)
        boundary = dirs * t[:, None]
        assert np.all(
            np.linalg.norm(boundary, axis=1) <= np.sqrt(2 * image.rows) + 1e-9
        )

    def test_singular_hessian_raises(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(NumericalError):
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

    def test_constraint_cut_precedes_psd_cut(self):
        # Both a violated row and a small eigenvalue: row cut wins.
        body = centered_body(cube(2))
        ans = separation_oracle_mve(np.diag([3.0, 0.01]), body)
        assert ans.kind == "constraint"


class TestContactExtraction:
    def test_cube_pairs(self):
        for n in (2, 3):
            body = centered_body(cube(n))
            sol = solve_mve(body, gap=1e-10)
            contacts = extract_contacts(sol, body)
            assert len(contacts) == 2 * n
            assert np.allclose(contacts.weights, 0.5)
            res = verify_john_conditions(contacts, n)
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
            res = verify_john_conditions(contacts, 3)
            assert res.frobenius <= 1e-4
            assert res.weight_sum <= 1e-4
            # balance bound from the decomposition: |sum c u| <= sqrt(n)
            assert res.balance <= np.sqrt(3)

    def test_rank_deficient_contact_set(self):
        body = centered_body(cube(2))
        shrunk = Ellipsoid(0.5 * np.eye(2), np.zeros(2))
        from johnswalk.mve import JohnSolution

        with pytest.raises(NumericalError, match="rank-deficient"):
            extract_contacts(
                JohnSolution(ellipsoid=shrunk, logdet_gap=0.0, solver_tag="oracle"),
                body,
            )

    def test_cross_polytope_weight_sum(self, rng):
        body = centered_body(cross_polytope(3))
        sol = solve_mve(body, gap=1e-10)
        contacts = extract_contacts(sol, body)
        res = verify_john_conditions(contacts, 3)
        assert res.weight_sum <= 1e-6


class TestContactSetValidation:
    def test_non_unit_points_rejected(self):
        with pytest.raises(GeometryError):
            ContactSet(np.array([[2.0, 0.0]]), np.array([1.0]))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(GeometryError):
            ContactSet(np.array([[1.0, 0.0]]), np.array([0.0]))


class TestVerifyJohnConditions:
    def test_cube_exact(self):
        pts = np.vstack([np.eye(3), -np.eye(3)])
        res = verify_john_conditions(ContactSet(pts, np.full(6, 0.5)), 3)
        assert res == (0.0, 0.0, 0.0)

    def test_single_point_closed_form(self):
        for n in (2, 4):
            pts = np.zeros((1, n))
            pts[0, 0] = 1.0
            res = verify_john_conditions(ContactSet(pts, np.array([float(n)])), n)
            assert np.isclose(res.frobenius, np.sqrt((n - 1) ** 2 + (n - 1)))

    def test_weight_perturbation_linear(self):
        pts = np.vstack([np.eye(2), -np.eye(2)])
        base = np.full(4, 0.5)
        delta = 0.125
        bumped = base.copy()
        bumped[0] += delta
        res = verify_john_conditions(ContactSet(pts, bumped), 2)
        assert np.isclose(res.weight_sum, delta)

    def test_residual_accessors(self):
        res = JohnConditions(1.0, 2.0, 3.0)
        assert (res.frobenius, res.weight_sum, res.balance) == (1.0, 2.0, 3.0)
