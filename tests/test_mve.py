import numpy as np
import pytest

from johnswalk.errors import (
    GeometryError,
    NumericalError,
    UnboundedPolytopeError,
)
from johnswalk.geometry import (
    Ellipsoid,
    Polytope,
    SymmetricPolytope,
    sphere_points,
    symmetrize,
)
from johnswalk.mve import (
    ContactSet,
    JohnConditions,
    _distinct_rows,
    dikin_precondition,
    dual_logdet_bound,
    extract_contacts,
    separation_oracle_mve,
    solve_mve,
    solve_mvee_polar,
    sym_dim,
    sym_to_vec,
    vec_to_sym,
    verify_john_conditions,
)

from conftest import box, cross_polytope, cube, random_polytope, random_symmetric_polytope


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


class TestMveePolar:
    def test_axis_points_give_unit_ball(self):
        e = solve_mvee_polar(np.eye(3))
        assert np.allclose(e.mat, np.eye(3), atol=1e-7)

    def test_axis_aligned_ellipse(self):
        e = solve_mvee_polar(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(e.mat, np.diag([2.0, 1.0]), atol=1e-7)

    def test_certificate_and_containment(self, rng):
        pts = rng.normal(size=(12, 3))
        tol = 1e-8
        e = solve_mvee_polar(pts, tol=tol)
        # every point inside the returned ellipsoid
        inv = np.linalg.inv(e.mat)
        norms = np.linalg.norm(pts @ inv.T, axis=1)
        assert norms.max() <= 1.0 + 1e-9
        # certificate means the ellipsoid is within (1+tol)^(1/2) of optimal,
        # so at least one point is essentially on the boundary
        assert norms.max() >= (1.0 + tol) ** -0.5 - 1e-9

    def test_rank_deficient_raises(self):
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(UnboundedPolytopeError):
            solve_mvee_polar(pts)


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
        assert np.array_equal(_distinct_rows(body), body.A[: body.rows // 2])

    def test_reduced_solve_matches_full_ascent(self, rng):
        # solve_mvee_polar runs the ascent on every row; the polar of its
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
            assert _distinct_rows(body).shape[0] < body.rows // 2
            gap, tol = 1e-9, 1e-10
            reduced = solve_mve(body, gap=gap)
            full = -solve_mvee_polar(body.A, tol=tol).logdet
            allowed = reduced.logdet_gap + 0.5 * poly.n * np.log1p(tol) + 1e-12
            assert abs(reduced.ellipsoid.logdet - full) <= allowed


class TestDikinPrecondition:
    def test_cube_rows(self):
        body = centered_body(cube(2))
        t_mat, image = dikin_precondition(body)
        # H = 2I for the 2-cube symmetrization (each +-e_i twice gives 4I;
        # rows of the image are +-e_i / 2, so the image box is |v_i| <= 2)
        assert np.allclose(t_mat @ t_mat, body.A.T @ body.A)
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
            np.linalg.norm(boundary, axis=1) <= np.sqrt(image.rows) + 1e-9
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

    def test_scaled_identity_violates_first_row(self):
        body = centered_body(cube(2))
        ans = separation_oracle_mve(2.0 * np.eye(2), body)
        assert ans.kind == "constraint"
        assert ans.index == 0
        row = body.A[0]
        assert np.allclose(vec_to_sym(ans.cut, 2), np.outer(row, row))

    def test_small_eigenvalue_gives_psd_cut(self):
        body = centered_body(cube(2))
        x = np.diag([1.0, 1.0 / 4.0])  # second eigenvalue below 1/n = 1/2
        ans = separation_oracle_mve(x, body)
        assert ans.kind == "psd"
        assert np.isclose(ans.eigenvalue, 0.25)
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
