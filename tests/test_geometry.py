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
    _damped_newton,
    _log_barrier,
    analytic_center,
    ball_points,
    chord,
    contains,
    cross_ratio,
    local_norm,
    sphere_points,
    symmetrize,
)
from johnswalk.mve import solve_mve

from conftest import cube, interior_points, random_polytope


class TestPolytope:
    def test_shape_properties(self):
        p = cube(3)
        assert p.n == 3
        assert p.m == 6

    def test_b_length_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            Polytope(np.eye(2), np.ones(3))

    def test_zero_row_rejected(self):
        with pytest.raises(GeometryError):
            Polytope(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            Polytope(np.array([[1.0, np.nan]]), np.ones(1))

    def test_under_determined_system_loads(self):
        # Boundedness is diagnosed lazily, not at construction.
        p = Polytope(np.array([[1.0, 0.0]]), np.ones(1))
        assert p.m == 1 and p.n == 2


class TestContains:
    def test_interior(self):
        assert contains(cube(2), np.zeros(2))

    def test_exterior(self):
        assert not contains(cube(2), np.array([2.0, 0.0]))

    def test_boundary_is_closed(self):
        assert contains(cube(2), np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            contains(cube(2), np.zeros(3))


class TestSymmetrize:
    def test_interval_at_its_own_center(self):
        # [-1, 3] about x = 1 is already symmetric with half-width 2.
        p = Polytope(np.array([[1.0], [-1.0]]), np.array([3.0, 1.0]))
        s = symmetrize(p, np.array([1.0]))
        widths = np.sort(1.0 / np.abs(s.A[:, 0]))
        assert np.allclose(widths, [2.0, 2.0, 2.0, 2.0])

    def test_interval_off_center(self):
        # [-1, 3] about x = 0 intersects with [-3, 1], giving [-1, 1].
        p = Polytope(np.array([[1.0], [-1.0]]), np.array([3.0, 1.0]))
        s = symmetrize(p, np.array([0.0]))
        widths = 1.0 / np.abs(s.A[:, 0])
        assert np.isclose(widths.min(), 1.0)

    def test_cube_off_center(self):
        # [-1,1]^2 about (0.1, 0): first coordinate range [-0.8, 1.0]
        # about the anchor becomes half-width 0.9; second keeps 1.
        s = symmetrize(cube(2), np.array([0.1, 0.0]))
        widths = 1.0 / np.abs(s.A[np.abs(s.A[:, 0]) > 1e-12, 0])
        assert np.isclose(widths.min(), 0.9)

    def test_rows_negated_pairs_and_anchor(self, rng):
        p = random_polytope(3, 5, rng)
        x = interior_points(p, 1, rng)[0]
        s = symmetrize(p, x)
        m = p.m
        assert s.rows == 2 * m
        assert np.allclose(s.A[m:], -s.A[:m])
        assert np.allclose(s.anchor, x)

    def test_scaling_matches_slacks(self, rng):
        p = random_polytope(2, 4, rng)
        x = interior_points(p, 1, rng)[0]
        s = symmetrize(p, x)
        slack = p.b - p.A @ x
        assert np.allclose(s.A[: p.m], p.A / slack[:, None])

    def test_non_interior_point_names_row(self):
        with pytest.raises(GeometryError, match="row 0"):
            symmetrize(cube(2), np.array([1.0, 0.0]))

    def test_involution_at_origin(self, rng):
        # Symmetrizing an already symmetric body at its center reproduces
        # the same row set (each row twice).
        s = symmetrize(cube(2), np.zeros(2))
        p2 = Polytope(s.A, np.ones(s.rows))
        s2 = symmetrize(p2, np.zeros(2))
        rows1 = sorted(map(tuple, np.round(np.vstack([s.A, s.A]), 12)))
        rows2 = sorted(map(tuple, np.round(s2.A, 12)))
        assert rows1 == rows2


class TestSymmetricPolytope:
    def test_unpaired_rows_rejected(self):
        with pytest.raises(GeometryError):
            SymmetricPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))

    def test_odd_row_count_rejected(self):
        with pytest.raises(GeometryError):
            SymmetricPolytope(np.array([[1.0, 0.0]]), np.zeros(2))


class TestEllipsoid:
    def test_logdet_cached(self):
        e = Ellipsoid(np.diag([2.0, 1.0]), np.zeros(2))
        assert np.isclose(e.logdet, np.log(2.0))

    def test_asymmetric_rejected(self):
        with pytest.raises(GeometryError):
            Ellipsoid(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_indefinite_rejected(self):
        with pytest.raises(GeometryError):
            Ellipsoid(np.diag([1.0, -1.0]), np.zeros(2))

    def test_from_eigh_and_recentered_match_validated(self, rng):
        vals, vecs = np.linalg.eigh(np.cov(rng.normal(size=(3, 20))))
        fast = Ellipsoid.from_eigh(vals, vecs, np.zeros(3))
        checked = Ellipsoid(fast.mat, np.zeros(3))
        assert np.isclose(fast.logdet, checked.logdet, rtol=0.0, atol=1e-12)
        assert np.isclose(fast._cond, checked._cond, rtol=1e-12)
        moved = fast.recentered(np.ones(3))
        assert moved.mat is fast.mat and moved.logdet == fast.logdet
        assert np.array_equal(moved.center, np.ones(3))
        assert np.array_equal(fast.center, np.zeros(3))


class TestLocalNorm:
    def test_identity_is_euclidean(self):
        e = Ellipsoid(np.eye(2), np.zeros(2))
        assert np.isclose(local_norm(e, np.array([3.0, 4.0])), 5.0)

    def test_axis_scaling(self):
        e = Ellipsoid(np.diag([2.0, 1.0]), np.zeros(2))
        assert np.isclose(local_norm(e, np.array([2.0, 0.0])), 1.0)

    def test_matches_independent_solve(self, rng):
        # value^2 == (y - c)^T (E^2)^{-1} (y - c) via a separate route
        for _ in range(10):
            g = rng.normal(size=(3, 3))
            mat = g @ g.T + 3.0 * np.eye(3)
            y = rng.normal(size=3)
            e = Ellipsoid(mat, np.zeros(3))
            direct = float(y @ np.linalg.solve(mat @ mat, y))
            assert np.isclose(local_norm(e, y) ** 2, direct, rtol=1e-9)

    def test_near_singular_raises(self):
        e = Ellipsoid(np.diag([1.0, 1e-15]), np.zeros(2))
        with pytest.raises(NumericalError):
            local_norm(e, np.ones(2))


class TestChord:
    def test_square_through_center(self):
        p, q = chord(cube(2), np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(p, [-1.0, 0.0])
        assert np.allclose(q, [1.0, 0.0])

    def test_square_off_center_same_chord(self):
        p, q = chord(cube(2), np.array([0.5, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(p, [-1.0, 0.0])
        assert np.allclose(q, [1.0, 0.0])

    def test_endpoints_feasible_and_tight(self, rng):
        poly = random_polytope(3, 6, rng)
        for x in interior_points(poly, 5, rng):
            d = rng.normal(size=3)
            p, q = chord(poly, x, d)
            for end in (p, q):
                slack = poly.slacks(end)
                assert np.all(slack >= -1e-9 * (1.0 + np.abs(poly.b)))
                assert slack.min() <= 1e-9

    def test_endpoints_colinear(self, rng):
        poly = random_polytope(3, 6, rng)
        x = interior_points(poly, 1, rng)[0]
        d = rng.normal(size=3)
        p, q = chord(poly, x, d)
        cross = np.cross(p - x, d)
        assert np.linalg.norm(cross) <= 1e-9 * np.linalg.norm(p - x) * np.linalg.norm(d)

    def test_unbounded_direction_raises(self):
        # Half-space stack bounding only x1: rays along x2 escape.
        poly = Polytope(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
            np.ones(3),
        )
        with pytest.raises(UnboundedPolytopeError):
            chord(poly, np.zeros(2), np.array([0.0, -1.0]))


class TestCrossRatio:
    def test_interval_closed_form(self):
        # K = [-1, 1], x = 0, y = 0.5: (0.5 * 2) / (1 * 0.5) = 2.
        p = Polytope(np.array([[1.0], [-1.0]]), np.ones(2))
        val = cross_ratio(p, np.array([0.0]), np.array([0.5]))
        assert np.isclose(val, 2.0)

    def test_symmetry(self, rng):
        poly = random_polytope(3, 6, rng)
        pts = interior_points(poly, 10, rng)
        for x, y in zip(pts[:5], pts[5:]):
            assert np.isclose(
                cross_ratio(poly, x, y), cross_ratio(poly, y, x), atol=1e-10
            )

    def test_coincident_points_raise(self):
        with pytest.raises(GeometryError):
            cross_ratio(cube(2), np.zeros(2), np.zeros(2))

    def test_local_norm_lower_bound(self, rng):
        # sigma(x, y) >= ||y - x||_x / sqrt(n) with the norm from the
        # inscribed ellipsoid of the symmetrization at x.
        for n in (2, 3, 5):
            poly = random_polytope(n, 2 * n, rng)
            pts = interior_points(poly, 6, rng)
            for x in pts[:3]:
                e_x = solve_mve(symmetrize(poly, x), gap=1e-10).ellipsoid
                for y in pts[3:]:
                    sig = cross_ratio(poly, x, y)
                    nrm = local_norm(Ellipsoid(e_x.mat, x), y)
                    assert sig >= nrm / np.sqrt(n) - 1e-9


class TestSpherePoints:
    def test_unit_norm(self, rng):
        pts = sphere_points(4, 100, rng)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_ball_points_inside(self, rng):
        pts = ball_points(4, 500, rng)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)

    def test_ball_radial_law(self, rng):
        # P(|u| <= t) = t^n for uniform ball draws.
        pts = ball_points(3, 40000, rng)
        frac = float(np.mean(np.linalg.norm(pts, axis=1) <= 0.7))
        assert abs(frac - 0.7**3) < 0.01


class TestAnalyticCenter:
    def test_cube_center_is_origin(self):
        assert np.allclose(analytic_center(cube(3)), np.zeros(3), atol=1e-10)

    def test_interval_shifted(self):
        # [0, 4]: barrier log(4 - x) + log(x) peaks at x = 2.
        p = Polytope(np.array([[1.0], [-1.0]]), np.array([4.0, 0.0]))
        assert np.isclose(analytic_center(p)[0], 2.0, atol=1e-8)

    def test_strictly_interior_on_corpus(self, rng):
        for _ in range(5):
            poly = random_polytope(3, 5, rng)
            x = analytic_center(poly)
            assert np.all(poly.slacks(x) > 0)

    def test_unbounded_body_raises(self):
        p = Polytope(np.array([[1.0, 0.0]]), np.ones(1))
        with pytest.raises(NumericalError):
            analytic_center(p)


# The log barrier of the interval [0, 4], minimized at x = 2.
INTERVAL_NEWTON, INTERVAL_VALUE = _log_barrier(
    np.array([[1.0], [-1.0]]), np.array([4.0, 0.0])
)


class TestDampedNewton:

    def test_converges_on_interval(self):
        x, converged = _damped_newton(np.array([0.5]), INTERVAL_NEWTON, INTERVAL_VALUE, 1e-20, 50)
        assert converged
        assert np.isclose(x[0], 2.0, atol=1e-10)

    def test_step_cap_runs_out(self):
        x, converged = _damped_newton(np.array([0.5]), INTERVAL_NEWTON, INTERVAL_VALUE, 1e-20, 1)
        assert not converged
        assert 0.5 < x[0] < 4.0

    def test_stalled_line_search(self):
        # A value that never decreases rejects every trial step.
        start = np.array([0.5])
        x, converged = _damped_newton(start, INTERVAL_NEWTON, lambda _: 0.0, 1e-20, 50)
        assert not converged
        assert np.array_equal(x, start)

    def test_value_is_infinite_outside(self):
        assert INTERVAL_VALUE(np.array([4.0])) == np.inf
        assert np.isfinite(INTERVAL_VALUE(np.array([3.9])))
