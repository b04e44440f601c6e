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
    ball_point,
    chord,
    contains,
    cross_ratio,
    local_norm,
    symmetrize,
)
from johnswalk.mve import solve_mve

from conftest import box, cube, interior_points, random_polytope, unit_normal_polytope
from stats import ball_points, sphere_points


class TestPolytope:
    def test_shape_properties(self):
        p = cube(3)
        assert p.n == 3
        assert p.m == 6

    def test_b_length_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            Polytope(np.eye(2), np.ones(3))

    def test_zero_row_rejected(self):
        # A symmetric body built directly is checked as a polytope is: a
        # zero row has no unit row for the span test.
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(GeometryError, match="row 1"):
            Polytope(a, np.ones(2))
        with pytest.raises(GeometryError, match="row 1"):
            SymmetricPolytope(a, np.zeros(2))

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
        assert np.allclose(widths, [2.0, 2.0])

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
        assert s.rows == m
        halves = s.as_polytope()
        assert np.array_equal(halves.A[m:], -halves.A[:m])
        assert np.array_equal(halves.b, np.ones(2 * m))
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

    def test_row_overflowing_its_slack_raises(self):
        # The derived rows are not validated again, but a row of norm 1e300
        # divided by its slack of 1e-10 is not finite.
        with np.errstate(over="ignore"), pytest.raises(GeometryError, match="row 0"):
            poly = Polytope(np.array([[1e300, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                            np.array([1e-10, 1.0, 1.0, 1.0]))
            symmetrize(poly, np.zeros(2))

    def test_involution_at_origin(self, rng):
        # Symmetrizing an already symmetric body at its center reproduces
        # the same row set, each row once per half-space it bounds.
        s = symmetrize(cube(2), np.zeros(2))
        s2 = symmetrize(s.as_polytope(), np.zeros(2))
        rows1 = sorted(map(tuple, np.round(np.vstack([s.A, -s.A]), 12)))
        rows2 = sorted(map(tuple, np.round(s2.A, 12)))
        assert rows1 == rows2

    def test_only_symmetrize_attaches_distinct_rows(self):
        # The solvers trust the rows to span, so a caller cannot hand them
        # in: symmetrize attaches the rows the polytope's classes pick, and a
        # body built directly derives the same ones on first use.
        with pytest.raises(TypeError):
            SymmetricPolytope(np.eye(2), np.zeros(2), distinct=np.eye(1, 2))
        body = symmetrize(cube(2), np.zeros(2))
        twin = SymmetricPolytope(body.A, body.anchor)
        assert "distinct" in vars(body) and "distinct" not in vars(twin)
        assert np.array_equal(body.distinct, body.A[[0, 1]])
        assert np.array_equal(twin.distinct, body.distinct)

    @pytest.mark.parametrize("poly, x", [
        (cube(2), [0.3, -0.2]),
        (box([1.0, 1.0, 1.0, 1.0, 0.01]), [0.3, -0.2, 0.1, 0.4, 0.003]),
        (unit_normal_polytope(5, 15, 0), None),
    ], ids=["square", "thin5", "rand5x15"])
    def test_given_slacks_give_the_same_body(self, poly, x):
        # The walk hands symmetrize the slacks of its own interior test; the
        # body must be bitwise the one symmetrize builds from the point.
        x = analytic_center(poly) if x is None else np.array(x)
        given, computed = symmetrize(poly, x, poly.slacks(x)), symmetrize(poly, x)
        for name in ("A", "anchor", "distinct"):
            a, b = getattr(given, name), getattr(computed, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_given_slacks_of_non_interior_point_name_row(self):
        x = np.array([0.2, -1.0])
        with pytest.raises(GeometryError, match="not strictly interior: row 3"):
            symmetrize(cube(2), x, cube(2).slacks(x))


class TestEllipsoid:
    def test_logdet_cached(self):
        e = Ellipsoid(np.diag([2.0, 1.0]), np.zeros(2))
        assert np.isclose(e.logdet, np.log(2.0))

    def test_triangular_factor_accepted(self):
        e = Ellipsoid(np.array([[2.0, 0.5], [0.0, 1.0]]), np.zeros(2))
        assert np.isclose(e.logdet, np.log(2.0))
        assert np.allclose(e.inv @ e.mat, np.eye(2))

    def test_reflected_factor_accepted(self):
        # diag(1, -1) maps the unit ball onto itself.
        e = Ellipsoid(np.diag([1.0, -1.0]), np.zeros(2))
        assert e.logdet == 0.0
        assert np.isclose(local_norm(e, np.array([3.0, 4.0])), 5.0)

    def test_singular_factor_raises(self):
        with pytest.raises(GeometryError, match="singular"):
            Ellipsoid(np.array([[1.0, 2.0], [0.5, 1.0]]), np.zeros(2))

    def test_rotated_factor_same_norm_and_logdet(self, rng):
        # F and F Q, Q orthogonal, are two square roots of one ellipsoid.
        for n in (2, 3, 6):
            f = np.triu(rng.normal(size=(n, n))) + 3.0 * np.eye(n)
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            center = rng.normal(size=n)
            e, e_rot = Ellipsoid(f, center), Ellipsoid(f @ q, center)
            assert np.isclose(e.logdet, e_rot.logdet, rtol=0.0, atol=1e-12)
            for y in center + rng.normal(size=(5, n)):
                assert np.isclose(local_norm(e, y), local_norm(e_rot, y), rtol=1e-12)


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

    def test_one_point_draw_bits(self):
        # The walks draw one point at a time: a normal draw put on the
        # sphere, then scaled by U^(1/n), on (1, n) arrays, bit for bit.
        for n in (1, 2, 5, 10):
            draws, ref = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(500):
                z = ref.standard_normal((1, n))
                radius = (ref.random(1) ** (1.0 / n))[:, None]
                expected = z / np.linalg.norm(z, axis=1)[:, None] * radius
                assert np.array_equal(ball_points(n, 1, draws)[0], expected[0])

    def test_ball_points_inside(self, rng):
        pts = ball_points(4, 500, rng)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_ball_point_is_first_of_ball_points(self, n):
        one, batch = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            assert ball_point(n, one).tobytes() == ball_points(n, 1, batch)[0].tobytes()

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


    # Every failure to find a start point must keep its error when the
    # phase-1 LP is replaced.
    @pytest.mark.parametrize("a, b, message", [
        pytest.param([[1, 0], [-1, 0], [0, 1], [0, -1]], [-1, -1, 1, 1],
                     "no strictly interior point found", id="empty"),
        pytest.param([[1, 0], [0, 1], [0, -1]], [1, 1, 1],
                     "analytic center failed to converge", id="strip"),
        # Phase 1 runs on both: the box x = 1, |y| <= 1 has no interior, and
        # x >= 2, |y| <= 1 has one but no center.
        pytest.param([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 1, 1],
                     "no strictly interior point found", id="flat"),
        pytest.param([[-1, 0], [0, 1], [0, -1]], [-2, 1, 1],
                     "analytic center failed to converge", id="unbounded-away"),
    ])
    def test_no_start_point_raises(self, a, b, message):
        with pytest.raises(NumericalError, match=message):
            analytic_center(Polytope(np.array(a, dtype=float), np.array(b, dtype=float)))

    # Each shift leaves the origin outside, so phase 1 finds the start. The
    # 2-box at 2e8 was once refused as empty by the LP's bounds of 1e8.
    @pytest.mark.parametrize("make, shift", [
        pytest.param(lambda: cube(3), [5.0, 0.0, 0.0], id="cube3-5"),
        pytest.param(lambda: cube(3), [1e6, 0.0, 0.0], id="cube3-1e6"),
        pytest.param(lambda: cube(2), [2e8, 0.0], id="cube2-2e8"),
        # The stop at a decrement of 2e-12 leaves a center of this body up to
        # about 1e-7 from the true one, wherever the descent started
        # (test_shift_within_the_stop), so it is shifted far.
        pytest.param(lambda: random_polytope(3, 5, np.random.default_rng(32)),
                     [1e4, -5e3, 2.5e3], id="random-1e4"),
    ])
    def test_commutes_with_shift(self, make, shift):
        poly, shift = make(), np.array(shift)
        assert not (poly.slacks(-shift) > 0.0).all()
        moved = analytic_center(Polytope(poly.A, poly.b + poly.A @ shift))
        want = analytic_center(poly) + shift
        assert np.linalg.norm(moved - want) <= 1e-9 * np.linalg.norm(want)

    def test_shift_within_the_stop(self):
        # A decrement lambda^2 < 2e-12 puts each center within about 1.5e-6
        # of the true one in the local norm of the barrier Hessian H.
        poly = random_polytope(3, 5, np.random.default_rng(32))
        shift = np.array([3.0, -1.5, 0.75])
        assert not (poly.slacks(-shift) > 0.0).all()
        moved = analytic_center(Polytope(poly.A, poly.b + poly.A @ shift)) - shift
        center = analytic_center(poly)
        w = poly.A / poly.slacks(center)[:, None]
        diff = w @ (moved - center)
        assert np.sqrt(diff @ diff) <= 3e-6


SQUARE = cube(2)
DISK = Ellipsoid(np.eye(2), np.zeros(2))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: chord(SQUARE, np.zeros(2), np.zeros(2)),
                 "chord direction must be nonzero", id="chord-zero-direction"),
    # A NaN or infinite direction has no chord; it is refused before the
    # ray tests, which would read a NaN speed as an unbounded ray.
    pytest.param(lambda: chord(SQUARE, np.zeros(2), np.array([np.nan, 0.0])),
                 "chord direction must be nonzero and finite", id="chord-nan-direction"),
    pytest.param(lambda: chord(SQUARE, np.zeros(2), np.array([np.inf, 0.0])),
                 "chord direction must be nonzero and finite", id="chord-inf-direction"),
    pytest.param(lambda: chord(SQUARE, np.zeros(2), np.ones(3)),
                 "direction dimension mismatch", id="chord-direction-dimension"),
    pytest.param(lambda: cross_ratio(SQUARE, np.zeros(2), np.array([5.0, 5.0])),
                 "endpoint y is not strictly interior", id="cross-ratio-y-outside"),
    # A NaN point has NaN slacks, which fail the one interior test.
    pytest.param(lambda: symmetrize(SQUARE, np.array([np.nan, 0.0])),
                 "not strictly interior", id="symmetrize-nan"),
    pytest.param(lambda: chord(SQUARE, np.array([np.nan, 0.0]), np.ones(2)),
                 "not strictly interior", id="chord-nan"),
    pytest.param(lambda: local_norm(DISK, np.zeros(3)),
                 "point has shape", id="local-norm-shape"),
    pytest.param(lambda: Polytope(np.ones(2), np.ones(2)),
                 "A must be a 2-d array", id="polytope-1d"),
    pytest.param(lambda: Polytope(np.empty((2, 0)), np.ones(2)),
                 "dimension >= 1", id="polytope-no-columns"),
    pytest.param(lambda: SymmetricPolytope(np.eye(2), np.zeros(3)),
                 "dimensions disagree", id="symmetric-anchor"),
    pytest.param(lambda: Ellipsoid(np.ones((2, 3)), np.zeros(2)),
                 "factor must be square", id="ellipsoid-non-square"),
    pytest.param(lambda: Ellipsoid(np.eye(2), np.zeros(3)),
                 "center dimension mismatch", id="ellipsoid-center"),
])
def test_input_refused(call, message):
    with pytest.raises(GeometryError, match=message):
        call()


# The log barrier of the interval [0, 4], minimized at x = 2.
INTERVAL_NEWTON, INTERVAL_INSIDE = _log_barrier(
    np.array([[1.0], [-1.0]]), np.array([4.0, 0.0])
)


class TestDampedNewton:

    def test_converges_on_interval(self):
        x, converged = _damped_newton(np.array([0.5]), INTERVAL_NEWTON, INTERVAL_INSIDE, 1e-20, 50)
        assert converged
        assert np.isclose(x[0], 2.0, atol=1e-10)

    def test_step_cap_runs_out(self):
        x, converged = _damped_newton(np.array([0.5]), INTERVAL_NEWTON, INTERVAL_INSIDE, 1e-20, 1)
        assert not converged
        assert 0.5 < x[0] < 4.0

    def test_failed_domain_test_returns_start(self):
        start = np.array([0.5])
        x, converged = _damped_newton(start, INTERVAL_NEWTON, lambda _: False, 1e-20, 50)
        assert not converged
        assert np.array_equal(x, start)

    def test_start_near_boundary_stays_inside(self):
        # The self-concordant step 1 / (1 + lambda) never leaves the domain.
        trials = []

        def inside(x):
            trials.append(float(x[0]))
            return INTERVAL_INSIDE(x)

        x, converged = _damped_newton(np.array([1e-6]), INTERVAL_NEWTON, inside, 1e-20, 200)
        assert converged
        assert np.isclose(x[0], 2.0, atol=1e-10)
        assert trials and all(0.0 < t < 4.0 for t in trials)

    def test_stall_at_rounding_floor_ends_descent(self):
        # A decrement that stops falling inside the quadratic region is a
        # rounding floor: the second evaluation ends the descent unconverged.
        calls = []

        def newton(x):
            calls.append(x)
            return np.array([1e-6]), 1e-9

        x, converged = _damped_newton(np.array([0.5]), newton, INTERVAL_INSIDE, 1e-20, 60)
        assert not converged
        assert len(calls) == 2
        assert x is calls[-1]

    def test_rise_above_quadratic_region_continues(self):
        # Only a decrement of at most 1/16 can stall; a rise above it (here
        # 0.01 -> 0.5) keeps descending until the tolerance is met.
        decrements = iter([0.01, 0.5, 0.04, 1e-3, 1e-30])

        def newton(x):
            return np.array([1e-3]), next(decrements)

        x, converged = _damped_newton(np.array([0.5]), newton, INTERVAL_INSIDE, 1e-20, 60)
        assert converged
        assert next(decrements, None) is None

    def test_step_that_rounds_to_no_move_ends_descent(self):
        # Far above the quadratic region, a step below half an ulp of x
        # leaves x as it was; Newton would repeat it until the step cap.
        calls = []

        def newton(x):
            calls.append(x)
            return np.array([1e-20]), 0.5

        start = np.array([0.5])
        x, converged = _damped_newton(start, newton, INTERVAL_INSIDE, 1e-20, 60)
        assert not converged
        assert len(calls) == 1
        assert x is start

    def test_domain_test_excludes_boundary(self):
        assert not INTERVAL_INSIDE(np.array([4.0]))
        assert not INTERVAL_INSIDE(np.array([-0.1]))
        assert INTERVAL_INSIDE(np.array([3.9]))
