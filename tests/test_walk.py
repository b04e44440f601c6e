import copy
from dataclasses import astuple

import numpy as np
import pytest
from scipy import stats

from johnswalk import geometry, walk
from johnswalk.diagnostics import ess, uniformity_chi_square
from johnswalk.errors import GeometryError
from johnswalk.geometry import (
    Ellipsoid,
    Polytope,
    analytic_center,
    chord,
    contains,
    local_norm,
    symmetrize,
)
from johnswalk.mve import solve_mve
from johnswalk.walk import (
    Tallies,
    WalkConfig,
    ball_walk_step,
    hit_and_run_step,
    init_state,
    john_step,
    propose,
    radius,
    run_ball_walk,
    run_chain,
    run_hit_and_run,
    transition_density,
)

from conftest import box, cube, random_polytope, unit_normal_polytope


def interval() -> Polytope:
    return Polytope(np.array([[1.0], [-1.0]]), np.ones(2))


# The three runners with their sample arrays, keyed by the CLI's walk names.
RUNNERS = {
    "john": lambda poly, x0, steps: run_chain(poly, x0, steps, WalkConfig())[0],
    "ball": lambda poly, x0, steps: run_ball_walk(poly, x0, steps, 0.1),
    "hitrun": lambda poly, x0, steps: run_hit_and_run(poly, x0, steps),
}

# Every entry point that takes a start point, called at x on the square.
AT_START = {
    **{name: lambda x, run=run: run(cube(2), x, 3) for name, run in RUNNERS.items()},
    "chord": lambda x: chord(cube(2), x, np.array([1.0, 0.0])),
    "symmetrize": lambda x: symmetrize(cube(2), x),
}


class TestRadius:
    def test_one_dimensional(self):
        assert radius(1, 0.5) == 0.5

    def test_n_four(self):
        assert np.isclose(radius(4, 1.0), 1.0 / 32.0)

    def test_power_law(self):
        for n in (1, 2, 5):
            assert np.isclose(radius(n, 0.7) / radius(4 * n, 0.7), 32.0)

    def test_invalid_args(self):
        with pytest.raises(GeometryError):
            radius(0, 1.0)
        with pytest.raises(GeometryError):
            radius(3, 0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_c(self, c):
        with pytest.raises(GeometryError, match="finite"):
            radius(3, c)


class TestPropose:
    def test_within_radius(self, rng):
        ell = Ellipsoid(np.diag([2.0, 0.5]), np.array([0.3, -0.1]))
        r = 0.2
        for _ in range(200):
            z = propose(ell, r, rng)
            d = np.linalg.solve(ell.mat, z - ell.center)
            assert np.linalg.norm(d) <= r + 1e-12

    def test_mean_and_isotropy(self, rng):
        # For E = I, r = 1 the draw is uniform on the unit ball:
        # mean 0 (per-coordinate sd 1/sqrt(n+2)) and covariance I/(n+2).
        n, draws = 3, 100_000
        ell = Ellipsoid(np.eye(n), np.zeros(n))
        pts = np.array([propose(ell, 1.0, rng) for _ in range(draws)])
        sd = 1.0 / np.sqrt(n + 2)
        assert np.all(np.abs(pts.mean(axis=0)) <= 4.0 * sd / np.sqrt(draws))
        cov = np.cov(pts.T)
        assert np.allclose(cov, np.eye(n) / (n + 2), atol=4e-3)


class TestJohnStep:
    def test_lazy_hold_uses_no_solver(self):
        # A heads coin must hold without touching the proposal machinery.
        class HeadsOnly:
            def random(self):
                return 0.0

            def __getattr__(self, name):
                raise AssertionError("solver path exercised on a lazy hold")

        poly = cube(2)
        config = WalkConfig(seed=0)
        state = init_state(poly, np.zeros(2), config)
        state.rng = HeadsOnly()
        out = john_step(poly, state, config)
        assert np.array_equal(out.x, state.x)
        assert out.ellipsoid is state.ellipsoid
        assert out.tallies.lazy_hold == 1
        assert out.tallies.total == 1

    def test_cube_symmetrization_closed_form(self):
        # Symmetrizing the cube at z gives the box with half-widths
        # 1 - |z_i|, so the inscribed factor is diag(1 - |z_i|).
        z = np.array([0.3, -0.2, 0.0])
        sol = solve_mve(symmetrize(cube(3), z), gap=1e-12)
        assert np.allclose(sol.ellipsoid.mat, np.diag(1.0 - np.abs(z)), atol=1e-9)

    def test_no_filter_rejection_from_cube_center(self):
        # det E_z <= 1 = det E_x at the center, so the filter never rejects.
        poly = cube(3)
        for seed in range(30):
            config = WalkConfig(lazy=False, seed=seed)
            state = init_state(poly, np.zeros(3), config)
            out = john_step(poly, state, config)
            assert out.tallies.reject_filter == 0

    def test_every_outcome_occurs(self):
        # At c = 8 the radius r = 8 / 2^2.5 ~ 1.41 exceeds the square's
        # half-width, so proposals can leave it; 200 steps with seed 1 reach
        # all five outcomes, and no rejected proposal enters the samples.
        poly = cube(2)
        samples, tallies = run_chain(poly, np.zeros(2), 200, WalkConfig(c=8.0, seed=1))
        assert min(astuple(tallies)) > 0
        assert sum(astuple(tallies)) == tallies.total == 200
        assert all(np.all(poly.slacks(s) > 0.0) for s in samples)

    def test_reversibility_rejections_occur(self):
        # At c = 0.5 the reverse ellipsoid check fails occasionally; with a
        # fixed seed the count is deterministic and positive over 2000 steps.
        _, tallies = run_chain(cube(3), np.zeros(3), 2000, WalkConfig(seed=1))
        assert tallies.reject_reversibility > 0

    def test_acceptance_dominates_non_lazy(self, rng):
        # Non-lazy steps accept well over half the time at c = 0.5.
        for poly, n in ((cube(3), 3), (random_polytope(4, 6, rng), 4)):
            _, t = run_chain(poly, np.zeros(n), 1200, WalkConfig(seed=9))
            non_lazy = t.total - t.lazy_hold
            assert t.accept / non_lazy > 0.5


def uniformity_p_values():
    """Chi-square p-values, on a 4 x 4 grid, of non-lazy John chains of
    10,000 steps at c = 16, where outside, guard and filter rejects all
    occur, each thinned to about one sample per effective sample. The
    bodies are the square, whose symmetrizations are boxes, and a right
    triangle, where det E falls to 0 toward every corner. Yields each body's
    (p-value, tallies) in turn, so a caller can stop at the first."""
    triangle = Polytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                        np.array([0.0, 0.0, 1.0]))
    for poly, x0, bounds, seed in (
        (cube(2), np.zeros(2), (np.full(2, -1.0), np.ones(2)), 5),
        (triangle, np.full(2, 1.0 / 3.0), (np.zeros(2), np.ones(2)), 6),
    ):
        samples, tallies = run_chain(poly, x0, 10_000,
                                     WalkConfig(c=16.0, lazy=False, seed=seed))
        chain = samples[1:]
        stride = int(len(chain) // min(ess(chain[:, j]) for j in range(2)))
        yield uniformity_chi_square(poly, chain[::stride], 4, bounds), tallies


def with_scaled_logdet(ell, scale):
    out = copy.copy(ell)
    object.__setattr__(out, "logdet", scale * ell.logdet)
    return out


class TestUniformityPower:
    def test_chains_are_uniform(self):
        for p_value, tallies in uniformity_p_values():
            assert p_value > 1e-3
            assert min(astuple(tallies)[1:]) > 0

    @pytest.mark.parametrize("mutant", ["no_filter", "no_guard", "inverted_filter"])
    def test_statistic_rejects_broken_kernels(self, monkeypatch, mutant):
        if mutant == "no_guard":
            monkeypatch.setattr(walk, "local_norm", lambda ell, x: 0.0)
        else:
            # Equal volumes pass every guarded proposal; negated log volumes
            # accept with min(1, det E_z / det E_x).
            scale = 0.0 if mutant == "no_filter" else -1.0
            solve = walk._ellipsoid_at
            monkeypatch.setattr(walk, "_ellipsoid_at",
                                lambda *args: with_scaled_logdet(solve(*args), scale))
        # Without the guard the triangle chain runs into a corner where the
        # solver gives up, so stop at the first body the statistic rejects.
        assert any(p_value <= 1e-3 for p_value, _ in uniformity_p_values())


class TestRunChain:
    def test_zero_steps(self):
        samples, tallies = run_chain(cube(2), np.zeros(2), 0, WalkConfig())
        assert samples.shape == (1, 2)
        assert np.array_equal(samples[0], np.zeros(2))
        assert tallies.total == 0

    def test_deterministic_given_seed(self):
        a, ta = run_chain(cube(2), np.zeros(2), 100, WalkConfig(seed=3))
        b, tb = run_chain(cube(2), np.zeros(2), 100, WalkConfig(seed=3))
        assert np.array_equal(a, b)
        assert ta == tb

    def test_bad_c_refused_before_start_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the start point was solved before c was checked")

        monkeypatch.setattr(walk, "solve_mve", no_solve)
        with pytest.raises(GeometryError, match="finite c"):
            run_chain(cube(2), np.zeros(2), 5, WalkConfig(c=np.nan))

    @pytest.mark.parametrize("fields, message", [
        ({"c": np.inf}, "finite c"),
        ({"gap": -1.0}, "gap must be positive and finite"),
        ({"gap": np.nan}, "gap must be positive and finite"),
        ({"solver": "exact"}, "unknown solver method 'exact'"),
    ])
    def test_config_refuses_bad_fields_when_built(self, fields, message):
        with pytest.raises(GeometryError, match=message):
            WalkConfig(**fields)

    def test_config_refuses_negative_seed(self):
        with pytest.raises(GeometryError, match="seed must be nonnegative, not -1"):
            WalkConfig(seed=-1)

    def test_tallies_sum_and_interior(self):
        samples, tallies = run_chain(cube(2), np.zeros(2), 400, WalkConfig(seed=2))
        assert tallies.total == 400
        assert all(contains(cube(2), s) for s in samples)

    def test_chains_from_box_centers_complete(self):
        # Near the center each pair of opposite facets nearly ties; the ascent
        # used to spin through its iteration cap on them and raise SolverError.
        for n, seed in ((5, 3111615831), (10, 1468060454)):
            samples, tallies = run_chain(
                cube(n), np.zeros(n), 20, WalkConfig(seed=seed)
            )
            assert tallies.total == 20
            assert all(np.all(cube(n).slacks(s) > 0.0) for s in samples)

    def test_non_interior_start_raises(self):
        with pytest.raises(GeometryError):
            run_chain(cube(2), np.array([1.0, 0.0]), 10, WalkConfig())

    def test_each_point_has_its_slacks_computed_once(self, monkeypatch):
        # Two calls at the start (its interior test and its body), then one
        # per non-lazy step: a proposal's slacks serve both its interior
        # test and, when it is inside, its body.
        calls = []
        slacks = Polytope.slacks

        def counted(poly, x):
            calls.append(x)
            return slacks(poly, x)

        monkeypatch.setattr(Polytope, "slacks", counted)
        steps = 200
        _, tallies = run_chain(cube(2), np.zeros(2), steps,
                               WalkConfig(c=8.0, lazy=False, seed=1))
        assert tallies.reject_outside > 0
        assert len(calls) == 2 + steps

    # A cutting-plane chain on the (10, 60) body takes about 80 s, so that
    # route runs on a (3, 9) body, which has no parallel rows either.
    @pytest.mark.parametrize("solver, make", [
        ("oracle", lambda: cube(3)),
        ("oracle", lambda: unit_normal_polytope(10, 60, 0)),
        ("vaidya", lambda: cube(3)),
        ("vaidya", lambda: unit_normal_polytope(3, 9, 0)),
    ], ids=["oracle-cube3", "oracle-rand10x60", "vaidya-cube3", "vaidya-rand3x9"])
    def test_no_class_or_span_work_per_point(self, monkeypatch, solver, make):
        # The row classes and the span test are facts of the polytope,
        # computed once, here before the chain starts; every body the walk
        # solves is symmetrized from it, so neither route runs them again.
        poly = make()
        assert poly.row_facts[1]

        def per_point(*args):
            raise AssertionError("a step re-derived a fact of the polytope")

        for name in ("parallel_classes", "moments_span"):
            monkeypatch.setattr(geometry, name, per_point)
        _, tallies = run_chain(poly, analytic_center(poly), 50,
                               WalkConfig(seed=1, solver=solver))
        assert tallies.total == 50 and tallies.lazy_hold < 50

    @pytest.mark.parametrize("make", [lambda: cube(3), lambda: unit_normal_polytope(10, 60, 0)],
                             ids=["cube3", "rand10x60"])
    def test_no_validation_per_point(self, monkeypatch, make):
        # symmetrize derives each body from the validated polytope, and the
        # oracle route hands over a factored ellipsoid, so no step validates
        # an array again.
        poly = make()
        start = analytic_center(poly)

        def validate(*args):
            raise AssertionError("a step validated an array again")

        monkeypatch.setattr(geometry, "_as_float_array", validate)
        _, tallies = run_chain(poly, start, 50, WalkConfig(seed=1))
        assert tallies.total == 50 and tallies.lazy_hold < 50

    def test_lazy_coin_frequency(self):
        # The coin alone holds half the time: 4 sigma over the run length.
        steps = 100_000
        _, tallies = run_chain(cube(2), np.zeros(2), steps, WalkConfig(seed=11))
        se = np.sqrt(0.25 / steps)
        assert abs(tallies.lazy_hold / steps - 0.5) <= 4.0 * se


class TestRunners:
    @pytest.mark.parametrize("walk_name", RUNNERS)
    def test_negative_steps_refused_before_any_solve(self, monkeypatch, walk_name):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before steps was checked")

        monkeypatch.setattr(walk, "solve_mve", no_solve)
        with pytest.raises(GeometryError, match="steps must be nonnegative"):
            RUNNERS[walk_name](cube(2), np.zeros(2), -1)

    @pytest.mark.parametrize("start", [[5.0, 5.0], [1.0, 0.0]])
    @pytest.mark.parametrize("walk_name", RUNNERS)
    def test_non_interior_start_raises(self, walk_name, start):
        with pytest.raises(GeometryError, match="not strictly interior"):
            RUNNERS[walk_name](cube(2), np.array(start), 5)

    @pytest.mark.parametrize("entry", AT_START)
    def test_nan_start_is_not_interior(self, entry):
        # A NaN slack fails every comparison: (s <= 0).any() lets a NaN
        # start through, and only not (s > 0).all() refuses it.
        with pytest.raises(GeometryError, match="not strictly interior"):
            AT_START[entry](np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("walk_name", RUNNERS)
    def test_zero_steps_return_the_start(self, walk_name):
        x0 = np.array([0.25, -0.5])
        assert np.array_equal(RUNNERS[walk_name](cube(2), x0, 0), x0[None, :])


class TestAffineInvariance:
    def test_step_decision_invariant(self, rng):
        # Under y = T x + t the walk's ellipsoid at T z + t is T E_z, so the
        # reversibility norm and the filter's log-det difference of every
        # step are unchanged.
        config = WalkConfig(gap=1e-10)
        for poly in (box([1.0, 2.0, 0.5]), random_polytope(3, 5, rng)):
            n = poly.n
            lin = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
            shift = rng.normal(size=n)
            inv = np.linalg.inv(lin)
            mapped = Polytope(poly.A @ inv, poly.b + poly.A @ inv @ shift)
            r = radius(n, config.c)
            for _ in range(5):
                x = 0.5 * rng.uniform(-0.5, 0.5, n)
                z = x + r * rng.uniform(-0.5, 0.5, n)
                e_x = init_state(poly, x, config).ellipsoid
                e_z = init_state(poly, z, config).ellipsoid
                f_x = init_state(mapped, lin @ x + shift, config).ellipsoid
                f_z = init_state(mapped, lin @ z + shift, config).ellipsoid
                assert abs(
                    local_norm(f_z, lin @ x + shift) - local_norm(e_z, x)
                ) <= 1e-9
                assert abs(
                    (f_x.logdet - f_z.logdet) - (e_x.logdet - e_z.logdet)
                ) <= 1e-9

    def test_chain_commutes_with_scale_and_shift(self, rng):
        # For T(y) = s y + t the ellipsoid at T z is s E_z moved to T z, so
        # the chain on (TP, T x0) with the same seed makes every decision of
        # the chain on (P, x0) and visits the images of its points.
        config = WalkConfig(c=2.0, seed=5)
        for n, extra in ((3, 2), (5, 4)):
            poly = random_polytope(n, extra, rng)
            scale, shift = 3.0, rng.normal(size=n)
            mapped = Polytope(poly.A / scale, poly.b + poly.A @ shift / scale)
            x0 = 0.3 * rng.uniform(-1.0, 1.0, n)
            samples, tallies = run_chain(poly, x0, 150, config)
            images, image_tallies = run_chain(mapped, scale * x0 + shift, 150, config)
            assert tallies.reject_reversibility > 0 and tallies.reject_filter > 0
            assert image_tallies == tallies
            assert np.abs(images - (scale * samples + shift)).max() <= 1e-12


class TestTransitionDensity:
    def test_symmetric_in_arguments(self, rng):
        poly = cube(2)
        config = WalkConfig(lazy=False, seed=0)
        r = radius(2, config.c)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, size=2)
            y = x + 0.5 * r * rng.normal(size=2)
            pxy = transition_density(poly, x, y, config)
            pyx = transition_density(poly, y, x, config)
            assert abs(pxy - pyx) <= 1e-10 * max(pxy, 1.0)

    def test_far_pair_is_zero(self):
        config = WalkConfig()
        assert transition_density(cube(2), np.zeros(2), np.array([0.9, 0.0]), config) == 0.0

    def test_close_pair_positive_value(self):
        # From the cube center the proposal ellipsoid is the r-ball, so the
        # density at a mutually contained pair is 1 / (pi r^2) in 2-d
        # divided by the larger determinant, here max(det E) <= 1.
        config = WalkConfig()
        r = radius(2, config.c)
        x = np.zeros(2)
        y = np.array([r / 4.0, 0.0])
        val = transition_density(cube(2), x, y, config)
        dets = []
        for pt in (x, y):
            sol = solve_mve(symmetrize(cube(2), pt), gap=1e-12)
            dets.append(np.exp(sol.ellipsoid.logdet))
        expected = 1.0 / (np.pi * r**2 * max(dets))
        assert np.isclose(val, expected, rtol=1e-9)

    def test_diagonal_rejected(self):
        with pytest.raises(GeometryError):
            transition_density(cube(2), np.zeros(2), np.zeros(2), WalkConfig())


class TestConfig:
    def test_defaults(self):
        config = WalkConfig()
        assert config.c == 0.5
        assert config.lazy is True
        assert config.solver == "oracle"
        assert config.gap is None
        assert config.seed == 0

    def test_tallies_total(self):
        t = Tallies(lazy_hold=1, reject_outside=2, reject_reversibility=3,
                    reject_filter=4, accept=5)
        assert t.total == 15


class TestBallWalk:
    def test_output_always_inside(self, rng):
        poly = cube(2)
        x = np.zeros(2)
        for _ in range(300):
            x = ball_walk_step(poly, x, 0.5, rng)
            assert contains(poly, x)

    def test_small_delta_always_moves(self, rng):
        poly = cube(2)
        x = np.zeros(2)
        for _ in range(200):
            z = ball_walk_step(poly, x, 1e-4, rng)
            assert not np.array_equal(z, x)
            x = z

    def test_holds_near_corner(self, rng):
        # Huge radius from a deep corner: most proposals leave the body.
        poly = cube(2)
        x = np.array([0.999, 0.999])
        holds = sum(
            np.array_equal(ball_walk_step(poly, x, 10.0, rng), x)
            for _ in range(200)
        )
        assert holds > 150

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, rng, delta):
        # A nan radius would hold the chain at its start forever.
        with pytest.raises(GeometryError, match="finite"):
            ball_walk_step(cube(2), np.zeros(2), delta, rng)

    def test_point_outside_raises(self, rng):
        # Every proposal from (5, 5) at radius 0.1 leaves the square, so
        # the chain would otherwise hold there forever.
        with pytest.raises(GeometryError, match="outside"):
            ball_walk_step(cube(2), np.array([5.0, 5.0]), 0.1, rng)

    def test_run_deterministic(self):
        a = run_ball_walk(cube(2), np.zeros(2), 50, 0.3, seed=4)
        b = run_ball_walk(cube(2), np.zeros(2), 50, 0.3, seed=4)
        assert np.array_equal(a, b)


class TestHitAndRun:
    def test_stays_on_chord_segment(self, rng):
        poly = cube(2)
        x = np.array([0.2, -0.4])
        for _ in range(200):
            z = hit_and_run_step(poly, x, rng)
            assert contains(poly, z)
            x = z

    def test_one_dimensional_step_is_uniform(self):
        # In 1-d every chord is the whole interval, so a single step is an
        # exact uniform draw regardless of the current point.
        samples = run_hit_and_run(interval(), np.array([0.7]), 100_000, seed=8)
        stat = stats.kstest(samples[1:, 0], stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert stat.pvalue > 0.001

    def test_run_deterministic(self):
        a = run_hit_and_run(cube(2), np.zeros(2), 50, seed=6)
        b = run_hit_and_run(cube(2), np.zeros(2), 50, seed=6)
        assert np.array_equal(a, b)
        assert a.shape == (51, 2)
