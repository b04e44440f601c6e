import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chisquare

import johnswalk
from johnswalk.diagnostics import LemmaReport, check_step_lemmas, ess
from johnswalk.errors import GeometryError, InputDataError, NumericalError
from johnswalk.geometry import Ellipsoid
from johnswalk.walk import radius

from conftest import cube, interior_points, random_symmetric_polytope, unit_normal_polytope
from stats import TvEstimate, estimate_tv_overlap, uniformity_chi_square


def unit_ball(n: int, center=None) -> Ellipsoid:
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    return Ellipsoid(np.eye(n), c)


class TestCheckStepLemmas:
    def test_vanishing_step_vanishing_deviation(self, rng):
        # c ~ 0 keeps every displacement at the base point, so both
        # deviations collapse and no cross-ratio violation is possible.
        report = check_step_lemmas(cube(2), 5, 1e-8, rng)
        assert report.max_det_dev <= 1e-6
        assert report.min_eig_dev <= 1e-6
        assert report.crossratio_violations == 0

    def test_cube_deviations_match_box_geometry(self, rng):
        # At the cube's center the normalized frame is the cube itself and
        # the inscribed matrix at y is diag(1 - |y_i|), so the deviations
        # are bounded by n^2 sum|y_i| <= n^2 r sqrt(n) and n max|y_i| <= n r.
        n = 2
        r = radius(n, 0.5)
        report = check_step_lemmas(cube(n), 60, 0.5, rng)
        assert 0.0 < report.max_det_dev <= n * n * r * math.sqrt(n) * (1 + 1e-6)
        assert 0.0 < report.min_eig_dev <= n * r * (1 + 1e-6)
        assert report.crossratio_violations == 0

    def test_envelope_constant_small_sweep(self, rng):
        for n in (2, 3, 4):
            report = check_step_lemmas(random_symmetric_polytope(n, 3 * n, rng),
                                       25, 0.5, rng)
            assert report.max_det_dev <= 3.0
            assert report.min_eig_dev <= 3.0
            assert report.crossratio_violations == 0

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("off_center", [False, True], ids=["center", "interior"])
    def test_envelope_on_many_facet_bodies(self, n, off_center):
        # m = 60 >= 10 n: the regime where the walk's mixing bound beats
        # the Dikin walk's.
        poly = unit_normal_polytope(n, 60, 0)
        rng = np.random.default_rng(n)
        x = interior_points(poly, 1, rng, shrink=0.5)[0] if off_center else None
        report = check_step_lemmas(poly, 30, 0.5, rng, x=x)
        assert report.max_det_dev <= 3.0
        assert report.min_eig_dev <= 3.0
        assert report.crossratio_violations == 0

    def test_explicit_base_point(self, rng):
        report = check_step_lemmas(cube(2), 10, 0.5, rng,
                                   x=np.array([0.4, -0.3]))
        assert isinstance(report, LemmaReport)
        assert report.trials == 10
        assert report.crossratio_violations == 0

    def test_zero_trials_rejected(self, rng):
        with pytest.raises(GeometryError):
            check_step_lemmas(cube(2), 0, 0.5, rng)


class TestEstimateTvOverlap:
    def test_identical_is_zero(self, rng):
        est = estimate_tv_overlap(unit_ball(3), unit_ball(3), 500, rng)
        assert est.value == 0.0
        assert est.se == 0.0

    def test_disjoint_is_one(self, rng):
        est = estimate_tv_overlap(unit_ball(2), unit_ball(2, [3.0, 0.0]),
                                  500, rng)
        assert est.value == 1.0
        assert est.se == 0.0

    def test_nested_balls_closed_form(self, rng):
        # Uniform on B(0,1) vs uniform on B(0,2): TV = 1 - 2^-n, and the
        # estimator is exact because every draw lands in the larger ball.
        n = 3
        big = Ellipsoid(2.0 * np.eye(n), np.zeros(n))
        est = estimate_tv_overlap(unit_ball(n), big, 400, rng)
        assert np.isclose(est.value, 1.0 - 0.5**n, atol=1e-12)
        assert est.se == 0.0

    def test_shifted_intervals_closed_form(self, rng):
        # In 1-d, unit intervals at distance t overlap on length 2 - t,
        # so TV = t / 2.
        t = 0.4
        est = estimate_tv_overlap(unit_ball(1), unit_ball(1, [t]),
                                  200_000, rng)
        assert abs(est.value - t / 2.0) <= 4.0 * est.se + 1e-12

    def test_step_scale_bound(self, rng):
        t = 0.125
        n = 3
        shifted = unit_ball(n, [t / math.sqrt(n), 0.0, 0.0])
        est = estimate_tv_overlap(unit_ball(n), shifted, 20_000, rng)
        assert est.value <= t + 3.0 * est.se

    def test_argument_validation(self, rng):
        with pytest.raises(GeometryError):
            estimate_tv_overlap(unit_ball(2), unit_ball(2), 0, rng)
        with pytest.raises(GeometryError):
            estimate_tv_overlap(unit_ball(2), unit_ball(3), 10, rng)


class TestUniformityChiSquare:
    def test_exact_uniform_passes(self):
        rng = np.random.default_rng(7)
        poly = cube(2)
        samples = rng.uniform(-1.0, 1.0, size=(4_000, 2))
        p = uniformity_chi_square(poly, samples, 4, (np.full(2, -1.0), np.ones(2)))
        assert p > 0.001

    def test_calibration_spread(self):
        # Repeated iid runs give p-values spread over (0, 1), not clumped
        # at either extreme.
        poly = cube(2)
        box = (np.full(2, -1.0), np.ones(2))
        ps = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            samples = rng.uniform(-1.0, 1.0, size=(2_000, 2))
            ps.append(uniformity_chi_square(poly, samples, 2, box))
        assert min(ps) > 1e-6
        assert max(ps) > 0.2

    def test_degenerate_samples_fail_hard(self):
        poly = cube(2)
        samples = np.tile(np.array([0.1, 0.1]), (2_000, 1))
        p = uniformity_chi_square(poly, samples, 4, (np.full(2, -1.0), np.ones(2)))
        assert p < 1e-12

    def test_partial_cells_monte_carlo(self, rng):
        # Diamond inside the square: every 2x2 cell is half-covered, so
        # masses come from the Monte Carlo branch; rejection-sampled
        # uniform points should pass.
        poly = cube(2)
        diamond = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        dpoly = type(poly)(diamond, np.ones(4))
        pts = []
        while len(pts) < 3_000:
            cand = rng.uniform(-1.0, 1.0, size=2)
            if abs(cand[0]) + abs(cand[1]) <= 1.0:
                pts.append(cand)
        p = uniformity_chi_square(dpoly, np.array(pts), 2,
                                  (np.full(2, -1.0), np.ones(2)), rng=rng)
        assert p > 0.001

    def test_too_few_samples(self):
        poly = cube(2)
        samples = np.zeros((50, 2))
        with pytest.raises(InputDataError, match="too few"):
            uniformity_chi_square(poly, samples, 4, (np.full(2, -1.0), np.ones(2)))

    def test_box_missing_body(self, rng):
        poly = cube(2)
        samples = np.full((100, 2), 2.5)
        with pytest.raises(NumericalError):
            uniformity_chi_square(poly, samples, 2,
                                  (np.full(2, 2.0), np.full(2, 3.0)), rng=rng)

    def test_sample_outside_box_rejected(self):
        # Counted in the edge cells, the samples outside [-0.5, 0.5]^2 would
        # give p = 0.0, where those inside alone give 0.60.
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1.0, 1.0, size=(4_000, 2))
        first = int(np.flatnonzero(np.abs(samples).max(axis=1) > 0.5)[0])
        box = (np.full(2, -0.5), np.full(2, 0.5))
        with pytest.raises(GeometryError, match=f"sample row {first} "):
            uniformity_chi_square(cube(2), samples, 4, box)
        inside = samples[np.abs(samples).max(axis=1) <= 0.5]
        assert uniformity_chi_square(cube(2), inside, 4, box) > 0.001

    def test_nan_sample_rejected(self):
        samples = np.random.default_rng(3).uniform(-1.0, 1.0, size=(400, 2))
        samples[17, 1] = np.nan
        with pytest.raises(GeometryError, match="sample row 17 "):
            uniformity_chi_square(cube(2), samples, 2,
                                  (np.full(2, -1.0), np.ones(2)))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("grid", [2, 4])
    def test_p_value_matches_scipy_stats(self, n, grid):
        # With the box equal to the cube every cell mass is exact (powers
        # of two), so the p-value must be scipy.stats.chisquare's, bitwise.
        box = (np.full(n, -1.0), np.ones(n))
        cells = grid**n
        for seed in range(5):
            samples = np.random.default_rng(seed).uniform(
                -1.0, 1.0, size=(2_000, n))
            counts, _ = np.histogramdd(samples, bins=grid,
                                       range=list(zip(*box)))
            want = chisquare(counts.ravel(), 2_000 / cells).pvalue
            assert uniformity_chi_square(cube(n), samples, grid, box) == want

    def test_shape_validation(self):
        poly = cube(2)
        good_box = (np.full(2, -1.0), np.ones(2))
        with pytest.raises(GeometryError):
            uniformity_chi_square(poly, np.zeros(10), 2, good_box)
        with pytest.raises(GeometryError):
            uniformity_chi_square(poly, np.zeros((10, 2)), 0, good_box)
        with pytest.raises(GeometryError):
            uniformity_chi_square(poly, np.zeros((10, 2)), 2,
                                  (np.ones(2), np.full(2, -1.0)))


def test_package_does_not_import_scipy_stats_optimize_or_special():
    # scipy.stats cost about 0.3 s and 20 MB at the start of every process,
    # for the p-value above; scipy.optimize about 0.2 s and 17 MB more, for
    # the phase-1 LP and the NNLS that the package now does itself; and
    # scipy.special about 3 MB, for the same p-value, which now runs only
    # in tests/stats.py.
    src = os.path.dirname(os.path.dirname(johnswalk.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, johnswalk.cli, johnswalk.diagnostics; "
         "print([m in sys.modules for m in "
         "('scipy.stats', 'scipy.optimize', 'scipy.special')])"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[False, False, False]"


class TestEss:
    def test_iid_near_full(self):
        rng = np.random.default_rng(12)
        series = rng.standard_normal(10_000)
        value = ess(series)
        assert 0.8 * 10_000 <= value <= 1.2 * 10_000

    def test_ar1_autocorrelation_time(self):
        rng = np.random.default_rng(13)
        phi = 0.5
        n = 40_000
        noise = rng.standard_normal(n)
        series = np.empty(n)
        series[0] = noise[0]
        for i in range(1, n):
            series[i] = phi * series[i - 1] + noise[i]
        expected = n * (1 - phi) / (1 + phi)
        assert abs(ess(series) - expected) <= 0.2 * expected

    def test_constant_series(self):
        assert ess(np.ones(100)) == 1.0

    def test_antithetic_clipped_at_n(self):
        series = np.tile([1.0, -1.0], 500)
        assert ess(series) == 1_000.0

    def test_short_series_rejected(self):
        with pytest.raises(InputDataError):
            ess(np.arange(9))


class TestFeasibleMatrixProperty:
    def test_random_instances(self, rng):
        # For |y| in the step ball, the matrix b(I - a yy^T) with
        # b = 1 - |y|/sqrt(n), a = 2 sqrt(n)/|y| satisfies every
        # unit-ball-normalized constraint |E u| <= 1 - <u, y>.
        worst = -np.inf
        for _ in range(100):
            n = int(rng.integers(2, 9))
            y = radius(n, 0.5) * rng.random() ** (1.0 / n) * (
                lambda v: v / np.linalg.norm(v))(rng.standard_normal(n))
            norm_y = float(np.linalg.norm(y))
            beta = 1.0 - norm_y / math.sqrt(n)
            alpha = 2.0 * math.sqrt(n) / norm_y
            e_mat = beta * (np.eye(n) - alpha * np.outer(y, y))
            for _ in range(20):
                u = rng.standard_normal(n)
                u /= np.linalg.norm(u)
                worst = max(worst,
                            float(np.linalg.norm(e_mat @ u) - (1.0 - u @ y)))
        assert worst <= 1e-10


class TestSemidefiniteCauchySchwarz:
    def test_random_instances(self, rng):
        # (sum a_i^2)(sum A_i A_i^T) - (sum a_i A_i)(sum a_i A_i)^T is PSD.
        worst = np.inf
        for _ in range(100):
            k = int(rng.integers(2, 7))
            rows = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            alphas = rng.standard_normal(k)
            mats = rng.standard_normal((k, rows, n))
            gram = sum(m @ m.T for m in mats)
            mixed = sum(a * m for a, m in zip(alphas, mats))
            diff = float(alphas @ alphas) * gram - mixed @ mixed.T
            worst = min(worst, float(np.linalg.eigvalsh(diff)[0]))
        assert worst >= -1e-10
