"""Acceptance suite: one test per numbered criterion, each printing a
single pass/fail line with the measured quantities."""

import json
import math
import time

import numpy as np

from johnswalk.cli import main
from johnswalk.diagnostics import check_step_lemmas, ess
from johnswalk.geometry import (
    Ellipsoid,
    Polytope,
    SymmetricPolytope,
    analytic_center,
    cross_ratio,
    local_norm,
    symmetrize,
)
from johnswalk.mve import extract_contacts, solve_mve, verify_john_conditions
from johnswalk.vaidya import iteration_bound, vaidya_feasibility
from johnswalk.walk import WalkConfig, radius, run_chain, transition_density

from conftest import (
    box,
    cross_polytope,
    cube,
    enumerate_vertices,
    interior_points,
    random_polytope,
    random_symmetric_polytope,
)
from stats import estimate_tv_overlap, sphere_points, uniformity_chi_square


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def centered(poly: Polytope) -> SymmetricPolytope:
    return SymmetricPolytope(poly.A / poly.b[:, None], np.zeros(poly.n))


def corpus(rng) -> list[Polytope]:
    return [
        cube(2),
        cube(3),
        cube(4),
        box([2.0, 1.0]),
        box([1.5, 0.7, 1.0]),
        cross_polytope(2),
        cross_polytope(3),
        random_symmetric_polytope(2, 4, rng),
        random_symmetric_polytope(3, 5, rng),
        random_symmetric_polytope(4, 4, rng),
        random_polytope(2, 3, rng),
        random_polytope(3, 5, rng),
        random_polytope(4, 6, rng),
    ]


def test_criterion_01_john_conditions_on_cubes():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        body = symmetrize(cube(n), np.zeros(n))
        sol = solve_mve(body)
        resid = verify_john_conditions(extract_contacts(sol, body))
        worst = max(worst, resid.frobenius, resid.weight_sum, resid.balance)
    elapsed = time.perf_counter() - t0
    report(1, "john conditions, cubes n=2..6",
           worst <= 1e-6 and elapsed < 60.0,
           f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_mves():
    cube_err = abs(solve_mve(centered(cube(3))).ellipsoid.logdet)
    box_err = abs(solve_mve(centered(box([2.0, 1.0]))).ellipsoid.logdet
                  - math.log(2.0))
    diamond = symmetrize(cross_polytope(2), np.zeros(2))
    diamond_err = abs(solve_mve(diamond).ellipsoid.logdet + math.log(2.0))
    report(2, "closed-form inscribed ellipsoids",
           cube_err <= 1e-8 and box_err <= 1e-8 and diamond_err <= 1e-6,
           f"cube {cube_err:.1e}, box {box_err:.1e}, diamond {diamond_err:.1e}")


def test_criterion_03_solver_cross_validation():
    rng = np.random.default_rng(3003)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n = 2 + i % 3
        pairs = int(rng.integers(2, 11 - n))
        body = centered(random_symmetric_polytope(n, pairs, rng))
        assert body.rows <= 20
        a = solve_mve(body, method="oracle", gap=1e-6)
        b = solve_mve(body, method="vaidya", gap=1e-5)
        worst = max(worst, abs(a.ellipsoid.logdet - b.ellipsoid.logdet))
    elapsed = time.perf_counter() - t0
    report(3, "oracle vs cutting-plane logdet, 50 instances",
           worst <= 1e-4 and elapsed < 600.0,
           f"worst gap {worst:.2e}, {elapsed:.0f}s")


def test_criterion_04_containment():
    rng = np.random.default_rng(3004)
    violations = 0
    checked = 0
    for poly in corpus(rng):
        n = poly.n
        for x in [analytic_center(poly), *interior_points(poly, 1, rng)]:
            body = symmetrize(poly, x)
            e_mat = solve_mve(body, gap=1e-10).ellipsoid.mat
            boundary = sphere_points(n, 1000, rng) @ e_mat.T
            slack = body.A @ boundary.T - 1.0
            violations += int(np.sum(slack.max(axis=0) > 1e-9))
            verts = enumerate_vertices(body.as_polytope())
            norms = np.linalg.norm(np.linalg.solve(e_mat, verts.T), axis=0)
            violations += int(np.sum(norms > math.sqrt(n) + 1e-9))
            checked += boundary.shape[0] + verts.shape[0]
    report(4, "ellipsoid nesting E_x within body within sqrt(n) E_x",
           violations == 0, f"{checked} points, {violations} violations")


def test_criterion_05_step_lemma_envelope():
    rng = np.random.default_rng(3005)
    t0 = time.perf_counter()
    worst_det = 0.0
    worst_eig = 0.0
    for n in range(2, 9):
        rep = check_step_lemmas(cube(n), 200, 0.5, rng)
        worst_det = max(worst_det, rep.max_det_dev)
        worst_eig = max(worst_eig, rep.min_eig_dev)
    elapsed = time.perf_counter() - t0
    report(5, "det and eigenvalue envelopes, n=2..8 x200",
           worst_det <= 3.0 and worst_eig <= 3.0 and elapsed < 900.0,
           f"det dev {worst_det:.3f}, eig dev {worst_eig:.3f}, {elapsed:.0f}s")


def test_criterion_06_cross_ratio_bound():
    rng = np.random.default_rng(3006)
    pairs = 0
    violations = 0
    bodies = corpus(rng)
    while pairs < 1000:
        poly = bodies[pairs % len(bodies)]
        x = interior_points(poly, 1, rng)[0]
        ell = Ellipsoid(solve_mve(symmetrize(poly, x), gap=1e-10).ellipsoid.mat, x)
        for y in interior_points(poly, 7, rng):
            if np.array_equal(x, y):
                continue
            sigma = cross_ratio(poly, x, y)
            lower = local_norm(ell, y) / math.sqrt(poly.n) - 1e-9
            violations += int(sigma < lower)
            pairs += 1
    report(6, "cross-ratio dominates scaled local norm",
           violations == 0, f"{pairs} pairs, {violations} violations")


def test_criterion_07_kernel_symmetry():
    rng = np.random.default_rng(3007)
    config = WalkConfig(lazy=False)
    worst = 0.0
    for poly in (cube(2), random_polytope(3, 5, rng)):
        r = radius(poly.n, config.c)
        for _ in range(50):
            x = interior_points(poly, 1, rng)[0]
            y = x + rng.uniform(0.2, 2.0) * r * rng.standard_normal(poly.n)
            if not np.all(poly.slacks(y) > 0.0):
                continue
            pxy = transition_density(poly, x, y, config)
            pyx = transition_density(poly, y, x, config)
            worst = max(worst, abs(pxy - pyx))
    report(7, "transition density symmetric in x and y",
           worst <= 1e-10, f"worst asymmetry {worst:.2e}")


def test_criterion_08_uniformity_end_to_end():
    t0 = time.perf_counter()
    square = cube(2)
    samples, _ = run_chain(square, np.zeros(2), 50_000,
                           WalkConfig(seed=1, lazy=False))
    chain = samples[2_000:]
    min_ess = min(ess(chain[:, j]) for j in range(2))
    stride = len(chain) // 80
    p_value = uniformity_chi_square(square, chain[::stride], 4,
                                    (np.full(2, -1.0), np.ones(2)))
    sigma = math.sqrt((1.0 / 3.0) / min_ess)
    mean_max = float(np.abs(chain.mean(axis=0)).max())
    elapsed = time.perf_counter() - t0
    report(8, "walk uniformity on the square, 5e4 steps",
           p_value > 0.001 and mean_max <= 4.0 * sigma and elapsed < 300.0,
           f"p {p_value:.3f}, |mean| {mean_max:.3f} vs 4 sigma "
           f"{4 * sigma:.3f}, {elapsed:.0f}s")


def test_criterion_09_tv_of_nearby_balls():
    rng = np.random.default_rng(3009)
    t = 0.125
    worst_excess = -np.inf
    for n in (2, 5, 10):
        center = np.zeros(n)
        shifted = center.copy()
        shifted[0] = t / math.sqrt(n)
        est = estimate_tv_overlap(
            Ellipsoid(np.eye(n), center),
            Ellipsoid(np.eye(n), shifted),
            100_000,
            rng,
        )
        worst_excess = max(worst_excess, est.value - (t + 3.0 * est.se))
    report(9, "TV of unit balls shifted by t/sqrt(n)",
           worst_excess <= 0.0, f"worst excess over bound {worst_excess:.2e}")


def test_criterion_10_cutting_plane_conformance():
    d, level, rho = 3, 11.0, 8.0
    eps, tau, delta_v = 0.005, 0.007, 0.00037
    bracket = (
        1.4 * level
        + 2.0 * math.log(d)
        + 2.0 * math.log(1.0 + 1.0 / eps)
        + 0.5 * math.log((1.0 + tau) / (1.0 - eps))
        + 2.0 * math.log(rho)
        - math.log(2.0)
    )
    recomputed = math.ceil(d * bracket / delta_v)
    bound = iteration_bound(3, level=11.0, rho=8.0)
    bound_ok = bound == recomputed == 256_829

    target = np.array([0.35, -0.2])

    def oracle(y):
        if np.linalg.norm(y - target) <= 0.1:
            return None
        return y - target

    result = vaidya_feasibility(oracle, 2)
    found = result.status == "point" and oracle(result.point) is None
    rows_ok = result.state.peak_rows <= 201 * 2
    report(10, "cutting-plane budget, feasibility, row cap",
           bound_ok and found and rows_ok,
           f"bound {recomputed}, calls {result.oracle_calls}, "
           f"peak rows {result.state.peak_rows}")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(3011)

    worst_feasible = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        y = radius(n, 0.5) * rng.random() ** (1.0 / n) * direction
        norm_y = float(np.linalg.norm(y))
        beta = 1.0 - norm_y / math.sqrt(n)
        alpha = 2.0 * math.sqrt(n) / norm_y
        e_mat = beta * (np.eye(n) - alpha * np.outer(y, y))
        for _ in range(10):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            worst_feasible = max(
                worst_feasible,
                float(np.linalg.norm(e_mat @ u) - (1.0 - u @ y)),
            )

    worst_eig = np.inf
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        rows = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        alphas = rng.standard_normal(k)
        mats = rng.standard_normal((k, rows, n))
        gram = sum(m @ m.T for m in mats)
        mixed = sum(a * m for a, m in zip(alphas, mats))
        diff = float(alphas @ alphas) * gram - mixed @ mixed.T
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(diff)[0]))

    report(11, "feasible-matrix and matrix Cauchy-Schwarz suites",
           worst_feasible <= 1e-10 and worst_eig >= -1e-10,
           f"feasible slack {worst_feasible:.2e}, min eig {worst_eig:.2e}")


def test_criterion_12_manifest_determinism(tmp_path):
    poly_path = tmp_path / "square.json"
    poly_path.write_text(json.dumps({
        "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "b": [1, 1, 1, 1],
    }))
    first = str(tmp_path / "a")
    assert main(["sample", "--polytope", str(poly_path), "--steps", "400",
                 "--seed", "7", "--out", first]) == 0
    outputs = []
    for name in ("b", "c"):
        out = str(tmp_path / name)
        assert main(["sample", "--manifest", f"{first}.manifest.json",
                     "--out", out]) == 0
        outputs.append((tmp_path / f"{name}.samples.csv").read_bytes())
    identical = (outputs[0] == outputs[1]
                 == (tmp_path / "a.samples.csv").read_bytes())
    report(12, "manifest re-runs reproduce the CSV byte for byte",
           identical, f"{len(outputs[0])} bytes")
