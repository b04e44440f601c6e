"""Shared polytope builders and corpora for the test suite."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest

from johnswalk.errors import NumericalError
from johnswalk.geometry import Polytope, analytic_center


def cube(n: int, half_width: float = 1.0) -> Polytope:
    """Axis box [-w, w]^n."""
    eye = np.eye(n)
    return Polytope(np.vstack([eye, -eye]), np.full(2 * n, half_width))


def box(widths) -> Polytope:
    """Axis box with per-coordinate half-widths."""
    widths = np.asarray(widths, dtype=float)
    n = widths.size
    eye = np.eye(n)
    return Polytope(np.vstack([eye, -eye]), np.concatenate([widths, widths]))


def cross_polytope(n: int) -> Polytope:
    """{x : sum |x_i| <= 1}, all sign patterns as rows."""
    rows = np.array(list(product([1.0, -1.0], repeat=n)))
    return Polytope(rows, np.ones(rows.shape[0]))


def random_symmetric_polytope(n: int, pairs: int, rng) -> Polytope:
    """Origin-symmetric polytope with `pairs` +/- row pairs of unit normals.

    Normals are drawn uniformly on the sphere with the coordinate axes mixed
    in, so the body is bounded and has moderate aspect ratio.
    """
    normals = rng.normal(size=(pairs, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.vstack([np.eye(n), normals])
    rhs = np.concatenate([np.ones(n), rng.uniform(0.6, 1.5, size=pairs)])
    return Polytope(np.vstack([normals, -normals]), np.concatenate([rhs, rhs]))


def random_polytope(n: int, extra_rows: int, rng) -> Polytope:
    """Bounded, generally asymmetric polytope: a box plus random cuts kept
    loose enough that the origin stays strictly interior."""
    normals = rng.normal(size=(extra_rows, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    rhs = rng.uniform(0.5, 1.4, size=extra_rows)
    eye = np.eye(n)
    return Polytope(
        np.vstack([eye, -eye, normals]),
        np.concatenate([np.ones(2 * n), rhs]),
    )


def unit_normal_polytope(n: int, m: int, seed: int) -> Polytope:
    """{x : Ax <= 1} for m unit normals uniform on the sphere, drawn once per
    (n, m) and redrawn until the body is bounded, then turned by a random
    orthogonal map drawn from ``seed``."""
    shape_rng = np.random.default_rng([1803, n, m])
    while True:
        a = shape_rng.standard_normal((m, n))
        a /= np.linalg.norm(a, axis=1)[:, None]
        try:
            analytic_center(Polytope(a, np.ones(m)))
            break
        except NumericalError:
            continue
    q, r = np.linalg.qr(np.random.default_rng([seed, n, m]).standard_normal((n, n)))
    return Polytope(a @ (q * np.sign(np.diag(r))).T, np.ones(m))


def interior_points(poly: Polytope, count: int, rng, shrink: float = 0.7):
    """Rejection-sample strictly interior points from a box around the
    origin, then pull them toward the origin by `shrink`."""
    points = []
    scale = float(np.max(poly.b))
    while len(points) < count:
        x = rng.uniform(-scale, scale, size=poly.n) * shrink
        if np.all(poly.slacks(x) > 1e-6):
            points.append(x)
    return points


def enumerate_vertices(poly: Polytope) -> np.ndarray:
    """Brute-force vertex enumeration for small instances: intersect every
    n-subset of facets and keep feasible, nondegenerate solutions."""
    m, n = poly.m, poly.n
    verts = []
    for idx in combinations(range(m), n):
        sub = poly.A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, poly.b[list(idx)])
        if np.all(poly.A @ v <= poly.b + 1e-9 * (1.0 + np.abs(poly.b))):
            verts.append(v)
    if not verts:
        return np.empty((0, n))
    verts = np.array(verts)
    # dedupe
    keep = []
    for v in verts:
        if not any(np.linalg.norm(v - w) < 1e-8 for w in keep):
            keep.append(v)
    return np.array(keep)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
