"""Shared oracle helpers: brute-force counterparts of the fast paths."""

import numpy as np
import pytest

from amrdmd import mesh as mesh_mod


def exhaustive_locate(mesh, x, tol=1e-10):
    """Scan every element for containment; lowest containing id wins."""
    x = np.asarray(x, dtype=float)
    for eid in range(mesh.n_elems):
        lam = barycentric_in_element(mesh, eid, x)
        if np.all(lam >= -tol):
            return eid, lam
    return None, None


def barycentric_in_element(mesh, eid, x):
    pts = mesh.nodes[mesh.elements[eid]]
    if mesh.dim == 1:
        t = (x[0] - pts[0, 0]) / (pts[1, 0] - pts[0, 0])
        return np.array([1.0 - t, t])
    T = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
    l12 = np.linalg.solve(T, x - pts[0])
    return np.array([1.0 - l12.sum(), l12[0], l12[1]])


def piecewise_linear_1d(mesh, values):
    """Callable evaluating the P1 interpolant by searching segments."""
    order = np.argsort(mesh.nodes[:, 0])
    xs = mesh.nodes[order, 0]
    vs = values[order]

    def f(x):
        return np.interp(x, xs, vs)

    return f


def composite_integral_1d(f, a, b, n=10_000):
    """Composite midpoint quadrature, the independent integration oracle."""
    x = np.linspace(a, b, n + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    return float(np.sum(f(mid)) * (b - a) / n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_refined_interval(rng, n_base=5, passes=2, lo=0.0, hi=1.0):
    """A 1-d mesh on [lo, hi] after a couple of random refinement rounds."""
    m = mesh_mod.build_interval_mesh(lo, hi, n_base)
    for _ in range(passes):
        flags = [int(e) for e in range(m.n_elems) if rng.random() < 0.5]
        if flags:
            m = mesh_mod.refine(m, mesh_mod.RefinementPlan(refine=frozenset(flags)))
    return m


def random_refined_square(rng, nx=3, passes=2):
    m = mesh_mod.build_structured_triangle_mesh([0, 1], [0, 1], nx, nx)
    for _ in range(passes):
        flags = [int(e) for e in range(m.n_elems) if rng.random() < 0.35]
        if flags:
            m = mesh_mod.refine(m, mesh_mod.RefinementPlan(refine=frozenset(flags)))
    return m
