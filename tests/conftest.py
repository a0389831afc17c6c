"""Shared oracle helpers: brute-force counterparts of the fast paths."""

import numpy as np
import pytest
import scipy.sparse as sp

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


def coo_mass(mesh):
    """1-d P1 mass matrix summed from element blocks in COO form."""
    local = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    vals = mesh.element_measures()[:, None, None] * local[None, :, :]
    rows = np.repeat(mesh.elements, 2, axis=1).reshape(-1)
    cols = np.tile(mesh.elements, (1, 2)).reshape(-1)
    return sp.coo_matrix((vals.reshape(-1), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def coo_p1_operator(mesh, kappa, react, bc_node):
    """(kappa u', v') + (react u, v) in 1-d summed from element blocks in
    COO form; the row and column of bc_node are replaced by the identity's."""
    el = mesh.elements
    h = mesh.element_measures()
    r1 = react[el[:, 0]]
    r2 = react[el[:, 1]]
    a = 0.5 * (kappa[el[:, 0]] + kappa[el[:, 1]]) / h
    off = h * (r1 + r2) / 12.0 - a
    rows = np.concatenate([el[:, 0], el[:, 0], el[:, 1], el[:, 1]])
    cols = np.concatenate([el[:, 0], el[:, 1], el[:, 0], el[:, 1]])
    vals = np.concatenate([h * (3 * r1 + r2) / 12.0 + a, off, off,
                           h * (r1 + 3 * r2) / 12.0 + a])
    if bc_node is not None:
        keep = (rows != bc_node) & (cols != bc_node)
        rows = np.append(rows[keep], bc_node)
        cols = np.append(cols[keep], bc_node)
        vals = np.append(vals[keep], 1.0)
    n = mesh.n_nodes
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


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


def loop_normalize_elements_2d(nodes, elements):
    """Per-element refinement-edge choice: orient counterclockwise, then
    put first the vertex opposite the longest edge, ties (within 1e-12)
    broken by the smallest sorted node pair."""
    out = np.empty_like(elements)
    for i, el in enumerate(elements):
        p = nodes[el]
        d1, d2 = p[1] - p[0], p[2] - p[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0:
            el = el[[0, 2, 1]]
            p = nodes[el]
        lengths = [np.linalg.norm(p[(k + 2) % 3] - p[(k + 1) % 3]) for k in range(3)]
        lmax = max(lengths)
        best = None
        for k in range(3):
            if lengths[k] >= lmax * (1.0 - 1e-12):
                pair = tuple(sorted((int(el[(k + 1) % 3]), int(el[(k + 2) % 3]))))
                if best is None or pair < best[1]:
                    best = (k, pair)
        k = best[0]
        out[i] = [el[k], el[(k + 1) % 3], el[(k + 2) % 3]]
    return out
