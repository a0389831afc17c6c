"""Shared oracle helpers: brute-force counterparts of the fast paths."""

import os
import subprocess
import sys
import warnings
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from amrdmd import fem, mesh as mesh_mod, seird_sim as S
from amrdmd.dmd import DmdModel, SnapshotMatrix
from amrdmd.errors import AssemblyError, InvalidArgumentError, StepError, StoreError
from amrdmd.linalg import gaussian_matrix
from amrdmd.mesh import (SimplicialMesh, _check_tables, _normalize_elements,
                         validate_mesh)
from amrdmd.store import Store, StoreEntry


def fresh_python(*args, cwd=None, preexec_fn=None, timeout=120, **env_vars):
    """Run a new interpreter that imports the package from this tree, with
    env_vars added to the environment."""
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        [str(Path(fem.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=timeout,
                          preexec_fn=preexec_fn)


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


def blocks_matrix(B, n_cols):
    """A fem.ElementBlocks as a CSR matrix with n_cols columns, its blocks
    summed entry by entry in one COO conversion."""
    rows, cols = np.broadcast_arrays(B.rows[:, None, :], B.cols[None, :, :])
    return sp.coo_matrix((B.blocks.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
                         shape=(B.n_rows, n_cols)).tocsr()


def coupling_matrix(op):
    """The coupling P of an l2projection.ProjectionOperator as a CSR matrix
    of shape (target nodes, donor nodes)."""
    return blocks_matrix(op.P, op.donor.n_nodes)


def spd_matrix(A):
    """The matrix of a fem.SparseSpd in CSR form, built from its element
    blocks or from its bands."""
    if A.blocks is not None:
        return blocks_matrix(A.blocks, A.n)
    o = np.arange(A.n) if A.order is None else A.order
    return sp.coo_matrix(
        (np.concatenate([A.diag, A.off, A.off]),
         (np.concatenate([o, o[:-1], o[1:]]),
          np.concatenate([o, o[1:], o[:-1]]))),
        shape=(A.n, A.n)).tocsr()


# ---------------------------------------------------------------------------
# quadrature on the reference simplex: the library integrates in closed form,
# these rules are the independent check

# points (nq, dim + 1) in barycentric coordinates; the weights sum to the
# reference measure (1 for the unit segment, 1/2 for the unit triangle), so
# integrals over an element scale by measure(element) / measure(reference)
QuadratureRule = namedtuple("QuadratureRule", "points weights degree")


def gauss_rule_1d(degree):
    """Gauss-Legendre rule on the unit segment, exact to `degree`."""
    npts = degree // 2 + 1
    x, w = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (x + 1.0)
    return QuadratureRule(np.column_stack([1.0 - t, t]), 0.5 * w, 2 * npts - 1)


def triangle_rule(degree):
    """The symmetric 3-point rule, exact to degree 2."""
    if degree > 2:
        raise InvalidArgumentError(f"no triangle rule of degree {degree}")
    pts = np.array([
        [2 / 3, 1 / 6, 1 / 6],
        [1 / 6, 2 / 3, 1 / 6],
        [1 / 6, 1 / 6, 2 / 3],
    ])
    return QuadratureRule(pts, np.full(3, 1 / 6), 2)


def quadrature_rule(dim, degree):
    return gauss_rule_1d(degree) if dim == 1 else triangle_rule(degree)


def rule_integral(mesh, values):
    """Integral of the P1 field by the degree-2 rule on every element."""
    rule = quadrature_rule(mesh.dim, 2)
    ref = 1.0 if mesh.dim == 1 else 0.5
    qvals = values[mesh.elements] @ rule.points.T    # (ne, nq)
    return float(np.sum(mesh.element_measures() / ref * (qvals @ rule.weights)))


def gauss_product_load(h, factors):
    """Load vector of the product of nodal P1 factors on the chain of
    elements of lengths h, by 3-point Gauss (exact to degree 5)."""
    rule = gauss_rule_1d(5)
    phi, w = rule.points, rule.weights
    prod_q = np.ones((h.size, phi.shape[0]))
    for f in factors:
        prod_q *= np.column_stack((f[:-1], f[1:])) @ phi.T
    rhs = np.zeros(h.size + 1)
    rhs[:-1] += h * ((prod_q * phi[:, 0]) @ w)
    rhs[1:] += h * ((prod_q * phi[:, 1]) @ w)
    return rhs


def element_mass_quadrature(mesh, degree=2):
    """Per-element mass matrices by quadrature (the assembly oracle path)."""
    rule = quadrature_rule(mesh.dim, degree)
    measures = mesh.element_measures()
    ref = 1.0 if mesh.dim == 1 else 0.5
    phi = rule.points                      # (nq, k): P1 basis == barycentric
    local = np.einsum("q,qi,qj->ij", rule.weights, phi, phi) / ref
    return measures[:, None, None] * local[None, :, :]


def l2_norm(mesh, values):
    """L2 norm, exact for P1 (degree-2 quadrature of the squared field)."""
    rule = quadrature_rule(mesh.dim, 2)
    ref = 1.0 if mesh.dim == 1 else 0.5
    qvals = values[mesh.elements] @ rule.points.T
    sq = np.sum(mesh.element_measures() / ref * ((qvals ** 2) @ rule.weights))
    return float(np.sqrt(max(sq, 0.0)))


def partition_defect(op):
    """max |P 1_donor - M 1_target| of an l2projection.ProjectionOperator;
    both sides equal the integrals of the target shape functions, so this
    vanishes up to roundoff."""
    ones_d = np.ones(op.donor.n_nodes)
    ones_t = np.ones(op.target.n_nodes)
    return float(np.max(np.abs(op.P.dot(ones_d) - op.M.dot(ones_t))))


def _clip_left(poly, a, b):
    """The part of the convex polygon poly, a list of (x, y), on the left of
    the directed line a -> b (Sutherland-Hodgman, one edge)."""
    def side(p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        sp_, sq = side(p), side(q)
        if sp_ >= 0:
            out.append(p)
        if (sp_ > 0 > sq) or (sp_ < 0 < sq):
            t = sp_ / (sp_ - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _affine_barycentric(mesh):
    """Per element (x0, y0, inverse Jacobian rows): the barycentrics of a
    point x are (1 - l1 - l2, l1, l2) with (l1, l2) = J^-1 (x - x0)."""
    out = []
    for p in mesh.nodes[mesh.elements]:
        J = np.column_stack([p[1] - p[0], p[2] - p[0]])
        out.append((*p[0], *np.linalg.inv(J).ravel()))
    return out


def _bary(aff, x, y):
    x0, y0, a, b, c, d = aff
    l1 = a * (x - x0) + b * (y - y0)
    l2 = c * (x - x0) + d * (y - y0)
    return (1.0 - l1 - l2, l1, l2)


def coo_coupling_2d(donor, target):
    """The 2-d coupling P of l2projection.build_projection from the common
    refinement, one scalar step at a time: every donor element whose
    bounding box meets a target element's clips it in physical coordinates,
    each fan triangle of the clip gets the 3-point rule (exact for the
    product of two linear functions), and the 3 x 3 COO triples of its
    points are summed in one CSR conversion."""
    rule = triangle_rule(2)
    d_pts = donor.nodes[donor.elements]
    d_lo, d_hi = d_pts.min(axis=1), d_pts.max(axis=1)
    d_aff, t_aff = _affine_barycentric(donor), _affine_barycentric(target)
    d_tri = [[tuple(v) for v in p] for p in d_pts.tolist()]
    rows, cols, vals = [], [], []
    for e, corners in enumerate(target.nodes[target.elements]):
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        near = np.flatnonzero(np.all((d_lo <= hi) & (d_hi >= lo), axis=1))
        for f in near.tolist():
            poly = [tuple(v) for v in corners.tolist()]
            tri = d_tri[f]
            for i in range(3):
                poly = _clip_left(poly, tri[i], tri[(i + 1) % 3])
                if not poly:
                    break
            for i in range(1, len(poly) - 1):
                (x0, y0), (x1, y1), (x2, y2) = poly[0], poly[i], poly[i + 1]
                area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
                if area <= 0:
                    continue
                for (b0, b1, b2), w in zip(rule.points.tolist(), rule.weights.tolist()):
                    x = b0 * x0 + b1 * x1 + b2 * x2
                    y = b0 * y0 + b1 * y1 + b2 * y2
                    phi = _bary(t_aff[e], x, y)
                    lam = _bary(d_aff[f], x, y)
                    for a in range(3):
                        for b in range(3):
                            rows.append(target.elements[e, a])
                            cols.append(donor.elements[f, b])
                            vals.append(w / 0.5 * area * phi[a] * lam[b])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(target.n_nodes, donor.n_nodes)).tocsr()


def rank_check(op):
    """Numerical rank of P via column-pivoted QR with relative threshold
    1e-10 on the diagonal of R."""
    dense = coupling_matrix(op).toarray()
    R = scipy.linalg.qr(dense, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.sum(diag > 1e-10 * diag[0]))


def synth_linear_series(eigenvalues, n, m, seed, dt_o=1.0, t0=0.0):
    """Snapshots of u_{k+1} = A u_k for a real map with the prescribed
    eigenvalues, in a random orthonormal modal basis. Complex eigenvalues
    must come in conjugate pairs; the series is real. Deterministic for a
    fixed seed."""
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    k = lam.size
    if k > m:
        raise InvalidArgumentError("more eigenvalues than snapshot pairs")
    if n < k:
        raise InvalidArgumentError("state dimension below eigenvalue count")
    for i in range(k):
        for j in range(i + 1, k):
            if abs(lam[i] - lam[j]) <= 1e-12:
                raise InvalidArgumentError("eigenvalues must be distinct")
    # real block-diagonal form; conjugate pairs share one rotation block
    used = np.zeros(k, dtype=bool)
    blocks = []
    for i in range(k):
        if used[i]:
            continue
        if abs(lam[i].imag) <= 1e-14:
            blocks.append(np.array([[lam[i].real]]))
            used[i] = True
            continue
        conj_idx = [j for j in range(k) if not used[j] and j != i
                    and abs(lam[j] - np.conj(lam[i])) <= 1e-12]
        if not conj_idx:
            raise InvalidArgumentError(
                f"complex eigenvalue {lam[i]} lacks its conjugate")
        rho = abs(lam[i])
        theta = abs(np.angle(lam[i]))
        blocks.append(rho * np.array([[np.cos(theta), -np.sin(theta)],
                                      [np.sin(theta), np.cos(theta)]]))
        used[i] = used[conj_idx[0]] = True
    B = np.zeros((k, k))
    pos = 0
    for blk in blocks:
        w = blk.shape[0]
        B[pos:pos + w, pos:pos + w] = blk
        pos += w

    basis, _ = np.linalg.qr(gaussian_matrix(n, k, seed))
    offset = 0
    while True:
        coeffs = 1.0 + 0.25 * gaussian_matrix(k, 1, seed + 1 + offset)[:, 0]
        if np.min(np.abs(coeffs)) > 0.05:
            break
        offset += 1
    states = np.empty((k, m + 1))
    x = coeffs.copy()
    for col in range(m + 1):
        states[:, col] = x
        x = B @ x
    data = basis @ states
    return SnapshotMatrix(data=data, t0=t0, dt_o=dt_o, field_name="synthetic")


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


# ---------------------------------------------------------------------------
# the SEIRD step in node order, as it ran before the band layout

def p1_tridiagonal(mesh, w0, w1, off, bc_node=None):
    """Band form of the 1-d P1 matrix that gets, per element, w0 and w1 on
    the diagonal entries of its first and second node and off on the entry
    that couples them, built in node order: rows are ordered by node
    coordinate, so every element must join two coordinate neighbours. The
    row and column of bc_node, when given, are those of the identity."""
    n = mesh.n_nodes
    order = np.argsort(mesh.nodes[:, 0], kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    p0, p1 = pos[mesh.elements].T
    apart = np.abs(p1 - p0) != 1
    if np.any(apart):
        bad = int(np.argmax(apart))
        raise AssemblyError(f"element {bad} joins nodes that are not "
                            f"coordinate neighbours")
    diag = np.bincount(p0, w0, n) + np.bincount(p1, w1, n)
    band = np.bincount(np.minimum(p0, p1), off, n - 1)
    if bc_node is not None:
        k = pos[bc_node]
        diag[k] = 1.0
        band[max(k - 1, 0):k + 1] = 0.0
    return fem.SparseSpd(bands=(order, diag, band))


def node_order_operator(mesh, kappa, react, bc_node):
    el = mesh.elements
    h = mesh.element_measures()
    r1 = react[el[:, 0]]
    r2 = react[el[:, 1]]
    a = 0.5 * (kappa[el[:, 0]] + kappa[el[:, 1]]) / h
    return p1_tridiagonal(mesh, h * (3 * r1 + r2) / 12.0 + a,
                          h * (r1 + 3 * r2) / 12.0 + a,
                          h * (r1 + r2) / 12.0 - a, bc_node)


def node_order_solve(A, rhs, bc_node):
    if bc_node is not None:
        rhs = rhs.copy()
        rhs[bc_node] = 0.0
    return fem.cg_solve(A, rhs)


def node_order_product_load(mesh, factors):
    """seird_sim._product_load's closed form in node order."""
    el = mesh.elements
    h = mesh.element_measures()
    f, g, k = (v[el] for v in factors)
    fg0, fg1 = f[:, 0] * g[:, 0], f[:, 1] * g[:, 1]
    fgx = f[:, 0] * g[:, 1] + f[:, 1] * g[:, 0]
    c30, c03 = fg0 * k[:, 0], fg1 * k[:, 1]
    c21, c12 = fg0 * k[:, 1] + fgx * k[:, 0], fgx * k[:, 1] + fg1 * k[:, 0]
    w = h / 120.0
    rhs = np.zeros(mesh.n_nodes)
    np.add.at(rhs, el[:, 0], w * (24.0 * c30 + 6.0 * c21 + 4.0 * c12 + 6.0 * c03))
    np.add.at(rhs, el[:, 1], w * (6.0 * c30 + 4.0 * c21 + 6.0 * c12 + 24.0 * c03))
    return rhs


def node_order_dirichlet_node(mesh):
    right = mesh.nodes[:, 0].max()
    return int(np.where(np.abs(mesh.nodes[:, 0] - right) <= 1e-12)[0][0])


def node_order_step(state, params, dirichlet_right=True):
    """seird_sim.step with every vector in node order and every operator
    built through p1_tridiagonal."""
    mesh = state.mesh
    u = state.fields
    up = state.prev_fields
    dt = params.dt
    M = fem.assemble_mass(mesh)
    bc = node_order_dirichlet_node(mesh) if dirichlet_right else None
    op, solve = node_order_operator, node_order_solve

    if up is None:
        c0 = 1.0 / dt
        hist = {c: M.dot(u[c]) / dt for c in S.COMPARTMENTS}
    else:
        c0 = 1.5 / dt
        hist = {c: M.dot(2.0 * u[c] - 0.5 * up[c]) / dt for c in S.COMPARTMENTS}

    ones = np.ones(mesh.n_nodes)
    A_dc = op(mesh, np.zeros(mesh.n_nodes), c0 * ones, bc)

    lag = {c: u[c].copy() for c in S.COMPARTMENTS}
    for _ in range(S.PICARD_MAX):
        n_pop = lag["s"] + lag["e"] + lag["i"] + lag["r"]
        if params.A_e > 0:
            sigma = 1.0 - params.A_e / np.maximum(n_pop, 1e-12)
        else:
            sigma = ones
        new = {}

        react_s = sigma * (params.beta_i * lag["i"] + params.beta_e * lag["e"])
        new["s"] = solve(op(mesh, params.nu_s * n_pop, c0 + react_s, bc),
                         hist["s"], bc)

        react_e = (params.alpha + params.gamma_e) * ones \
            - params.beta_e * sigma * new["s"]
        src_e = node_order_product_load(
            mesh, [params.beta_i * sigma, new["s"], lag["i"]])
        new["e"] = solve(op(mesh, params.nu_e * n_pop, c0 + react_e, bc),
                         hist["e"] + src_e, bc)

        react_i = (params.gamma_i + params.delta) * ones
        new["i"] = solve(op(mesh, params.nu_i * n_pop, c0 + react_i, bc),
                         hist["i"] + params.alpha * M.dot(new["e"]), bc)

        new["r"] = solve(op(mesh, params.nu_r * n_pop, c0 * ones, bc),
                         hist["r"] + params.gamma_e * M.dot(new["e"])
                         + params.gamma_i * M.dot(new["i"]), bc)

        new["d"] = solve(A_dc, hist["d"] + params.delta * M.dot(new["i"]), bc)
        new["c"] = solve(A_dc, hist["c"] + params.alpha * M.dot(new["e"]), bc)

        change = 0.0
        for c in S.COMPARTMENTS:
            scale = max(float(np.max(np.abs(new[c]))), 1e-14)
            change = max(change, float(np.max(np.abs(new[c] - lag[c]))) / scale)
        lag = new
        if change <= S.PICARD_TOL:
            break
    else:
        raise StepError("Picard iteration stalled")

    return S.SeirdState(mesh=mesh, fields=new,
                        prev_fields={c: u[c].copy() for c in S.COMPARTMENTS},
                        time=state.time + dt, step_index=state.step_index + 1)


def element_keys(mesh):
    """The (root, path) key of every element; element i of a mesh with no
    refinement history is the root (i, 1)."""
    if mesh.lineage is None:
        return [(i, 1) for i in range(mesh.n_elems)]
    return list(mesh.lineage)


def element_rows(nodes, elements, keys):
    """(corner coordinates, key) of every element, sorted: the same for any
    numbering of the nodes and the elements."""
    corners = nodes[elements].reshape(len(elements), -1).tolist()
    return sorted(zip(map(tuple, corners), keys))


def loop_refine(mesh, plan):
    """Plain-loop reference for mesh.refine on a valid plan: merge each
    flagged sibling pair whose midpoint only flagged pairs use, then bisect
    each flagged element in ascending order, first bisecting any neighbour
    across its refinement edge that does not share that edge as its own
    (recursive newest-vertex closure). Returns (nodes, elements, keys):
    untouched elements in order, merged parents by (midpoint, smaller child
    id), then children in order of creation; nodes in order of creation."""
    dim = mesh.dim
    coords = mesh.nodes.tolist()
    keys = element_keys(mesh)
    elems = {i: (tuple(el), keys[i]) for i, el in enumerate(mesh.elements.tolist())}
    next_id = mesh.n_elems
    incident = np.bincount(mesh.elements.ravel())
    pairs = {}
    for e in sorted(plan.coarsen):
        r, p = keys[e]
        pairs.setdefault((r, p >> 1), []).append(e)
    units = {}
    for parent, kids in pairs.items():
        first, second = sorted(kids, key=lambda e: keys[e][1])
        mid = elems[first][0][1 if dim == 1 else 0]
        units.setdefault(mid, []).append((min(kids), parent, first, second))
    for mid in sorted(units):
        if incident[mid] == 2 * len(units[mid]):
            for _, parent, first, second in sorted(units[mid]):
                c1, c2 = elems.pop(first)[0], elems.pop(second)[0]
                elems[next_id] = ((c1[0], c2[1]) if dim == 1
                                  else (c1[1], c1[2], c2[1]), parent)
                next_id += 1

    def bisect(e):
        nonlocal next_id
        while e in elems:
            edge = set(elems[e][0][-2:])          # (a, b) of (a, b) or (p, a, b)
            nbrs = [f for f in elems if f != e and edge <= set(elems[f][0])]
            if nbrs and set(elems[nbrs[0]][0][-2:]) != edge:
                bisect(nbrs[0])
                continue
            a, b = elems[e][0][-2:]
            coords.append((0.5 * (np.array(coords[a]) + np.array(coords[b]))).tolist())
            m = len(coords) - 1
            for f in [e] + nbrs:
                el, (r, p) = elems.pop(f)
                kids = ([(el[0], m), (m, el[1])] if dim == 1
                        else [(m, el[0], el[1]), (m, el[2], el[0])])
                for k, kid in enumerate(kids):
                    elems[next_id] = (kid, (r, 2 * p + k))
                    next_id += 1

    for e in sorted(plan.refine):
        bisect(e)
    order = sorted(elems)
    elements = np.array([elems[i][0] for i in order])
    used = np.unique(elements)
    remap = np.zeros(len(coords), dtype=np.int64)
    remap[used] = np.arange(used.size)
    return (np.array(coords)[used], remap[elements],
            [elems[i][1] for i in order])


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


def graded_square(rng, nx=2, passes=5):
    """A unit-square mesh refined `passes` times around a random focus in
    the lower-left quarter: pass k bisects the elements whose centroid is
    within 0.4 / 1.5**k of it, so the upper-right corner stays at level 0
    while the elements at the focus reach level `passes` or more."""
    m = mesh_mod.build_structured_triangle_mesh([0, 1], [0, 1], nx, nx)
    focus = rng.uniform(0, 0.5, size=2)
    for k in range(passes):
        centroids = m.nodes[m.elements].mean(axis=1)
        near = np.hypot(*(centroids - focus).T) <= 0.4 / 1.5 ** k
        m = mesh_mod.refine(m, mesh_mod.RefinementPlan(
            refine=frozenset(np.flatnonzero(near).tolist())))
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


# ---------------------------------------------------------------------------
# the four readers that mesh._read_table replaced, verbatim but for their
# names and old_read_store's calls of the other two: the oracles of
# tests/test_tables.py

def old_load_mesh(path) -> SimplicialMesh:
    """Read a mesh file. Refinement history is not stored in the format, so
    loaded elements come back at level 0 with orientation normalized and,
    in 2-d, the longest edge chosen as refinement edge (ties broken by
    smallest sorted node pair)."""
    with open(path) as fh:
        first = fh.readline().split()
        try:
            if len(first) != 3:
                raise ValueError("expected 'dim n_nodes n_elems'")
            dim, n_nodes, n_elems = (int(v) for v in first)
            if n_elems < 1 or n_nodes < 1:
                raise ValueError("a mesh needs at least one element and one node")
            with warnings.catch_warnings():   # a short table fails the reshape
                warnings.simplefilter("ignore", UserWarning)
                nodes = np.loadtxt(fh, max_rows=n_nodes, ndmin=2,
                                   dtype=float).reshape(n_nodes, dim)
                elements = np.loadtxt(fh, max_rows=n_elems, ndmin=2,
                                      dtype=np.int64).reshape(n_elems, dim + 1)
            if fh.read().strip():
                raise ValueError(f"rows after the {n_elems} element rows")
            _check_tables(dim, nodes, elements)   # before _normalize_elements
            orphan = np.flatnonzero(np.bincount(elements.ravel(),
                                                minlength=n_nodes) == 0)
            if orphan.size:
                raise ValueError(f"node {orphan[0]} belongs to no element")
            mesh = SimplicialMesh(dim=dim, nodes=nodes,
                                  elements=_normalize_elements(dim, nodes, elements))
            validate_mesh(mesh)
        except (ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"malformed mesh file {path}: {exc}") from exc
    return mesh


def old_load_fields(path, mesh: SimplicialMesh, names=None) -> dict[str, np.ndarray]:
    """Read a file written by save_fields as {name: values}: every field, or
    those of `names` that it holds (the caller reports missing ones). The
    whole file's shape is checked; only the returned columns are converted
    to floats, and each must be finite."""
    with open(path) as fh:
        try:
            head = fh.readline().split()
            if len(head) != 2:
                raise ValueError("expected 'n_nodes n_fields'")
            n_nodes, n_fields = int(head[0]), int(head[1])
            if n_nodes != mesh.n_nodes:
                raise ValueError(f"{n_nodes} nodes, mesh has {mesh.n_nodes}")
            file_names = fh.readline().split()
            if len(file_names) != n_fields:
                raise ValueError("field name count mismatch")
            if len(set(file_names)) != n_fields:
                raise ValueError(f"repeated field name in {file_names}")
            body = fh.read()
            if "_" in body or not body.isascii():  # float() takes 1_0, non-ASCII digits
                raise ValueError("a value is not a plain decimal number")
            rows = [row for row in map(str.split, body.split("\n")) if row]
            if len(rows) != n_nodes or any(len(row) != n_fields for row in rows):
                raise ValueError(f"expected {n_nodes} rows of {n_fields} values")
            out = {name: np.array([row[j] for row in rows], dtype=float)
                   for j, name in enumerate(file_names)
                   if names is None or name in names}
            bad = [name for name, v in out.items() if not np.isfinite(v).all()]
            if bad:
                raise ValueError(f"field '{bad[0]}' has non-finite values")
            return out
        except ValueError as exc:
            raise InvalidArgumentError(f"malformed field file {path}: {exc}") from exc


def old_load_model(path) -> DmdModel:
    with open(path) as fh:
        try:
            head = fh.readline().split()
            if len(head) != 5:
                raise ValueError("expected 'n r t0 dt_o field_name'")
            n, r = int(head[0]), int(head[1])
            t0, dt_o, name = float(head[2]), float(head[3]), head[4]
            if not (np.isfinite(t0) and np.isfinite(dt_o) and dt_o > 0):
                raise ValueError(f"t0 = {head[2]} must be finite and "
                                 f"dt_o = {head[3]} finite and positive")
            with warnings.catch_warnings():   # a short table fails the shape check
                warnings.simplefilter("ignore", UserWarning)
                raw = np.loadtxt(fh, max_rows=(3 + n) * r, ndmin=2, dtype=float)
            if fh.read().strip():
                raise ValueError(f"rows after the {(3 + n) * r} table rows")
        except (ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"malformed model file {path}: {exc}") from exc
    if raw.shape != ((3 + n) * r, 2):
        raise InvalidArgumentError(f"model file {path} truncated")
    z = raw[:, 0] + 1j * raw[:, 1]
    lam = z[:r]
    omega = z[r:2 * r]
    b = z[2 * r:3 * r]
    modes = z[3 * r:].reshape(r, n).T
    aliased = tuple(int(i) for i in np.where((lam.real < 0) & (lam.imag == 0))[0])
    return DmdModel(rank=r, lam=lam, omega=omega, modes=modes, amplitudes=b,
                    t0=t0, dt_o=dt_o, field_name=name, aliased_modes=aliased)


def old_read_store(store_dir, fields=None, t_start=None, t_end=None) -> Store:
    """Read a store in this process. Every manifest line is checked, but the
    mesh and field files are opened only for the snapshots with
    t_start <= time <= t_end, compared exactly (an omitted bound is open),
    the only entries returned; of each field file only the columns named in
    fields (all when None) are converted. The first fault in manifest order
    is raised: StoreError for a damaged manifest, mesh or field file, OSError
    for a missing one."""
    root = Path(store_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise StoreError(f"no manifest.txt in {root}")
    if (root / ".failed").exists():
        raise StoreError(f"store {root} is marked failed")
    mesh_cache = {}
    entries = []
    index_lines = {}
    for line_no, raw in enumerate(manifest.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        try:
            if len(parts) != 4:
                raise ValueError("expected 'index time mesh_file field_file'")
            idx, t_str, mesh_file, field_file = parts
            index, time = int(idx), float(exact := Fraction(t_str))
            for name in (mesh_file, field_file):
                if name in (".", "..") or "/" in name or "\\" in name:
                    raise ValueError(f"file name {name!r} leaves the store")
            if index_lines.setdefault(index, line_no) != line_no:
                raise ValueError(f"index {index} repeats line {index_lines[index]}")
        except (ValueError, OverflowError) as exc:
            raise StoreError(f"malformed line {line_no} of {manifest}: "
                             f"{raw!r} ({exc})") from exc
        if not ((t_start is None or exact >= t_start)
                and (t_end is None or exact <= t_end)):
            continue
        try:
            if mesh_file not in mesh_cache:
                mesh_cache[mesh_file] = old_load_mesh(root / mesh_file)
            msh = mesh_cache[mesh_file]
            read = old_load_fields(root / field_file, msh, fields)
        except InvalidArgumentError as exc:     # its message names the file
            raise StoreError(str(exc)) from exc
        entries.append(StoreEntry(index=index, time_str=t_str, time=time,
                                  mesh_file=mesh_file, field_file=field_file, mesh=msh,
                                  fields=read))
    entries.sort(key=lambda e: e.index)
    return Store(path=root, entries=entries)
