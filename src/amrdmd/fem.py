"""P1 finite-element machinery on simplicial meshes.

Covers nodal fields, quadrature rules, mass-matrix assembly, integrals and
norms, a facet flux-jump refinement indicator, and a deterministic
Jacobi-preconditioned conjugate-gradient solver.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, InvalidArgumentError, SolverError
from .mesh import SimplicialMesh, facets, locate_points

SYMMETRY_TOL = 1e-12


@dataclass
class FeField:
    """Nodal coefficients of a P1 field bound to one mesh."""

    mesh: SimplicialMesh
    values: np.ndarray
    name: str = "u"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise InvalidArgumentError(
                f"field '{self.name}' has {self.values.shape} values for "
                f"{self.mesh.n_nodes} nodes")
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError(f"field '{self.name}' has non-finite values")


@dataclass
class SparseSpd:
    """Symmetric positive-definite matrix in CSR form."""

    matrix: scipy.sparse.csr_matrix

    def __post_init__(self):
        A = self.matrix.tocsr()
        asym = abs(A - A.T)
        scale = max(abs(A).max(), 1e-300)
        if asym.nnz and asym.max() > SYMMETRY_TOL * scale:
            raise InvalidArgumentError("matrix is not symmetric within tolerance")
        if np.any(A.diagonal() <= 0):
            raise InvalidArgumentError("matrix diagonal must be strictly positive")
        self.matrix = A

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dot(self, x):
        return self.matrix @ x


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference simplex in barycentric coordinates.

    Weights sum to the reference simplex measure (1 for the unit segment,
    1/2 for the unit triangle); integrals over a physical element scale by
    measure(element) / measure(reference).
    """

    dim: int
    points: np.ndarray   # (nq, dim + 1) barycentric
    weights: np.ndarray  # (nq,)
    degree: int = field(default=1)


def gauss_rule_1d(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on the unit segment, exact to `degree`."""
    npts = degree // 2 + 1
    x, w = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (x + 1.0)
    pts = np.column_stack([1.0 - t, t])
    return QuadratureRule(dim=1, points=pts, weights=0.5 * w, degree=2 * npts - 1)


def triangle_rule(degree: int) -> QuadratureRule:
    """Symmetric triangle rules: centroid (deg 1), 3-point (deg 2),
    6-point Dunavant (deg 4)."""
    if degree <= 1:
        pts = np.array([[1 / 3, 1 / 3, 1 / 3]])
        w = np.array([0.5])
        deg = 1
    elif degree == 2:
        pts = np.array([
            [2 / 3, 1 / 6, 1 / 6],
            [1 / 6, 2 / 3, 1 / 6],
            [1 / 6, 1 / 6, 2 / 3],
        ])
        w = np.full(3, 1 / 6)
        deg = 2
    else:
        a1, b1, w1 = 0.108103018168070, 0.445948490915965, 0.223381589678011
        a2, b2, w2 = 0.816847572980459, 0.091576213509771, 0.109951743655322
        pts = np.array([
            [a1, b1, b1], [b1, a1, b1], [b1, b1, a1],
            [a2, b2, b2], [b2, a2, b2], [b2, b2, a2],
        ])
        w = 0.5 * np.array([w1, w1, w1, w2, w2, w2])
        deg = 4
    return QuadratureRule(dim=2, points=pts, weights=w, degree=deg)


@functools.cache
def reference_rule(dim: int, degree: int) -> QuadratureRule:
    """Shared rule on the reference simplex, built once per (dim, degree);
    its arrays are read-only."""
    rule = gauss_rule_1d(degree) if dim == 1 else triangle_rule(degree)
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


# ---------------------------------------------------------------------------
# assembly and integrals

def assemble_mass(mesh: SimplicialMesh) -> SparseSpd:
    """Consistent P1 mass matrix from the analytic element formulas."""
    import scipy.sparse as sp
    measures = mesh.element_measures()
    if np.any(measures <= 0):
        bad = int(np.argmin(measures))
        raise AssemblyError(f"degenerate element {bad} (measure {measures[bad]:g})")
    k = mesh.dim + 1
    if mesh.dim == 1:
        local = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    else:
        local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = measures[:, None, None] * local[None, :, :]
    rows = np.repeat(mesh.elements, k, axis=1).reshape(-1)
    cols = np.tile(mesh.elements, (1, k)).reshape(-1)
    A = sp.coo_matrix((vals.reshape(-1), (rows, cols)),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    return SparseSpd(A)


def element_mass_quadrature(mesh: SimplicialMesh, degree: int = 2) -> np.ndarray:
    """Per-element mass matrices by quadrature (the assembly oracle path)."""
    rule = reference_rule(mesh.dim, degree)
    measures = mesh.element_measures()
    ref = 1.0 if mesh.dim == 1 else 0.5
    phi = rule.points                      # (nq, k): P1 basis == barycentric
    local = np.einsum("q,qi,qj->ij", rule.weights, phi, phi) / ref
    return measures[:, None, None] * local[None, :, :]


def evaluate(fld: FeField, x) -> float:
    """Point value of the P1 field (barycentric interpolation)."""
    return float(evaluate_many(fld, np.asarray(x, dtype=float).reshape(1, -1))[0])


def evaluate_many(fld: FeField, pts) -> np.ndarray:
    eids, bary = locate_points(fld.mesh, pts)
    return np.sum(fld.values[fld.mesh.elements[eids]] * bary, axis=1)


def integrate(fld: FeField) -> float:
    """Integral of the field over the mesh (degree-2 quadrature, exact for P1)."""
    rule = reference_rule(fld.mesh.dim, 2)
    ref = 1.0 if fld.mesh.dim == 1 else 0.5
    vals = fld.values[fld.mesh.elements]             # (ne, k)
    qvals = vals @ rule.points.T                     # (ne, nq)
    return float(np.sum(fld.mesh.element_measures() / ref * (qvals @ rule.weights)))


def l2_norm(fld: FeField) -> float:
    """L2 norm, exact for P1 (degree-2 quadrature of the squared field)."""
    rule = reference_rule(fld.mesh.dim, 2)
    ref = 1.0 if fld.mesh.dim == 1 else 0.5
    vals = fld.values[fld.mesh.elements]
    qvals = vals @ rule.points.T
    sq = np.sum(fld.mesh.element_measures() / ref * ((qvals ** 2) @ rule.weights))
    return float(np.sqrt(max(sq, 0.0)))


def inf_norm(fld: FeField) -> float:
    """Max-norm; P1 extrema sit at nodes."""
    return float(np.max(np.abs(fld.values))) if fld.values.size else 0.0


def element_gradients(fld: FeField) -> np.ndarray:
    """Constant gradient of the P1 field per element, shape (ne, dim)."""
    mesh = fld.mesh
    pts = mesh.nodes[mesh.elements]
    vals = fld.values[mesh.elements]
    if mesh.dim == 1:
        h = pts[:, 1, 0] - pts[:, 0, 0]
        return ((vals[:, 1] - vals[:, 0]) / h)[:, None]
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    du1 = vals[:, 1] - vals[:, 0]
    du2 = vals[:, 2] - vals[:, 0]
    gx = (du1 * d2[:, 1] - du2 * d1[:, 1]) / det
    gy = (-du1 * d2[:, 0] + du2 * d1[:, 0]) / det
    return np.column_stack([gx, gy])


def flux_jump_indicator(fld: FeField) -> np.ndarray:
    """Per-element score sqrt(sum_f h_f |f| [[grad u . n]]_f^2) over the
    element's interior facets; boundary facets contribute nothing.

    Conventions: in 2-d the facet size h_f is the edge length and |f| the
    same length; in 1-d the facet is a node with counting measure |f| = 1
    and h_f the mean of the two adjacent element sizes. Only the ranking
    of elements matters for refinement flagging.
    """
    mesh = fld.mesh
    grads = element_gradients(fld)
    keys, owners = facets(mesh)
    inner = owners[:, 1] >= 0
    e1, e2 = owners[inner].T
    jump = grads[e1] - grads[e2]
    if mesh.dim == 1:
        measures = mesh.element_measures()
        contrib = 0.5 * (measures[e1] + measures[e2]) * jump[:, 0] ** 2
    else:
        # h_f |f| (jump . n)^2 with n the unit normal of edge t is (jump x t)^2
        t = mesh.nodes[keys[inner, 1]] - mesh.nodes[keys[inner, 0]]
        contrib = (jump[:, 0] * t[:, 1] - jump[:, 1] * t[:, 0]) ** 2
    return np.sqrt(np.bincount(e1, contrib, mesh.n_elems)
                   + np.bincount(e2, contrib, mesh.n_elems))


# ---------------------------------------------------------------------------
# linear solver

def cg_solve(A: SparseSpd, b: np.ndarray, tol: float = 1e-12,
             max_iter: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients with a fixed iteration
    order, so repeated runs are bit-identical."""
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise InvalidArgumentError(f"rhs has shape {b.shape}, expected ({A.n},)")
    if max_iter is None:
        max_iter = 10 * A.n
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b)
    inv_diag = 1.0 / A.matrix.diagonal()
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * norm_b:
            return x
        Ap = A.dot(p)
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    res = float(np.linalg.norm(A.dot(x) - b) / norm_b)
    if res <= tol:
        return x
    raise SolverError(f"CG did not converge in {max_iter} iterations "
                      f"(relative residual {res:.3e})", residual=res)


# ---------------------------------------------------------------------------
# field file format: line 1 "n_nodes n_fields", line 2 names, then one row
# of values per node. Extension ".field.txt".

def save_fields(fields: list[FeField], path) -> None:
    if not fields:
        raise InvalidArgumentError("no fields to save")
    n = fields[0].mesh.n_nodes
    for f in fields:
        if f.mesh.n_nodes != n:
            raise InvalidArgumentError("fields must share one mesh")
        if " " in f.name:
            raise InvalidArgumentError(f"field name {f.name!r} contains spaces")
    with open(path, "w") as fh:
        fh.write(f"{n} {len(fields)}\n")
        fh.write(" ".join(f.name for f in fields) + "\n")
        row = " ".join(["%.17g"] * len(fields)) + "\n"
        fh.writelines(row % r for r in zip(*(f.values.tolist() for f in fields)))


def load_fields(path, mesh: SimplicialMesh) -> dict[str, FeField]:
    with open(path) as fh:
        try:
            head = fh.readline().split()
            if len(head) != 2:
                raise ValueError("expected 'n_nodes n_fields'")
            n_nodes, n_fields = int(head[0]), int(head[1])
            names = fh.readline().split()
            if len(names) != n_fields:
                raise ValueError("field name count mismatch")
            if len(set(names)) != n_fields:
                raise ValueError(f"repeated field name in {names}")
            table = np.loadtxt(fh, max_rows=n_nodes, ndmin=2,
                               dtype=float).reshape(n_nodes, n_fields)
        except (ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"malformed field file {path}: {exc}") from exc
    if n_nodes != mesh.n_nodes:
        raise InvalidArgumentError(
            f"field file has {n_nodes} nodes, mesh has {mesh.n_nodes}")
    return {name: FeField(mesh=mesh, values=table[:, j], name=name)
            for j, name in enumerate(names)}
