"""P1 finite-element machinery on simplicial meshes.

Covers nodal fields, quadrature rules, mass-matrix assembly, integrals and
norms, a facet flux-jump refinement indicator, and a deterministic
factor-then-verify solver: an exact tridiagonal solve in 1-d, Jacobi-
preconditioned conjugate gradients in 2-d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, InvalidArgumentError, SolverError
from .mesh import SimplicialMesh, band_layout, facets, locate_points

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


class SparseSpd:
    """Symmetric positive-definite matrix with the preconditioner that
    cg_solve applies to it.

    Either a CSR `matrix`, checked for symmetry and preconditioned by its
    diagonal (Jacobi), or `bands=(order, diag, off)`: a tridiagonal matrix
    with main diagonal diag (n,) and first off-diagonal off (n - 1,), whose
    k-th row and column belong to vector entry order[k], or to entry k when
    order is None. The band form is symmetric by construction; its
    preconditioner is its exact LDL^T factor, computed on the first solve."""

    def __init__(self, matrix=None, *, bands=None):
        if bands is None:
            A = matrix.tocsr()
            asym = abs(A - A.T)
            scale = max(abs(A).max(), 1e-300)
            if asym.nnz and asym.max() > SYMMETRY_TOL * scale:
                raise InvalidArgumentError("matrix is not symmetric within tolerance")
            self.order, self.diag, self.off, self._csr = None, A.diagonal(), None, A
        else:
            self.order, self.diag, self.off = bands
            self._csr = None
        if (self.diag <= 0).any():
            raise InvalidArgumentError("matrix diagonal must be strictly positive")
        self._factor = None

    @classmethod
    def from_chain(cls, w0, w1, off, pin=None, order=None) -> "SparseSpd":
        """Band form of a matrix summed over a chain of elements: element k
        adds w0[k] and w1[k] to the diagonal entries of rows k and k + 1 and
        off[k] to the entries that couple them, with rows permuted by order
        as in the class docstring. Row pin, when given, and its column are
        those of the identity."""
        diag = np.zeros(w0.size + 1)
        diag[:-1] = w0
        diag[1:] += w1
        if pin is not None:
            diag[pin] = 1.0
            off = off.copy()
            off[max(pin - 1, 0):pin + 1] = 0.0
        return cls(bands=(order, diag, off))

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def matrix(self):
        """The matrix in CSR form, built from the bands on first use."""
        if self._csr is None:
            import scipy.sparse as sp
            o = np.arange(self.n) if self.order is None else self.order
            self._csr = sp.coo_matrix(
                (np.concatenate([self.diag, self.off, self.off]),
                 (np.concatenate([o, o[:-1], o[1:]]),
                  np.concatenate([o, o[1:], o[:-1]]))),
                shape=(self.n, self.n)).tocsr()
        return self._csr

    def dot(self, x):
        """A x; for the band form x may also be a stack (..., n)."""
        if self.off is None:
            return self._csr @ x
        xs = x if self.order is None else x[..., self.order]
        ys = self.diag * xs
        ys[..., :-1] += self.off * xs[..., 1:]
        ys[..., 1:] += self.off * xs[..., :-1]
        if self.order is None:
            return ys
        y = np.empty_like(ys)
        y[..., self.order] = ys
        return y

    def precondition(self, r):
        """The exact solve for the band form, the inverse diagonal for CSR."""
        if self.off is None:
            if self._factor is None:
                self._factor = 1.0 / self.diag
            return self._factor * r
        from scipy.linalg.lapack import dpttrf, dpttrs
        if self._factor is None:
            d, e, info = dpttrf(self.diag, self.off)
            if info != 0:
                raise SolverError(f"tridiagonal matrix is not positive definite "
                                  f"(LDL^T pivot {info} of {self.n})")
            self._factor = (d, e)
        if self.order is None:
            return dpttrs(*self._factor, r)[0]
        xs, info = dpttrs(*self._factor, r[self.order])
        x = np.empty_like(xs)
        x[self.order] = xs
        return x


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
    """Consistent P1 mass matrix from the analytic element formulas; band
    form in 1-d, CSR in 2-d."""
    if mesh.dim == 1:
        order, h = band_layout(mesh)
        return chain_mass(h, order)
    measures = mesh.element_measures()
    if np.any(measures <= 0):
        bad = int(np.argmin(measures))
        raise AssemblyError(f"degenerate element {bad} (measure {measures[bad]:g})")
    import scipy.sparse as sp
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = measures[:, None, None] * local[None, :, :]
    rows = np.repeat(mesh.elements, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.elements, (1, 3)).reshape(-1)
    A = sp.coo_matrix((vals.reshape(-1), (rows, cols)),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    return SparseSpd(A)


def chain_mass(h, order=None) -> SparseSpd:
    """Band form of the P1 mass matrix of a chain of elements of lengths h
    (0 for a gap), rows permuted by order as in SparseSpd."""
    diag = h * (2.0 / 6.0)
    return SparseSpd.from_chain(diag, diag, h * (1.0 / 6.0), order=order)


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

def _dot(a, b) -> float:
    # numpy's pairwise sum, not BLAS, so the bits do not depend on threads
    return float((a * b).sum())


def cg_solve(A: SparseSpd, b: np.ndarray, tol: float = 1e-12,
             max_iter: int | None = None) -> np.ndarray:
    """Solve A x = b: start from x = A.precondition(b), return it once one
    matvec shows ||b - A x|| <= tol ||b||, else correct it by preconditioned
    conjugate gradients. With the exact factor of the band form the start
    is the answer; with Jacobi this is plain PCG. The iteration order is
    fixed and no reduction uses BLAS, so repeated runs are bit-identical
    whatever the thread count."""
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise InvalidArgumentError(f"rhs has shape {b.shape}, expected ({A.n},)")
    if max_iter is None:
        max_iter = 10 * A.n
    norm_b = np.sqrt(_dot(b, b))
    x = A.precondition(b)
    r = b - A.dot(x)
    if np.sqrt(_dot(r, r)) <= tol * norm_b:
        return x
    z = A.precondition(r)
    p = z.copy()
    rz = _dot(r, z)
    for _ in range(max_iter):
        Ap = A.dot(p)
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.sqrt(_dot(r, r)) <= tol * norm_b:
            return x
        z = A.precondition(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    r = b - A.dot(x)
    res = float(np.sqrt(_dot(r, r)) / norm_b)
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
            if fh.read().strip():
                raise ValueError(f"rows after the {n_nodes} node rows")
        except (ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"malformed field file {path}: {exc}") from exc
    if n_nodes != mesh.n_nodes:
        raise InvalidArgumentError(
            f"field file has {n_nodes} nodes, mesh has {mesh.n_nodes}")
    return {name: FeField(mesh=mesh, values=table[:, j], name=name)
            for j, name in enumerate(names)}
