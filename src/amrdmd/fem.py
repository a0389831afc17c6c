"""P1 finite-element machinery on simplicial meshes: mass-matrix assembly
and integrals from their closed forms, the max-norm, point evaluation, a
facet flux-jump refinement indicator, a deterministic solve-then-verify solver
(in 1-d LAPACK's exact tridiagonal dpttrf/dpttrs, the only use of scipy, taken
from its extension module without running the scipy.linalg package; in 2-d a
fixed Jacobi-Chebyshev sweep) and field files.

A field is its nodal values, an array (n_nodes,) passed next to its mesh.
Values are checked only where they enter or leave the program: load_fields
reads through the table reader that mesh, model and manifest files share
(mesh._read_table), which refuses a malformed file and a non-finite value
in a column it converts; save_fields refuses non-finite or wrong-length
fields, and cg_solve a non-finite right-hand side before any matvec and a
non-finite residual.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, InvalidArgumentError, SolverError
from .mesh import SimplicialMesh, _read_table, band_layout, facets, locate_points


@dataclass(frozen=True)
class ElementBlocks:
    """Matrix with n_rows rows summed from k x k blocks: block j adds
    blocks[a, b, j] to entry (rows[a, j], cols[b, j]); j runs last."""

    rows: np.ndarray       # (k, n_blocks) row ids
    cols: np.ndarray       # (k, n_blocks) column ids
    blocks: np.ndarray     # (k, k, n_blocks)
    n_rows: int

    def dot(self, x):
        """A x; no reduction uses BLAS, so the bits ignore the thread count."""
        y = np.einsum("abj,bj->aj", self.blocks, x[self.cols])
        return np.bincount(self.rows.reshape(-1), y.reshape(-1), self.n_rows)


class SparseSpd:
    """Symmetric positive-definite matrix with a finite positive diagonal,
    in one of two forms, both symmetric by construction. Either
    `bands=(order, diag, off)`: a tridiagonal matrix with main diagonal diag
    (n,) and first off-diagonal off (n - 1,), whose k-th row and column
    belong to vector entry order[k], or to entry k when order is None. Or
    `blocks`: ElementBlocks with rows == cols and every block symmetric."""

    def __init__(self, *, bands=None, blocks=None):
        self.blocks = blocks
        if blocks is None:
            self.order, self.diag, self.off = bands
        else:
            b, k = blocks.blocks, blocks.rows.shape[0]
            if not (np.array_equal(blocks.rows, blocks.cols)
                    and np.array_equal(b, b.transpose(1, 0, 2))):
                raise InvalidArgumentError("element blocks are not symmetric")
            self.order, self.off = None, None
            self.diag = np.bincount(blocks.rows.reshape(-1),
                                    b[range(k), range(k)].reshape(-1), blocks.n_rows)
        if not 0.0 < self.diag.min() <= self.diag.max() < np.inf:    # False for NaN
            raise InvalidArgumentError("matrix diagonal must be finite and positive")
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

    def dot(self, x):
        """A x; for the band form x may also be a stack (..., n)."""
        if self.blocks is not None:
            return self.blocks.dot(x)
        xs = x if self.order is None else x[..., self.order]
        ys = self.diag * xs
        ys[..., :-1] += self.off * xs[..., 1:]
        ys[..., 1:] += self.off * xs[..., :-1]
        if self.order is None:
            return ys
        y = np.empty_like(ys)
        y[..., self.order] = ys
        return y

    def _ldlt(self):
        """LDL^T factor (d, e) of the band form, computed on the first call."""
        if self._factor is None:
            d, e, info = _flapack().dpttrf(self.diag, self.off)
            if info != 0:
                raise SolverError(f"tridiagonal matrix is not positive definite "
                                  f"(LDL^T pivot {info} of {self.n})")
            self._factor = d, e
        return self._factor


def _flapack():
    """scipy's LAPACK extension module, loaded once per process without
    running the scipy.linalg package (85 modules, ~29 MB) and registered
    under its own name, so an import of scipy.linalg before or after shares
    the one module object. ImportError when scipy or the module is missing."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")       # runs no scipy code
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "linalg") for d in scipy.submodule_search_locations])
        if spec is None:
            raise ImportError(f"{name} (scipy's LAPACK) not found", name=name)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


# ---------------------------------------------------------------------------
# assembly and integrals

def assemble_mass(mesh: SimplicialMesh) -> SparseSpd:
    """Consistent P1 mass matrix from the analytic element formulas; band
    form in 1-d, one block per element in 2-d."""
    if mesh.dim == 1:
        order, h = band_layout(mesh)
        return chain_mass(h, order)
    measures = mesh.element_measures()
    if np.any(measures <= 0):
        bad = int(np.argmin(measures))
        raise AssemblyError(f"degenerate element {bad} (measure {measures[bad]:g})")
    local = ((np.ones((3, 3)) + np.eye(3)) / 12.0)[:, :, None] * measures
    ids = np.ascontiguousarray(mesh.elements.T)
    return SparseSpd(blocks=ElementBlocks(ids, ids, local, mesh.n_nodes))


def chain_mass(h, order=None) -> SparseSpd:
    """Band form of the P1 mass matrix of a chain of elements of lengths h
    (0 for a gap), rows permuted by order as in SparseSpd."""
    diag = h * (2.0 / 6.0)
    return SparseSpd.from_chain(diag, diag, h * (1.0 / 6.0), order=order)


def evaluate_many(mesh: SimplicialMesh, values, pts) -> np.ndarray:
    """Values of the P1 field at the rows of the (n, dim) array pts: (n,) for
    values (n_nodes,), (k, n) for a stack (k, n_nodes) located once."""
    eids, bary = locate_points(mesh, pts)
    return np.sum(values[..., mesh.elements[eids]] * bary, axis=-1)


def integrate(mesh: SimplicialMesh, values) -> float:
    """Integral of the field over the mesh: the sum over elements of the
    measure times the mean of the dim + 1 vertex values, exact for P1."""
    return float(np.sum(mesh.element_measures() * values[mesh.elements].mean(axis=1)))


def unit_scale(top: float) -> float:
    """The power of two s with s * top in [1/2, 1) for a normal top, 1 for
    top = 0, 2**1022 for a subnormal top (where 2**-frexp(top) overflows).
    Scaling by s is exact unless a product is subnormal."""
    return 2.0 ** -max(math.frexp(top)[1], -1022)


def inf_norm(values) -> float:
    """Max-norm; P1 extrema sit at nodes."""
    return float(np.abs(values).max()) if values.size else 0.0


def element_gradients(mesh: SimplicialMesh, values) -> np.ndarray:
    """Constant gradient of the P1 field per element, shape (ne, dim)."""
    pts = mesh.nodes[mesh.elements]
    vals = values[mesh.elements]
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


def flux_jump_indicator(mesh: SimplicialMesh, values) -> np.ndarray:
    """Per-element score sqrt(sum_f h_f |f| [[grad u . n]]_f^2) over the
    element's interior facets; boundary facets contribute nothing.

    Conventions: in 2-d the facet size h_f is the edge length and |f| the
    same length; in 1-d the facet is a node with counting measure |f| = 1
    and h_f the mean of the two adjacent element sizes. Only the ranking
    of elements matters for refinement flagging.
    """
    grads = element_gradients(mesh, values)
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

SOLVE_TOL = 1e-12        # relative residual every solve must meet


def _chebyshev_sweep(A: SparseSpd, b):
    """Jacobi-Chebyshev semi-iteration from x = 0 on [1/2, 2] (Saad,
    Iterative Methods for Sparse Linear Systems, 2nd ed., Alg. 12.1).

    For P1 mass matrices D^-1 A has its spectrum in [1/2, 2] on any mesh
    (Wathen, IMA J. Numer. Anal. 7, 1987), so after k steps the residual is
    at most 2 * 3**-k of |b| in the D^-1 norm, and 2 * 3**-k * sqrt(max(D) /
    min(D)) in the Euclidean one. The length makes that SOLVE_TOL / 2: the
    other factor 2 is headroom for rounding."""
    inv_d = 1.0 / A.diag
    steps = math.ceil((math.log(4.0 / SOLVE_TOL) + 0.5 * (
        math.log(A.diag.max()) - math.log(A.diag.min()))) / math.log(3.0))
    rho = 3.0 / 5.0               # w / c: [1/2, 2] has centre 5/4, half-width 3/4
    d = (4.0 / 5.0) * inv_d * b   # 1 / c; below 10/3 = 2 c / w and 8/3 = 2 / w
    x, r = d.copy(), b
    for _ in range(steps - 1):
        r = r - A.dot(d)
        rho, last = 1.0 / (10.0 / 3.0 - rho), rho
        d = (rho * last) * d + (8.0 / 3.0 * rho) * (inv_d * r)
        x += d
    return x


def cg_solve(A: SparseSpd, b: np.ndarray) -> np.ndarray:
    """Solve A x = b in one pass, the band form by its exact factor and the
    block form by _chebyshev_sweep, and check |b - A x| <= SOLVE_TOL |b| (or,
    for the band form, |A||x|) with one matvec; a miss raises SolverError, as
    for a block matrix whose Jacobi-scaled spectrum leaves [1/2, 2]. b is
    first scaled by unit_scale: no norm overflows and, barring subnormals,
    the bits are those of an unscaled solve. A non-finite b raises
    InvalidArgumentError before any matvec, a non-finite residual after it.
    No reduction uses BLAS."""
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise InvalidArgumentError(f"rhs has shape {b.shape}, expected ({A.n},)")
    top = inf_norm(b)
    if not math.isfinite(top):
        raise InvalidArgumentError(f"linear system has non-finite values ({top})")
    scale = unit_scale(top)                  # 1 for b = 0, solved as any b
    b = b * scale
    if A.blocks is None:
        rows = slice(None) if A.order is None else A.order
        xs = _flapack().dpttrs(*A._ldlt(), b[rows])[0]
        x = np.empty_like(b)
        x[rows] = xs
    else:
        x = _chebyshev_sweep(A, b)
    r = b - A.dot(x)
    # numpy's pairwise sums, not BLAS, so the bits do not depend on threads
    rr, bb = float((r * r).sum()), float((b * b).sum())
    if A.blocks is None and not rr <= SOLVE_TOL ** 2 * bb:
        # the factor solve is backward stable (Higham, Accuracy and Stability
        # of Numerical Algorithms, 2nd ed., ch. 9): rounding in |A||x| bounds
        # its residual, and where diffusion dominates the mass that exceeds
        # SOLVE_TOL |b| and no refinement step lowers it. |A||x| >= |b|.
        w = A.diag * np.abs(xs)
        w[:-1] += np.abs(A.off * xs[1:])
        w[1:] += np.abs(A.off * xs[:-1])
        bb = float((w * w).sum())
    if rr <= SOLVE_TOL ** 2 * bb:
        return x / scale
    if not math.isfinite(rr):
        raise InvalidArgumentError(f"linear system has non-finite values ({rr})")
    raise SolverError(f"solve missed its tolerance: relative residual "
                      f"{math.sqrt(rr / bb):.3e} > {SOLVE_TOL:g}")


# ---------------------------------------------------------------------------
# field file format: line 1 "n_nodes n_fields", line 2 names, then one row
# of values per node. Extension ".field.txt".

def save_fields(mesh: SimplicialMesh, fields: dict, path) -> None:
    """Write {name: values} on mesh to path; a bad name or field is refused
    before the file is opened, so it leaves no file behind."""
    if not fields:
        raise InvalidArgumentError("no fields to save")
    columns = []
    for name, values in fields.items():
        if name.split() != [name]:
            raise InvalidArgumentError(
                f"field name {name!r} is empty or contains whitespace")
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_nodes,):
            raise InvalidArgumentError(f"field '{name}' has {values.shape} values "
                                       f"for {mesh.n_nodes} nodes")
        if not np.isfinite(values).all():
            raise InvalidArgumentError(f"field '{name}' has non-finite values")
        columns.append(values)
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_nodes} {len(fields)}\n")
        fh.write(" ".join(fields) + "\n")
        row = " ".join(["%.17g"] * len(fields)) + "\n"
        fh.write(row * mesh.n_nodes % tuple(np.column_stack(columns).ravel().tolist()))


def load_fields(path, mesh: SimplicialMesh, names=None) -> dict[str, np.ndarray]:
    """Read a file written by save_fields as {name: values}: every field, or
    those of `names` that it holds (the caller reports missing ones). The
    whole file's shape is checked; only the returned columns are converted
    to floats, and each must be finite."""
    def table(n_nodes, n_fields, file_names):
        if n_nodes != mesh.n_nodes:
            raise ValueError(f"{n_nodes} nodes, mesh has {mesh.n_nodes}")
        if len(file_names) != n_fields or len(set(file_names)) != n_fields:
            raise ValueError(f"field names {file_names} are not {n_fields} distinct names")
        return [(n_nodes, "".join("f" if names is None or name in names else "-"
                                  for name in file_names))]

    (*_, file_names), (columns,) = _read_table(path, "field file", ["ii", "*"], table)
    return {name: values for name, values in zip(file_names, columns) if values is not None}
