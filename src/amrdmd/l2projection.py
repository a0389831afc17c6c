"""L2-projection of P1 fields between non-matching meshes.

The projection solves M u_proj = P u on the target mesh, where M is the
target mass matrix and P couples target and donor shape functions. In 1-d,
P is exact: every target element is cut at the donor nodes inside it, and
each piece, on which both shape functions are linear, is integrated by the
2-point Gauss rule. In 2-d, P is assembled by a degree-4 rule on each of
the 4 congruent sub-triangles of every target element. Donor basis values
at quadrature points come from point location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import fem
from .errors import CoverageError, InvalidArgumentError, PointNotFoundError
from .fem import FeField, SparseSpd, cg_solve, reference_rule
from .mesh import SimplicialMesh, locate_points

QUAD_DEGREE_2D = 4
SUB_SPLITS_2D = 2


@dataclass
class ProjectionOperator:
    donor: SimplicialMesh
    target: SimplicialMesh
    M: SparseSpd                  # target mass matrix
    P: sp.csr_matrix              # (target nodes) x (donor nodes)

    def partition_defect(self) -> float:
        """max |P 1_donor - M 1_target|; both sides equal the integrals of
        the target shape functions, so this vanishes up to roundoff."""
        ones_d = np.ones(self.donor.n_nodes)
        ones_t = np.ones(self.target.n_nodes)
        return float(np.max(np.abs(self.P @ ones_d - self.M.dot(ones_t))))


def _donor_cut_points_1d(donor: SimplicialMesh, target: SimplicialMesh,
                         eids: np.ndarray):
    """Quadrature for target elements eids on their common refinement with
    the donor: each element is cut at the donor nodes strictly inside it and
    every piece gets the 2-point Gauss rule, exact for the quadratic
    integrand. Returns (owner element, points, target barycentrics, weights)."""
    x0 = target.nodes[target.elements[eids, 0], 0]
    x1 = target.nodes[target.elements[eids, 1], 0]
    d = np.sort(donor.nodes[:, 0])
    first = np.searchsorted(d, x0 + 1e-14, side="right")
    n_cuts = np.maximum(np.searchsorted(d, x1 - 1e-14) - first, 0)
    starts = np.cumsum(n_cuts) - n_cuts            # first cut of each element
    cut_loc = np.repeat(np.arange(eids.size), n_cuts)
    cuts = d[np.arange(cut_loc.size) - starts[cut_loc] + first[cut_loc]]
    # the pieces of an element with cuts c1 < ... < cn: [x0, c1], ..., [cn, x1]
    lo = np.insert(cuts, starts, x0)
    hi = np.insert(cuts, starts + n_cuts, x1)
    loc = np.repeat(np.arange(eids.size), n_cuts + 1)

    gauss = reference_rule(1, 3)
    phys = (lo[:, None] + (hi - lo)[:, None] * gauss.points[None, :, 1]).reshape(-1)
    loc = np.repeat(loc, gauss.weights.size)
    t = (phys - x0[loc]) / (x1 - x0)[loc]
    weights = ((hi - lo)[:, None] * gauss.weights[None, :]).reshape(-1)
    return eids[loc], phys[:, None], np.column_stack([1.0 - t, t]), weights


def _subdivided_rule_2d():
    """Degree-QUAD_DEGREE_2D rule on the reference triangle subdivided into
    SUB_SPLITS_2D^2 congruent subtriangles; returns barycentric points and
    weights that sum to the reference measure 1/2."""
    base = reference_rule(2, QUAD_DEGREE_2D)
    s = SUB_SPLITS_2D

    def lattice(i, j):
        return np.array([1.0 - (i + j) / s, i / s, j / s])

    corners = []
    for j in range(s):
        for i in range(s - j):
            corners.append((lattice(i, j), lattice(i + 1, j), lattice(i, j + 1)))
            if i + j < s - 1:
                corners.append((lattice(i + 1, j), lattice(i + 1, j + 1),
                                lattice(i, j + 1)))
    pts, wts = [], []
    for (A, B, C) in corners:
        pts.append(base.points @ np.vstack([A, B, C]))
        wts.append(base.weights / (s * s))
    return np.vstack(pts), np.concatenate(wts)


def build_projection(donor: SimplicialMesh,
                     target: SimplicialMesh) -> ProjectionOperator:
    """Assemble the cross-mesh coupling P and the target mass matrix M."""
    if donor.dim != target.dim:
        raise InvalidArgumentError("donor and target dimensions differ")
    M = fem.assemble_mass(target)
    k = target.dim + 1
    if target.dim == 2:
        bary, wref = _subdivided_rule_2d()
        measures = target.element_measures()

    rows, cols, vals = [], [], []
    chunk = 2048
    for start in range(0, target.n_elems, chunk):
        eids = np.arange(start, min(start + chunk, target.n_elems))
        if target.dim == 1:
            owner, phys, tbary, weights = _donor_cut_points_1d(donor, target, eids)
        else:
            corners = target.nodes[target.elements[eids]]     # (ne, 3, 2)
            phys = np.einsum("eki,qk->eqi", corners, bary).reshape(-1, 2)
            tbary = np.tile(bary, (len(eids), 1))
            weights = (measures[eids, None] / 0.5 * wref[None, :]).reshape(-1)
            owner = np.repeat(eids, wref.size)

        try:
            d_eids, d_bary = locate_points(donor, phys)
        except PointNotFoundError as exc:
            offending = getattr(exc, "points", phys)
            raise CoverageError(
                f"target quadrature points not covered by donor mesh: {exc}",
                points=offending) from exc

        t_nodes = target.elements[owner]                  # (npts, k)
        d_nodes = donor.elements[d_eids]                  # (npts, kd)
        contrib = (weights[:, None, None]
                   * tbary[:, :, None] * d_bary[:, None, :])
        rows.append(np.repeat(t_nodes, d_nodes.shape[1], axis=1).reshape(-1))
        cols.append(np.tile(d_nodes, (1, k)).reshape(-1))
        vals.append(contrib.reshape(-1))

    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(target.n_nodes, donor.n_nodes)).tocsr()
    return ProjectionOperator(donor=donor, target=target, M=M, P=P)


def project(op: ProjectionOperator, u: FeField, tol: float = 1e-12) -> FeField:
    """Project a donor field onto the target mesh (solves M u_proj = P u)."""
    if u.mesh is not op.donor:
        raise InvalidArgumentError("field is not bound to the operator's donor mesh")
    rhs = op.P @ u.values
    sol = cg_solve(op.M, rhs, tol=tol)
    return FeField(mesh=op.target, values=sol, name=u.name)


def projection_residual(op: ProjectionOperator, u: FeField,
                        proj: FeField) -> float:
    """Relative residual |M proj - P u| / |P u| of a projection of u; 0
    when P u vanishes."""
    rhs = op.P @ u.values
    nrm = float(np.linalg.norm(rhs))
    if nrm == 0.0:
        return 0.0
    return float(np.linalg.norm(op.M.dot(proj.values) - rhs) / nrm)


def rank_check(op: ProjectionOperator) -> int:
    """Numerical rank of P via column-pivoted QR with relative threshold
    1e-10 on the diagonal of R."""
    dense = op.P.toarray()
    R = scipy.linalg.qr(dense, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.sum(diag > 1e-10 * diag[0]))
