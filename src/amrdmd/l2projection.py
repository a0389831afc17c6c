"""L2-projection of P1 fields between non-matching meshes.

The projection solves M u_proj = P u on the target mesh, where M is the
target mass matrix and P couples target and donor shape functions. In 1-d,
P is exact: every target element is cut at the donor nodes inside it, and
each piece, on which both shape functions are linear, is integrated by the
2-point Gauss rule. In 2-d, the first quadrature point of every target
element is located. An element inside the donor element holding that
point gets the exact block, from the barycentrics of its vertices in that
donor element; an element that a donor edge cuts gets a degree-4 rule on
each of its 4 congruent sub-triangles, with donor basis values at the
quadrature points from point location. P holds one k x k block per
(target element, donor element) pair, the point sums summed by bincount;
P u is a gather, a block product and a bincount (numpy only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import CoverageError, InvalidArgumentError, PointNotFoundError
from .fem import ElementBlocks, SparseSpd, cg_solve, reference_rule
from .mesh import BARY_TOL, SimplicialMesh, barycentric, locate_points

QUAD_DEGREE_2D = 4
SUB_SPLITS_2D = 2


@dataclass
class ProjectionOperator:
    donor: SimplicialMesh
    target: SimplicialMesh
    M: SparseSpd                  # target mass matrix
    P: ElementBlocks              # (target nodes) x (donor nodes)


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


def _located_blocks(donor: SimplicialMesh, owner, phys, tbary, weights):
    """Ascending keys owner * donor.n_elems + donor element of the (target
    element, donor element) pairs that share quadrature points, and their
    k x k blocks, summed over those points, as (k * k, n_pairs) rows."""
    d_eids, d_bary = _locate(donor, phys)
    pair, inv = np.unique(owner * donor.n_elems + d_eids, return_inverse=True)
    wt = weights[:, None] * tbary
    k = tbary.shape[1]
    return pair, np.array([np.bincount(inv, wt[:, a] * d_bary[:, b], pair.size)
                           for a in range(k) for b in range(k)])


def _locate(donor: SimplicialMesh, pts):
    """locate_points, raising CoverageError for points outside the donor."""
    try:
        return locate_points(donor, pts)
    except PointNotFoundError as exc:
        raise CoverageError(
            f"target quadrature points not covered by donor mesh: {exc}",
            points=getattr(exc, "points", pts)) from exc


def _blocks_2d(donor: SimplicialMesh, target: SimplicialMesh, eids, measures):
    """Pair keys and blocks, as _located_blocks returns them, of the 2-d
    target elements eids. An element inside the donor element that holds
    its first quadrature point gets that pair's exact block; the others run
    the sub-split rule."""
    bary, wref = _subdivided_rule_2d()
    corners = target.nodes[target.elements[eids]]     # (ne, 3, 2)
    phys = bary @ corners                             # (ne, nq, 2)
    host, _ = _locate(donor, phys[:, 0])
    # lam[c, b, e]: donor basis b of the host at vertex c of element e; the
    # host is convex, so it holds the element iff it holds the vertices
    vertices = corners.transpose(1, 0, 2).reshape(-1, 2)
    lam = barycentric(donor, np.tile(host, 3), vertices).reshape(3, -1, 3)
    lam = lam.transpose(0, 2, 1)
    held = np.all(lam >= -BARY_TOL, axis=(0, 1))
    # on T, for the target basis phi_a and a linear lam_b:
    # int phi_a lam_b = |T| / 12 * (sum_c lam_b(x_c) + lam_b(x_a))
    lam = lam[:, :, held]
    exact = (lam + (lam[0] + lam[1] + lam[2])) * (measures[eids[held]] / 12)
    cut = eids[~held]
    cut_pair, cut_blocks = _located_blocks(
        donor, np.repeat(cut, wref.size), phys[~held].reshape(-1, 2),
        np.tile(bary, (cut.size, 1)),
        (measures[cut, None] / 0.5 * wref[None, :]).reshape(-1))
    pair = np.concatenate([eids[held] * donor.n_elems + host[held], cut_pair])
    order = np.argsort(pair)        # one pair per held element: keys distinct
    blocks = np.concatenate([exact.reshape(9, -1), cut_blocks], axis=1)
    return pair[order], blocks[:, order]


def build_projection(donor: SimplicialMesh,
                     target: SimplicialMesh) -> ProjectionOperator:
    """Assemble the cross-mesh coupling P and the target mass matrix M."""
    if donor.dim != target.dim:
        raise InvalidArgumentError("donor and target dimensions differ")
    M = fem.assemble_mass(target)
    k = target.dim + 1            # nodes per element, on both meshes
    measures = target.element_measures()

    # summed chunk by chunk: one chunk's points live at a time, and no
    # (target element, donor element) pair spans two chunks
    pairs, blocks = [], []
    chunk = 2048
    for start in range(0, target.n_elems, chunk):
        eids = np.arange(start, min(start + chunk, target.n_elems))
        if target.dim == 1:
            pair, block = _located_blocks(
                donor, *_donor_cut_points_1d(donor, target, eids))
        else:
            pair, block = _blocks_2d(donor, target, eids, measures)
        pairs.append(pair)
        blocks.append(block)
    t_elem, d_elem = np.divmod(np.concatenate(pairs), donor.n_elems)
    P = ElementBlocks(rows=target.elements.T.take(t_elem, axis=1),
                      cols=donor.elements.T.take(d_elem, axis=1),
                      blocks=np.concatenate(blocks, axis=1).reshape(k, k, -1),
                      n_rows=target.n_nodes)
    return ProjectionOperator(donor=donor, target=target, M=M, P=P)


def project(op: ProjectionOperator, values: np.ndarray, load=None) -> np.ndarray:
    """Project the donor field values onto the target mesh: solve
    M u_proj = P u. load, when given, is P u as the caller already computed it."""
    if values.shape != (op.donor.n_nodes,):
        raise InvalidArgumentError(f"field has {values.shape} values, the donor "
                                   f"mesh {op.donor.n_nodes} nodes")
    return cg_solve(op.M, op.P.dot(values) if load is None else load)


def projection_residual(op: ProjectionOperator, load: np.ndarray,
                        proj: np.ndarray) -> float:
    """Relative residual |M proj - load| / |load| of a projection with
    load P u; 0 when the load vanishes. Both are first scaled by
    fem.unit_scale of max|load|, so no norm over- or underflows."""
    scale = fem.unit_scale(fem.inf_norm(load))
    load = load * scale
    nrm = float(np.linalg.norm(load))
    return float(np.linalg.norm(op.M.dot(proj * scale) - load) / nrm) if nrm else 0.0


def project_snapshots(snapshots, target: SimplicialMesh):
    """Project snapshots [(time, mesh, {name: values})] onto target.

    One operator is built per distinct donor mesh object. Returns the
    projected snapshots [(time, target, {name: values})] and, per snapshot,
    the worst projection_residual over its fields.
    """
    ops = {}
    projected, residuals = [], []
    for time, donor, fields in snapshots:
        op = ops.get(id(donor))
        if op is None:          # op.donor keeps the id from being reused
            op = ops[id(donor)] = build_projection(donor, target)
        values, res = {}, []
        for name, vals in fields.items():
            load = op.P.dot(vals)           # one P u for the solve and residual
            values[name] = project(op, vals, load)
            res.append(projection_residual(op, load, values[name]))
        projected.append((time, target, values))
        residuals.append(float(np.max(res, initial=0.0)))   # keeps a NaN
    return projected, residuals
