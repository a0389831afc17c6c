"""L2-projection of P1 fields between non-matching meshes.

The projection solves M u_proj = P u on the target mesh, where M is the
target mass matrix and P couples target and donor shape functions. P is
exact: each target element is cut into simplex pieces that lie in one donor
element each (a local supermesh, Farrell et al., CMAME 2009), and on a piece
S with vertices v_c, where the target basis phi_a and the donor basis lam_b
are linear, int_S phi_a lam_b = |S| / (k (k + 1)) * (sum_c phi_a(v_c)
sum_c lam_b(v_c) + sum_c phi_a(v_c) lam_b(v_c)), with k = dim + 1. P holds
one k x k block per (target element, donor element) pair, summed over the
pieces by bincount; P u is a gather, a block product and a bincount.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import CoverageError, InvalidArgumentError, PointNotFoundError
from .fem import ElementBlocks, SparseSpd, cg_solve
from .mesh import (BARY_TOL, SimplicialMesh, barycentric, elements_meeting,
                   locate_points)


@dataclass
class ProjectionOperator:
    donor: SimplicialMesh
    target: SimplicialMesh
    M: SparseSpd                  # target mass matrix
    P: ElementBlocks              # (target nodes) x (donor nodes)


def _clip(vert, poly, j):
    """One Sutherland-Hodgman step. vert[i] is a vertex of the convex polygon
    poly[i], each polygon's vertices contiguous and in order; returns the
    vertices and polygon ids of the parts where column j is >= 0. The columns
    are affine functions on the plane, so a crossing interpolates them all."""
    nxt = np.arange(1, poly.size + 1)
    nxt[np.diff(poly, append=-1) != 0] = np.flatnonzero(np.diff(poly, prepend=-1))
    s = vert[:, j]
    s_next = s[nxt]
    keep = s >= 0
    cross = np.sign(s) * np.sign(s_next) < 0
    # edge (i, nxt[i]) emits vertex i if kept, then its crossing point
    emit = keep.astype(np.int64) + cross
    at = np.cumsum(emit) - emit
    out = np.empty((emit.sum(), vert.shape[1]))
    out[at[keep]] = vert[keep]
    v, w = vert[cross], vert[nxt[cross]]
    t = s[cross] / (s[cross] - s_next[cross])
    out[at[cross] + keep[cross]] = v + t[:, None] * (w - v)
    return out, np.repeat(poly, emit)


def _pieces(donor: SimplicialMesh, corners, measures, d_elem):
    """The pieces of positive measure of target element i (vertices
    corners[i], measure measures[i]) inside donor element d_elem[i]: per
    piece i, its measure, and the target and donor basis at its vertices,
    phi[:, c, a] and lam[:, c, b]."""
    if corners.shape[2] == 1:         # the interval intersection
        x = corners[:, :, 0]
        ends = np.clip(donor.nodes[donor.elements[d_elem], 0], x[:, :1], x[:, 1:])
        t = (ends - x[:, :1]) / (x[:, 1:] - x[:, :1])
        phi = np.stack([1.0 - t, t], axis=2)
        lam = barycentric(donor, np.repeat(d_elem, 2), ends.reshape(-1, 1)).reshape(-1, 2, 2)
        owner, size = np.arange(len(x)), ends[:, 1] - ends[:, 0]
    else:
        # clip in the donor element's barycentrics, carrying the target's;
        # an element with every vertex below one of them misses it
        lam = barycentric(donor, np.repeat(d_elem, 3),
                          corners.reshape(-1, 2)).reshape(-1, 3, 3)
        poly = np.flatnonzero(np.all(np.maximum(np.maximum(lam[:, 0], lam[:, 1]),
                                                lam[:, 2]) >= 0, axis=1))
        vert = np.concatenate([lam[poly].reshape(-1, 3),
                               np.tile(np.eye(3), (poly.size, 1))], axis=1)
        poly = np.repeat(poly, 3)
        for j in range(3):
            vert, poly = _clip(vert, poly, j)
        # the fan triangles (first, i, i + 1) of each clipped polygon
        first = np.diff(poly, prepend=-1) != 0
        mid = np.flatnonzero(~first & (np.diff(poly, append=-1) == 0))
        fan = np.maximum.accumulate(np.where(first, np.arange(poly.size), 0))[mid]
        tri = np.stack([vert[fan], vert[mid], vert[mid + 1]], axis=1)
        lam, phi, owner = tri[:, :, :3], tri[:, :, 3:], poly[mid]
        d = phi[:, 1:, 1:] - phi[:, :1, 1:]
        size = measures[owner] * (d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0])
    keep = size > 0
    return owner[keep], size[keep], phi[keep], lam[keep]


def _chunk_blocks(donor: SimplicialMesh, target: SimplicialMesh, eids, measures):
    """Ascending keys target element * donor.n_elems + donor element of the
    pairs sharing a piece of the target elements eids, whose measures are
    measures, and their k x k blocks summed over the pieces, as (k * k, n)."""
    k = target.dim + 1
    corners = target.nodes[target.elements[eids]]          # (ne, k, dim)
    try:
        host, _ = locate_points(donor, corners.mean(axis=1))
    except PointNotFoundError as exc:
        raise CoverageError(f"target element centroids not covered by donor "
                            f"mesh: {exc}", points=exc.points) from exc
    # lam[e, c, b]: donor basis b of the host at vertex c of element e; the
    # host is convex, so it holds the element iff it holds the vertices
    lam = barycentric(donor, np.repeat(host, k),
                      corners.reshape(-1, target.dim)).reshape(-1, k, k)
    inside = np.all(lam >= -BARY_TOL, axis=(1, 2))
    held, cut = np.flatnonzero(inside), np.flatnonzero(~inside)
    # a held element is its own piece; the others are cut by the donor
    # elements whose bounding boxes meet theirs
    box, d_elem = np.divmod(elements_meeting(donor, corners[cut].min(axis=1),
                                             corners[cut].max(axis=1)), donor.n_elems)
    piece, size, phi, lam_cut = _pieces(donor, corners[cut[box]],
                                        measures[cut[box]], d_elem)
    short = cut[np.bincount(box[piece], size, cut.size)
                < measures[cut] * (1.0 - BARY_TOL)]
    if short.size:
        raise CoverageError(f"{short.size} target elements not covered by donor "
                            f"mesh (first: element {eids[short[0]]})",
                            points=corners[short].reshape(-1, target.dim))
    owner = np.concatenate([held, cut[box[piece]]])
    size = np.concatenate([measures[held], size])
    phi = np.concatenate([np.broadcast_to(np.eye(k), (held.size, k, k)), phi])
    lam = np.concatenate([lam[held], lam_cut])
    block = ((phi.sum(axis=1)[:, :, None] * lam.sum(axis=1)[:, None, :]
              + np.swapaxes(phi, 1, 2) @ lam) * (size / (k * (k + 1)))[:, None, None])
    d_elem = np.concatenate([host[held], d_elem[piece]])
    key, inv = np.unique(eids[owner] * donor.n_elems + d_elem, return_inverse=True)
    return key, np.array([np.bincount(inv, block[:, a, b], key.size)
                          for a in range(k) for b in range(k)])


def build_projection(donor: SimplicialMesh,
                     target: SimplicialMesh) -> ProjectionOperator:
    """Assemble the cross-mesh coupling P and the target mass matrix M."""
    if donor.dim != target.dim:
        raise InvalidArgumentError("donor and target dimensions differ")
    M = fem.assemble_mass(target)
    k = target.dim + 1            # nodes per element, on both meshes
    measures = target.element_measures()
    # chunk by chunk: one chunk's pieces live at a time, and no (target
    # element, donor element) pair spans two chunks
    ids = np.arange(target.n_elems)
    keys, blocks = zip(*[_chunk_blocks(donor, target, eids, measures[eids])
                         for eids in np.split(ids, range(2048, ids.size, 2048))])
    t_elem, d_elem = np.divmod(np.concatenate(keys), donor.n_elems)
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
