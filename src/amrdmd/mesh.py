"""Simplicial meshes in 1-d (segments) and 2-d (triangles).

Meshes are immutable after construction, and valid: a mesh runs
validate_mesh when it is made, and nothing downstream checks it again. In
1-d every element joins two coordinate neighbours and no two elements join
the same pair, so elements never overlap, though pieces may leave gaps.
Refinement bisects flagged elements, in 2-d by newest-vertex bisection
with marked-edge closure, so the result is always conforming (no hanging
nodes). Coarsening merges complete sibling groups back into their parent.
A flag refine cannot honour is left alone. Point location lists every
element that may hold a point in the bins of a uniform grid held as CSR
arrays and tests the candidates of all query points in vectorized passes,
lowest id first; the same bins give the elements meeting a box.

Element storage conventions (these carry the bisection bookkeeping):
  1-d: element (a, b) with x[a] < x[b]; bisection splits at the midpoint.
  2-d: element (p, a, b), counterclockwise, where (a, b) is the refinement
       edge and p the most recently created ("newest") vertex. Bisection
       inserts the midpoint M of (a, b) and emits children (M, p, a) and
       (M, b, p), which keeps orientation and the newest-vertex labeling.

Refinement history: lineage, a read-only (n_elems, 2) int64 array whose
row e is element e's key (root, path) in a forest of binary bisection
trees, holding no node ids. A mesh with no history has lineage None, and
its element i is the root (i, 1). Bisecting (r, p) gives (r, 2p) to the
child made first, (a, M) or (M, p, a), and (r, 2p + 1) to the other, so
siblings share (r, p >> 1) and the level is p.bit_length() - 1. Paths stay
below 2^63: refine refuses to bisect a path of 2^62 or more.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, InvalidPlanError, PointNotFoundError

NODE_DEDUP_TOL = 1e-12
BARY_TOL = 1e-10
BIN_ENTRIES_PER_ELEM = 64


@dataclass
class SimplicialMesh:
    dim: int
    nodes: np.ndarray      # (n_nodes, dim) float
    elements: np.ndarray   # (n_elems, dim + 1) int
    lineage: np.ndarray | None = None   # (n_elems, 2) int (root, path) keys, or None
    level: np.ndarray = field(init=False)   # (n_elems,) int, refinement depth

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(np.atleast_2d(np.asarray(self.nodes, dtype=float)))
        if self.nodes.shape[1] != self.dim:
            self.nodes = self.nodes.reshape(-1, self.dim)
        self.elements = np.ascontiguousarray(np.asarray(self.elements, dtype=np.int64))
        if self.lineage is None:
            self.level = np.zeros(self.n_elems, dtype=np.int64)
        else:
            self.lineage = np.ascontiguousarray(
                np.asarray(self.lineage, dtype=np.int64).reshape(-1, 2))
            # the powers of two up to 2^62 that are at most the path, less one
            self.level = np.searchsorted(1 << np.arange(63), self.lineage[:, 1],
                                         side="right") - 1
            self.lineage.setflags(write=False)
        self.nodes.setflags(write=False)
        self.elements.setflags(write=False)
        self.level.setflags(write=False)
        validate_mesh(self)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elements.shape[0]

    def element_measures(self) -> np.ndarray:
        """Signed measures (lengths / areas) per element."""
        pts = self.nodes[self.elements]
        if self.dim == 1:
            return pts[:, 1, 0] - pts[:, 0, 0]
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def total_measure(self) -> float:
        return float(np.sum(self.element_measures()))


@dataclass(frozen=True)
class RefinementPlan:
    """Element ids flagged for refinement / coarsening on one mesh; refine
    bisects no flagged element at max_level or deeper."""

    refine: frozenset = frozenset()
    coarsen: frozenset = frozenset()
    max_level: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "refine", frozenset(self.refine))
        object.__setattr__(self, "coarsen", frozenset(self.coarsen))
        if self.refine & self.coarsen:
            raise InvalidPlanError("refine and coarsen sets overlap")


# ---------------------------------------------------------------------------
# construction


def build_interval_mesh(a: float, b: float, n_elems: int) -> SimplicialMesh:
    """Uniform 1-d mesh of n_elems segments on [a, b]."""
    if n_elems < 1:
        raise InvalidArgumentError(f"n_elems must be >= 1, got {n_elems}")
    if not a < b:
        raise InvalidArgumentError(f"need a < b, got [{a}, {b}]")
    nodes = np.linspace(a, b, n_elems + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n_elems), np.arange(1, n_elems + 1)])
    return SimplicialMesh(dim=1, nodes=nodes, elements=elements)


def build_structured_triangle_mesh(x_range, y_range, nx: int, ny: int) -> SimplicialMesh:
    """Structured triangle mesh: nx-by-ny cells, each split along the
    lower-left to upper-right diagonal. The diagonal is every triangle's
    refinement edge, so flagged pairs bisect without closure cascades.
    """
    x0, x1 = map(float, x_range)
    y0, y1 = map(float, y_range)
    if nx < 1 or ny < 1:
        raise InvalidArgumentError("nx and ny must be >= 1")
    if not (x0 < x1 and y0 < y1):
        raise InvalidArgumentError("degenerate coordinate range")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys)              # row-major: node id = j*(nx+1)+i
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    # lower-left node of every cell, row by row
    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)[None, :]).reshape(-1)
    lr, ul, ur = ll + 1, ll + (nx + 1), ll + (nx + 2)
    # peak-first storage; refinement edge = (ll, ur) diagonal
    elements = np.column_stack([lr, ur, ll, ul, ll, ur]).reshape(-1, 3)
    return SimplicialMesh(dim=2, nodes=nodes, elements=elements)


# ---------------------------------------------------------------------------
# validation

def facets(mesh: SimplicialMesh) -> tuple[np.ndarray, np.ndarray]:
    """Every facet of the mesh once: a node in 1-d, an edge in 2-d.

    Returns (keys, owners), one row per facet in ascending key order:
    keys[f] are the facet's node ids, ascending; owners[f] are the ids of
    the one or two elements containing it, ascending, with -1 for the
    missing neighbour of a boundary facet. Raises InvalidArgumentError for
    a facet shared by more than two elements."""
    el = mesh.elements
    if mesh.dim == 1:
        key = el.reshape(-1)
    else:
        ends = np.sort(el[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        key = ends[:, 0] * mesh.n_nodes + ends[:, 1]
    # the stable sort keeps the owners of one facet ascending
    order = np.argsort(key, kind="stable")
    key = key[order]
    owner = order // (mesh.dim + 1)
    first = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(first, append=key.size)
    keys = key[first, None] if mesh.dim == 1 else np.column_stack(
        np.divmod(key[first], mesh.n_nodes))
    if np.any(count > 2):
        raise InvalidArgumentError(
            f"facet shared by >2 elements: {keys[count > 2][:3].tolist()}")
    owners = np.full((first.size, 2), -1, dtype=np.int64)
    owners[:, 0] = owner[first]
    shared = count == 2
    owners[shared, 1] = owner[first[shared] + 1]
    return keys, owners


def _close_node_pairs(nodes: np.ndarray, tol: float) -> np.ndarray:
    """Node pairs (lower id, higher id) at distance <= tol, rows ascending;
    empty iff no such pair exists. Exact sweep over finite coordinates:
    runs split where the sorted x-gap exceeds tol hold every close pair;
    within a run ordered by the last coordinate, offsets k = 1, 2, ... are
    tried until no pair k apart is within tol in it, or one is close."""
    order = np.argsort(nodes[:, 0], kind="stable")
    x = nodes[order, 0]
    run = np.cumsum(np.diff(x, prepend=x[:1]) > tol)
    # run is nondecreasing, so each run keeps its positions in the new order
    order = order[np.lexsort((nodes[order, -1], run))]
    y = nodes[order, -1]
    for k in range(1, len(order)):
        near = np.flatnonzero((run[k:] == run[:-k]) & (y[k:] - y[:-k] <= tol))
        if not near.size:
            break
        a, b = order[near], order[near + k]
        close = np.hypot.reduce(np.abs(nodes[a] - nodes[b]), axis=1) <= tol
        if close.any():
            pairs = np.sort(np.column_stack([a[close], b[close]]), axis=1)
            return pairs[np.lexsort(pairs.T[::-1])]
    return np.empty((0, 2), dtype=np.int64)


def _check_tables(dim: int, nodes: np.ndarray, elements: np.ndarray) -> None:
    """Supported dimension, finite coordinates, connectivity in range."""
    if dim not in (1, 2):
        raise InvalidArgumentError(f"unsupported dimension {dim}")
    if not np.all(np.isfinite(nodes)):
        raise InvalidArgumentError("non-finite node coordinate")
    if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
        raise InvalidArgumentError("element node index out of range")


def _positions(mesh: SimplicialMesh) -> tuple[np.ndarray, np.ndarray]:
    """A 1-d mesh's node ids in coordinate order, and each element's positions."""
    order = np.argsort(mesh.nodes[:, 0], kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    return order, pos[mesh.elements]


def validate_mesh(mesh: SimplicialMesh) -> None:
    """Check the structural invariants; raises InvalidArgumentError."""
    _check_tables(mesh.dim, mesh.nodes, mesh.elements)
    measures = mesh.element_measures()
    if np.any(measures <= 0):
        bad = int(np.argmin(measures))
        raise InvalidArgumentError(
            f"element {bad} has non-positive measure {measures[bad]:g}")
    if mesh.dim == 1:
        p0, p1 = _positions(mesh)[1].T
        apart = np.flatnonzero(p1 - p0 != 1)
        if apart.size:
            raise InvalidArgumentError(f"element {apart[0]} joins nodes that are not "
                                       f"coordinate neighbours")
        shared = np.bincount(p0)[p0] > 1
        if shared.any():
            a, b = np.flatnonzero(p0 == p0[shared][0])[:2]
            raise InvalidArgumentError(f"elements {a} and {b} join the same nodes")
    else:           # in 1-d the chain rule leaves no node in three elements
        facets(mesh)
    # nodes closer than NODE_DEDUP_TOL of the extent; halves do not overflow
    half = mesh.nodes / 2
    extent = 2 * float(np.max(half.max(axis=0) - half.min(axis=0)))
    pairs = _close_node_pairs(mesh.nodes, NODE_DEDUP_TOL * extent)
    if pairs.size:
        raise InvalidArgumentError(
            f"duplicate nodes within tolerance: {pairs[:3].tolist()}")
    if mesh.lineage is None:
        return
    if len(mesh.lineage) != mesh.n_elems:
        raise InvalidArgumentError("lineage length mismatch")
    if mesh.lineage[:, 1].min(initial=1) < 1:
        bad = int(np.argmin(mesh.lineage[:, 1]))
        raise InvalidArgumentError(f"element {bad} has lineage path "
                                   f"{mesh.lineage[bad, 1]}, below 1")
    root, path = mesh.lineage[np.lexsort(mesh.lineage.T[::-1])].T   # by root, path
    same = np.flatnonzero((root[1:] == root[:-1]) & (path[1:] == path[:-1]))
    if same.size:
        raise InvalidArgumentError(f"two elements share the lineage key (root, path) "
                                   f"{[int(root[same[0]]), int(path[same[0]])]}")


# ---------------------------------------------------------------------------
# refinement / coarsening

def refine(mesh: SimplicialMesh, plan: RefinementPlan) -> SimplicialMesh:
    """Apply a refinement/coarsening plan, returning a new conforming mesh,
    or mesh itself when nothing merges and nothing is bisected.

    Coarsening runs first on complete sibling groups (both children
    flagged), then flagged elements are bisected with marked-edge closure.
    Flags that cannot be honoured are left alone: a refine flag at
    plan.max_level or deeper, a coarsen flag on a root or without its
    flagged sibling, and a sibling group whose midpoint is still used by
    finer neighbors, which preserves conformity. Untouched elements keep
    their order, merged parents follow by (midpoint, smaller child id), and
    children come last in their parents' order; new midpoints are numbered
    in the order of first split. Raises InvalidPlanError for an element id
    out of range, or before bisecting an element whose path is 2^62 or
    more, whose children's paths int64 cannot hold.
    """
    n = mesh.n_elems
    ids = plan.refine | plan.coarsen
    for eid in (min(ids), max(ids)) if ids else ():
        if not 0 <= eid < n:
            raise InvalidPlanError(f"plan references element {eid} of {n}")
    split = np.zeros(n, dtype=bool)
    split[list(plan.refine)] = True
    if plan.max_level is not None:
        split &= mesh.level < plan.max_level
    keys = (mesh.lineage if mesh.lineage is not None
            else np.column_stack([np.arange(n), np.ones(n, dtype=np.int64)]))
    elements, keys, split = _coarsen(mesh, keys, split,
                                     np.array(sorted(plan.coarsen), dtype=np.int64))
    if len(elements) == n and not split.any():
        return mesh
    nodes, elements, keys = _bisect(mesh.dim, mesh.nodes, elements, keys, split)
    used = np.flatnonzero(np.bincount(elements.ravel()))   # np.unique loads numpy.ma
    remap = np.full(len(nodes), -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return SimplicialMesh(dim=mesh.dim, nodes=nodes[used], elements=remap[elements],
                          lineage=keys)


def _coarsen(mesh, keys, split, ids):
    """Merge the sibling pairs among the flagged ids (ascending) whose
    midpoint no other element uses; any other flagged id is left alone.
    Returns the elements, keys and split flags of the result: the untouched
    elements in order, then the parents."""
    el = mesh.elements
    # sorted by key, siblings (r, 2q) and (r, 2q + 1) are adjacent
    order = np.lexsort(keys[ids].T[::-1])
    r, p = keys[ids[order]].T
    lead = np.zeros(ids.size, dtype=bool)     # first of a flagged pair
    lead[:-1] = (r[1:] == r[:-1]) & (p[1:] == p[:-1] + 1) & (p[:-1] % 2 == 0)
    first, second = ids[order][lead], ids[order][np.roll(lead, 1)]
    mid = el[first, 1 if mesh.dim == 1 else 0]
    # a pair merges iff the pairs at its midpoint hold every element there
    free = (2 * np.bincount(mid, minlength=mesh.n_nodes)[mid]
            == np.bincount(el.ravel(), minlength=mesh.n_nodes)[mid])
    rank = np.lexsort((np.minimum(first, second)[free], mid[free]))
    first, second = first[free][rank], second[free][rank]
    # (a, M), (M, b) -> (a, b); (M, p, a), (M, b, p) -> (p, a, b)
    c1, c2 = el[first], el[second]
    parents = (np.column_stack([c1[:, 0], c2[:, 1]]) if mesh.dim == 1
               else np.column_stack([c1[:, 1], c1[:, 2], c2[:, 1]]))
    keep = np.ones(len(el), dtype=bool)
    keep[first] = keep[second] = False
    return (np.concatenate([el[keep], parents]),
            np.concatenate([keys[keep], keys[first] >> [0, 1]]),
            np.concatenate([split[keep], np.zeros(first.size, dtype=bool)]))


def _bisect(dim, nodes, elements, keys, split):
    """Bisect the flagged elements and, for conformity, every element whose
    refinement edge the closure marks: an element with a marked edge marks
    its refinement edge. Returns the nodes, elements and keys after the
    bisection rounds, one midpoint per marked edge; 1-d takes one round,
    2-d at most two, since a child's refinement edge is an edge of its
    parent and a grandchild's is new."""
    # edge table, refinement edge first: (a, b) of (a, b) or of (p, a, b)
    cols = [[0, 1]] if dim == 1 else [[1, 2], [0, 1], [2, 0]]
    ends = np.sort(elements[:, cols], axis=2)
    _, edge = np.unique(ends[..., 0] * len(nodes) + ends[..., 1],
                        return_inverse=True)
    edge = edge.reshape(len(elements), len(cols))
    new_edge = edge.max() + 1          # stands for every edge bisection makes
    marked = np.zeros(new_edge + 1, dtype=bool)
    marked[edge[split, 0]] = True
    while not marked[need := edge[marked[edge].any(axis=1), 0]].all():
        marked[need] = True
    mid = np.full(new_edge + 1, -1, dtype=np.int64)
    while True:
        cut = marked[edge[:, 0]]
        if not cut.any():
            return nodes, elements, keys
        el, e, (r, p) = elements[cut], edge[cut], keys[cut].T
        if p.max() >= 1 << 62:
            raise InvalidPlanError(f"bisecting path {p.max()} would overflow int64")
        # a midpoint for each edge not split before, in order of first split
        fresh = np.flatnonzero(mid[e[:, 0]] < 0)
        _, first = np.unique(e[fresh, 0], return_index=True)
        fresh = fresh[np.sort(first)]
        mid[e[fresh, 0]] = len(nodes) + np.arange(fresh.size)
        a, b = el[fresh, dim - 1], el[fresh, dim]
        nodes = np.concatenate([nodes, 0.5 * (nodes[a] + nodes[b])])
        m = mid[e[:, 0]]
        if dim == 1:
            kids = [[el[:, 0], m], [m, el[:, 1]]]
            kid_edges = [[np.full_like(m, new_edge)]] * 2
        else:
            kids = [[m, el[:, 0], el[:, 1]], [m, el[:, 2], el[:, 0]]]
            kid_edges = [[e[:, k]] + [np.full_like(m, new_edge)] * 2 for k in (1, 2)]
        elements = np.concatenate([elements[~cut], _children(kids)])
        edge = np.concatenate([edge[~cut], _children(kid_edges)])
        keys = np.concatenate([keys[~cut], _children([[r, 2 * p], [r, 2 * p + 1]])])


def _children(columns):
    """Rows of both children of every parent, (r, 2p) first, from the
    column lists of the first and of the second child."""
    first, second = (np.column_stack(c) for c in columns)
    return np.stack([first, second], axis=1).reshape(-1, first.shape[1])


def uniform_refine(mesh: SimplicialMesh, times: int = 1) -> SimplicialMesh:
    """Bisect every element, repeated `times` times."""
    for _ in range(times):
        mesh = refine(mesh, RefinementPlan(refine=frozenset(range(mesh.n_elems))))
    return mesh


# ---------------------------------------------------------------------------
# point location

class _Locator:
    """Uniform bin grid over the mesh bounding box: bin_elems[bin_ptr[c]:
    bin_ptr[c + 1]] are the ascending ids of every element that may hold a
    point of cell c. Cells start at half the median element diameter, so a
    bin of a graded mesh holds few of its many fine elements, and double
    until cells plus (element, cell) pairs are at most BIN_ENTRIES_PER_ELEM
    per element."""

    def __init__(self, mesh: SimplicialMesh):
        self.mesh = mesh
        self.lo, self.hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
        pts = mesh.nodes[mesh.elements]
        diam = np.sort(np.linalg.norm(pts - np.roll(pts, 1, axis=1), axis=2).max(axis=1))
        # the mean of the middle one or two is np.median, which loads numpy.ma
        middle = diam[(diam.size - 1) // 2:diam.size // 2 + 1].mean()
        cell = max(0.5 * float(middle), 1e-300)
        extent = np.maximum(self.hi - self.lo, 1e-300)
        box_lo, box_hi = pts.min(axis=1), pts.max(axis=1)
        # an element holds only points within dim * BARY_TOL times its
        # diameter of itself; its box is grown by twice that at the mesh's
        # diagonal, so a point's bin lists every element that may hold it
        grow = 2 * mesh.dim * BARY_TOL * float(np.linalg.norm(self.hi - self.lo))
        while True:
            self.shape = np.minimum(np.maximum((extent / cell).astype(int), 1), 2048)
            self.cell = extent / self.shape
            lo_idx = self._cell_index(box_lo - grow)
            span = self._cell_index(box_hi + grow) - lo_idx + 1
            if (np.prod(span, axis=1).sum() + np.prod(self.shape)
                    <= BIN_ENTRIES_PER_ELEM * max(mesh.n_elems, 1)):
                break
            cell *= 2.0
        # the stable sort keeps element ids ascending within every bin
        pair_elem, pair_cell = self._box_cells(lo_idx, span)
        key = np.ravel_multi_index(pair_cell, self.shape)
        self.bin_elems = pair_elem[np.argsort(key, kind="stable")]
        # per axis, a row over the elements: bounding boxes and first cells
        self.box_lo, self.box_hi, self.lo_idx = (np.ascontiguousarray(a.T)
                                                 for a in (box_lo, box_hi, lo_idx))
        self.bin_ptr = np.zeros(int(np.prod(self.shape)) + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=self.bin_ptr.size - 1),
                  out=self.bin_ptr[1:])
        # per element one row: the origin (vertex 0), then the inverse
        # Jacobian row by row, so a pass gathers one contiguous row per point
        origin = pts[:, 0]
        if mesh.dim == 1:
            self.coef = np.column_stack([origin, 1.0 / (pts[:, 1, 0] - pts[:, 0, 0])])
        else:
            (a, c), (b, d) = (pts[:, 1] - origin).T, (pts[:, 2] - origin).T
            det = a * d - b * c
            self.coef = np.column_stack([origin, d / det, -b / det, -c / det, a / det])

    def _cell_index(self, pts):
        # clipped to the mesh box (fmax and fmin take a nan there too) before
        # the cast, so no point overflows it
        idx = ((np.fmin(np.fmax(pts, self.lo), self.hi) - self.lo) / self.cell).astype(int)
        return np.minimum(idx, self.shape - 1)

    def _box_cells(self, lo_idx, span):
        """A (box, cell) pair per cell of box i, span[i] cells from lo_idx[i]:
        the box ids, ascending, and the cell multi-indices, a row per axis."""
        count = np.prod(span, axis=1)
        box = np.repeat(np.arange(len(count)), count)
        rank = np.arange(box.size) - np.repeat(np.cumsum(count) - count, count)
        cell = lo_idx.T[:, box]
        for d in range(self.mesh.dim - 1, -1, -1):
            cell[d] += rank % span[box, d]
            rank //= span[box, d]
        return box, cell

    def barycentric(self, eids, pts):
        """Barycentric coordinates of pts[i] in element eids[i], as dim + 1
        columns, and whether each point lies in its element (BARY_TOL)."""
        c = self.coef[eids]
        if self.mesh.dim == 1:
            t = (pts[:, 0] - c[:, 0]) * c[:, 1]
            lam = (1.0 - t, t)
        else:
            d0 = pts[:, 0] - c[:, 0]
            d1 = pts[:, 1] - c[:, 1]
            l1 = c[:, 2] * d0 + c[:, 3] * d1
            l2 = c[:, 4] * d0 + c[:, 5] * d1
            lam = (1.0 - l1 - l2, l1, l2)
        return lam, np.logical_and.reduce([l >= -BARY_TOL for l in lam])

    def locate(self, pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        eid_out = -np.ones(n, dtype=np.int64)
        bary_out = np.zeros((n, self.mesh.dim + 1))
        key = np.ravel_multi_index(self._cell_index(pts).T, self.shape)
        first = self.bin_ptr[key]
        n_cands = self.bin_ptr[key + 1] - first
        # pass k tests the k-th candidate of every unresolved point; bins
        # hold ascending ids, so the first hit is the lowest-id holder
        todo = np.arange(n)
        for k in range(int(n_cands.max(initial=0))):
            todo = todo[n_cands[todo] > k]
            if not todo.size:
                break
            eids = self.bin_elems[first[todo] + k]
            # a far or non-finite point's barycentrics are inf or nan: no hit
            with np.errstate(over="ignore", invalid="ignore"):
                lam, inside = self.barycentric(eids, pts[todo])
            hit = todo[inside]
            eid_out[hit] = eids[inside]
            for j, l in enumerate(lam):
                bary_out[hit, j] = l[inside]
            todo = todo[~inside]
        missing = eid_out < 0
        if missing.any():
            err = PointNotFoundError(f"{missing.sum()} points not inside any element "
                                     f"(first: {pts[missing][0]})")
            err.points = pts[missing]
            raise err
        return eid_out, bary_out


# the locator of the mesh located last, which holds that mesh: one locator
# is alive per process and no mesh refers to one, so a mesh dropped is freed
# at once; no hot loop alternates between two meshes
_last_locator = None


def _locator(mesh: SimplicialMesh) -> _Locator:
    global _last_locator
    if _last_locator is None or _last_locator.mesh is not mesh:
        _last_locator = None            # freed before the next one is built
        _last_locator = _Locator(mesh)
    return _last_locator


def locate_points(mesh: SimplicialMesh, pts) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the (n, dim) array pts, the element containing it and
    its barycentric coordinates there: arrays of shape (n,) and
    (n, dim + 1). A point lies in the lowest-id element whose barycentrics
    there are all >= -BARY_TOL; a point in no element, or not finite, raises
    PointNotFoundError."""
    return _locator(mesh).locate(pts)


def elements_meeting(mesh: SimplicialMesh, lo, hi) -> np.ndarray:
    """For the boxes [lo[i], hi[i]] given by the rows of two (n, dim)
    arrays, the ascending keys i * n_elems + e of the elements e whose
    bounding box meets box i, boundary included."""
    loc, dim = _locator(mesh), mesh.dim
    lo_idx = loc._cell_index(lo)
    box, cell = loc._box_cells(lo_idx, loc._cell_index(hi) - lo_idx + 1)
    key = np.ravel_multi_index(cell, loc.shape)
    first = loc.bin_ptr[key]
    count = loc.bin_ptr[key + 1] - first
    box, cell = np.repeat(box, count), np.repeat(cell, count, axis=1)
    elem = loc.bin_elems[np.arange(box.size)
                         - np.repeat(np.cumsum(count) - count - first, count)]
    # a box and an element that share cells meet once, in the first of them
    keep = np.ones(box.size, dtype=bool)
    for d in range(dim):
        keep &= cell[d] == np.maximum(loc.lo_idx[d, elem], lo_idx[box, d])
    box, elem = box[keep], elem[keep]
    for d in range(dim):
        keep = (loc.box_lo[d, elem] <= hi[box, d]) & (loc.box_hi[d, elem] >= lo[box, d])
        box, elem = box[keep], elem[keep]
    return np.sort(box * mesh.n_elems + elem)


def barycentric(mesh: SimplicialMesh, eids, pts) -> np.ndarray:
    """Barycentric coordinates of pts[i] in element eids[i], shape
    (n, dim + 1); a point outside its element has a negative one."""
    lam, _ = _locator(mesh).barycentric(eids, pts)
    return np.column_stack(lam)


# ---------------------------------------------------------------------------
# 1-d band layout

class BandLayout(NamedTuple):
    """A 1-d mesh in coordinate order: order[k] is the k-th node from the
    left and h[k] the length of the element joining positions k and k + 1,
    0 where no element does (a gap)."""

    order: np.ndarray
    h: np.ndarray


# (mesh, its band layout) of the mesh laid out last, as _last_locator
_last_band = (None, None)


def band_layout(mesh: SimplicialMesh) -> BandLayout:
    """The band layout of a 1-d mesh, read-only; computed again only when
    another mesh was laid out since. Every element joins positions k and
    k + 1 for a k of its own, as validate_mesh ensures."""
    global _last_band
    if _last_band[0] is not mesh:
        _last_band = (None, None)
        order, pos = _positions(mesh)
        layout = BandLayout(order, np.zeros(order.size - 1))
        layout.h[pos[:, 0]] = mesh.element_measures()
        for a in layout:
            a.setflags(write=False)
        _last_band = (mesh, layout)
    return _last_band[1]


# ---------------------------------------------------------------------------
# plain-text tables: the grammar of mesh, field, model and manifest files

def _plain(text: str) -> bool:
    """ASCII without "_", which int(), float() and Fraction() would read."""
    return text.isascii() and "_" not in text


# ASCII digits; at most 3 exponent digits, as float repr: Fraction slows with more
_DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]{1,3})?")


def exact_time(text: str) -> Fraction:
    """The exact value of a time token (see _DECIMAL) in the float range, or
    InvalidArgumentError, a ValueError as argparse and _convert want."""
    try:
        if not _DECIMAL.fullmatch(text):
            raise ValueError("not a decimal number with at most three exponent digits")
        t = Fraction(text)      # a ValueError past int's digit limit
        float(t)                # an OverflowError past the float range
    except (ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"bad time {text!r}: {exc}") from None
    return t


def fraction_to_decimal(fr: Fraction) -> str:
    """The shortest exact decimal of fr, or InvalidArgumentError when its
    denominator is not 2^a 5^b: then no power of ten is a multiple of it."""
    shift = fr.denominator.bit_length()     # > max(a, b)
    scaled, rest = divmod(abs(fr.numerator) * 10 ** shift, fr.denominator)
    if rest:
        raise InvalidArgumentError(f"time {fr} has no finite decimal")
    text = f"{scaled // 10 ** shift}.{scaled % 10 ** shift:0{shift}d}"
    return ("-" if fr < 0 else "") + text.rstrip("0").rstrip(".")


def _convert(rows, sections):
    """[[column per kind] per section] of the rows (see _read_table); a
    ValueError or OverflowError names a fault."""
    table, start = [], 0
    for n, kinds in sections:
        block, start = rows[start:start + n], start + n
        if set(map(len, block)) - {len(kinds)}:
            raise ValueError(f"expected {len(kinds)} values")
        table.append(columns := [])
        for j, kind in enumerate(kinds):
            column = [] if kind == "-" else [row[j] for row in block]
            if kind != "n" and not _plain("".join(column)):
                raise ValueError(f"{' '.join(column)!r} is not plain ASCII without '_'")
            if kind == "i":
                column = np.array(list(map(int, column)), dtype=np.int64)
            elif kind == "t":       # checked, and kept as text
                list(map(exact_time, column))
            elif kind in "fg":
                values = np.array(list(map(float, column)))
                if kind == "f" and not np.isfinite(values).all():
                    raise ValueError(f"{' '.join(column)!r} is not finite")
                column = values
            columns.append(None if kind == "-" else column)
    return table


def _read_table(path, what, head, body, check=None):
    """Read the text file at path as a header and a table. Lines end at a
    newline; tokens are separated by whitespace. Header line k + 1 holds a
    token of each kind in head[k] ("i" int64, "f" finite float, "g" float,
    "t" time, a Fraction by exact_time, in a table its text, "n" any name) or,
    for "*", any names.
    body(*header values) gives the table's sections (rows, kinds), rows
    None for all rows of a one-section table; lines without tokens are
    skipped, each row holds a token of each kind ("-" a number left as
    text), and nothing follows. Numbers, and every line of a table without
    names, are ASCII without "_". check(header, table) sees the rows before
    the first fault and may give (row, reason) for an earlier one.

    Returns (header values, [[column per kind] per section]); a fault raises
    InvalidArgumentError naming the file and line. No allocation is sized
    from a header value."""
    def fault(line, reason):
        at = f"line {line}: " if line else ""
        return InvalidArgumentError(f"malformed {what} {path}: {at}{reason}")

    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise fault(None, exc) from exc
    lines, header, first = text.split("\n"), [], len(head)
    for k, kinds in enumerate(head):
        tokens = lines[k].split() if k < len(lines) else []
        if kinds == "*":
            header.append(tokens)
            continue
        try:
            _convert([tokens], [(1, kinds)])
        except (ValueError, OverflowError) as exc:
            raise fault(k + 1, exc) from exc
        header += [{"i": int, "f": float, "t": exact_time}.get(c, str)(t)
                   for t, c in zip(tokens, kinds)]
    try:
        sections = body(*header)
    except ValueError as exc:
        raise fault(None, exc) from exc
    rows = [row for row in map(str.split, lines[first:]) if row]
    sections = [(len(rows) if n is None else n, kinds) for n, kinds in sections]
    expected, bad = sum(n for n, _ in sections), None

    def line(k):      # the line of table row k
        return [i for i, s in enumerate(lines[first:], first + 1) if s.split()][k]

    if len(rows) != expected:
        raise fault(line(min(expected, len(rows) - 1)) if rows else first,
                    f"{len(rows)} table rows, expected {expected}")
    if not (_plain(text) or any("n" in kinds for _, kinds in sections)):
        for i, s in enumerate(lines[first:], first + 1):
            if not _plain(s):
                raise fault(i, "not plain ASCII without '_'")
    try:
        table = _convert(rows, sections)
    except (ValueError, OverflowError):
        row_kinds = chain.from_iterable(repeat(kinds, n) for n, kinds in sections)
        for k, (row, kinds) in enumerate(zip(rows, row_kinds)):
            try:
                _convert([row], [(1, kinds)])
            except (ValueError, OverflowError) as exc:
                bad, table = (k, exc), _convert(rows[:k], sections)
                break
    if check is not None:
        bad = check(header, table) or bad
    if bad:
        raise fault(line(bad[0]), bad[1])
    return header, table


# ---------------------------------------------------------------------------
# mesh file format: line 1 "dim n_nodes n_elems", then node coordinates,
# then 0-based element connectivity. Extension ".mesh.txt". A mesh has at
# least one element, and every node belongs to one.

def save_mesh(mesh: SimplicialMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{mesh.dim} {mesh.n_nodes} {mesh.n_elems}\n")
        # one format over the whole table: no Python step per row
        row = " ".join(["%.17g"] * mesh.dim) + "\n"
        fh.write(row * mesh.n_nodes % tuple(mesh.nodes.ravel().tolist()))
        row = " ".join(["%d"] * (mesh.dim + 1)) + "\n"
        fh.write(row * mesh.n_elems % tuple(mesh.elements.ravel().tolist()))


def load_mesh(path) -> SimplicialMesh:
    """Read a mesh file. Refinement history is not stored in the format, so
    loaded elements come back at level 0 with orientation normalized and,
    in 2-d, the longest edge chosen as refinement edge (ties broken by
    smallest sorted node pair)."""
    def table(dim, n_nodes, n_elems):
        if dim not in (1, 2):
            raise ValueError(f"unsupported dimension {dim}")
        if n_elems < 1 or n_nodes < 1:
            raise ValueError("a mesh needs at least one element and one node")
        return [(n_nodes, "f" * dim), (n_elems, "i" * (dim + 1))]

    (dim, n_nodes, _), tables = _read_table(path, "mesh file", ["iii"], table)
    nodes, elements = (np.column_stack(columns) for columns in tables)
    try:
        _check_tables(dim, nodes, elements)   # before _normalize_elements
        orphan = np.flatnonzero(np.bincount(elements.ravel(), minlength=n_nodes) == 0)
        if orphan.size:
            raise ValueError(f"node {orphan[0]} belongs to no element")
        return SimplicialMesh(dim=dim, nodes=nodes,
                              elements=_normalize_elements(dim, nodes, elements))
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed mesh file {path}: {exc}") from exc


def _normalize_elements(dim, nodes, elements):
    elements = elements.copy()
    if dim == 1:
        flip = nodes[elements[:, 0], 0] > nodes[elements[:, 1], 0]
        elements[flip] = elements[flip][:, ::-1]
        return elements
    pts = nodes[elements]
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    neg = area2 < 0
    elements[neg] = elements[neg][:, [0, 2, 1]]
    # edge k is opposite vertex k; the refinement edge is the longest one,
    # ties (within 1e-12) broken by the smallest sorted node pair
    a, b = elements[:, [1, 2, 0]], elements[:, [2, 0, 1]]
    lengths = np.linalg.norm(nodes[b] - nodes[a], axis=2)
    longest = lengths >= lengths.max(axis=1, keepdims=True) * (1.0 - 1e-12)
    pair_rank = np.minimum(a, b) * len(nodes) + np.maximum(a, b)
    k = np.argmin(np.where(longest, pair_rank, np.iinfo(np.int64).max), axis=1)
    return np.take_along_axis(elements, (k[:, None] + np.arange(3)) % 3, axis=1)
