"""Simplicial meshes in 1-d (segments) and 2-d (triangles).

Meshes are immutable after construction. Refinement bisects flagged
elements; in 2-d this is newest-vertex bisection with recursive closure so
the result is always conforming (no hanging nodes). Coarsening merges
complete sibling groups back into their parent. Point location is
accelerated by a uniform background bin grid and falls back to an
exhaustive scan near boundaries.

Element storage conventions (these carry the bisection bookkeeping):
  1-d: element (a, b) with x[a] < x[b]; bisection splits at the midpoint.
  2-d: element (p, a, b), counterclockwise, where (a, b) is the refinement
       edge and p the most recently created ("newest") vertex. Bisection
       inserts the midpoint M of (a, b) and emits children (M, p, a) and
       (M, b, p), which keeps orientation and the newest-vertex labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidArgumentError, InvalidPlanError, PointNotFoundError

NODE_DEDUP_TOL = 1e-12
BARY_TOL = 1e-10

# Lineage of an element: None for a root element, else a pair
# (parent_node_tuple, parent_lineage). Node ids in the tuple refer to the
# mesh the element lives in; coarsening remaps them when nodes are compacted.
Lineage = tuple | None


@dataclass
class SimplicialMesh:
    dim: int
    nodes: np.ndarray      # (n_nodes, dim) float
    elements: np.ndarray   # (n_elems, dim + 1) int
    level: np.ndarray      # (n_elems,) int, refinement depth
    lineage: tuple = ()    # per-element Lineage entries
    _locator: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(np.atleast_2d(np.asarray(self.nodes, dtype=float)))
        if self.nodes.shape[1] != self.dim:
            self.nodes = self.nodes.reshape(-1, self.dim)
        self.elements = np.ascontiguousarray(np.asarray(self.elements, dtype=np.int64))
        self.level = np.asarray(self.level, dtype=np.int64)
        if not self.lineage:
            self.lineage = (None,) * self.n_elems
        self.nodes.setflags(write=False)
        self.elements.setflags(write=False)
        self.level.setflags(write=False)

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

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.nodes.min(axis=0), self.nodes.max(axis=0)


@dataclass(frozen=True)
class RefinementPlan:
    """Element ids flagged for refinement / coarsening on one mesh."""

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
    mesh = SimplicialMesh(dim=1, nodes=nodes, elements=elements,
                          level=np.zeros(n_elems, dtype=np.int64))
    validate_mesh(mesh)
    return mesh


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
    elems = []
    for j in range(ny):
        for i in range(nx):
            ll = j * (nx + 1) + i
            lr = ll + 1
            ul = ll + (nx + 1)
            ur = ul + 1
            # peak-first storage; refinement edge = (ll, ur) diagonal
            elems.append((lr, ur, ll))
            elems.append((ul, ll, ur))
    elements = np.asarray(elems, dtype=np.int64)
    mesh = SimplicialMesh(dim=2, nodes=nodes, elements=elements,
                          level=np.zeros(len(elems), dtype=np.int64))
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# validation

def _facet_census(dim, elements):
    """Count how many elements share each facet (node in 1-d, edge in 2-d)."""
    counts = {}
    if dim == 1:
        for a, b in elements:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
    else:
        for p, a, b in elements:
            for u, v in ((p, a), (a, b), (b, p)):
                key = (u, v) if u < v else (v, u)
                counts[key] = counts.get(key, 0) + 1
    return counts


def validate_mesh(mesh: SimplicialMesh) -> None:
    """Check the structural invariants; raises InvalidArgumentError."""
    if mesh.dim not in (1, 2):
        raise InvalidArgumentError(f"unsupported dimension {mesh.dim}")
    if mesh.elements.size and (mesh.elements.min() < 0 or mesh.elements.max() >= mesh.n_nodes):
        raise InvalidArgumentError("element node index out of range")
    measures = mesh.element_measures()
    if np.any(measures <= 0):
        bad = int(np.argmin(measures))
        raise InvalidArgumentError(
            f"element {bad} has non-positive measure {measures[bad]:g}")
    counts = _facet_census(mesh.dim, mesh.elements)
    bad = [k for k, c in counts.items() if c > 2]
    if bad:
        raise InvalidArgumentError(f"facet shared by >2 elements: {bad[:3]}")
    if mesh.n_nodes > 1:
        tree = cKDTree(mesh.nodes)
        pairs = tree.query_pairs(NODE_DEDUP_TOL)
        if pairs:
            raise InvalidArgumentError(f"duplicate nodes within tolerance: {sorted(pairs)[:3]}")
    if len(mesh.lineage) != mesh.n_elems:
        raise InvalidArgumentError("lineage length mismatch")


# ---------------------------------------------------------------------------
# refinement / coarsening

def _edge_key(u, v):
    return (u, v) if u < v else (v, u)


class _MeshWork:
    """Mutable staging area for one refine/coarsen operation."""

    def __init__(self, mesh: SimplicialMesh):
        self.dim = mesh.dim
        self.coords = [tuple(row) for row in mesh.nodes]
        self.elems = {i: tuple(el) for i, el in enumerate(mesh.elements)}
        self.level = {i: int(lv) for i, lv in enumerate(mesh.level)}
        self.lineage = {i: mesh.lineage[i] for i in range(mesh.n_elems)}
        self.next_id = mesh.n_elems
        self.node_elems = {}          # node id -> set of live element ids
        for eid, el in self.elems.items():
            for v in el:
                self.node_elems.setdefault(v, set()).add(eid)
        if self.dim == 2:
            self.edge_map = {}        # edge key -> set of live element ids
            for eid, el in self.elems.items():
                for u, v in self._edges(el):
                    self.edge_map.setdefault(_edge_key(u, v), set()).add(eid)
        self.midpoints = {}           # edge key -> node id created this pass

    @staticmethod
    def _edges(el):
        p, a, b = el
        return ((p, a), (a, b), (b, p))

    def _new_elem(self, nodes, level, lineage):
        eid = self.next_id
        self.next_id += 1
        self.elems[eid] = nodes
        self.level[eid] = level
        self.lineage[eid] = lineage
        for v in nodes:
            self.node_elems.setdefault(v, set()).add(eid)
        if self.dim == 2:
            for u, v in self._edges(nodes):
                self.edge_map.setdefault(_edge_key(u, v), set()).add(eid)
        return eid

    def _drop_elem(self, eid):
        nodes = self.elems.pop(eid)
        self.level.pop(eid)
        self.lineage.pop(eid)
        for v in nodes:
            self.node_elems[v].discard(eid)
        if self.dim == 2:
            for u, v in self._edges(nodes):
                self.edge_map[_edge_key(u, v)].discard(eid)

    def _midpoint_node(self, u, v):
        key = _edge_key(u, v)
        nid = self.midpoints.get(key)
        if nid is None:
            cu = self.coords[u]
            cv = self.coords[v]
            self.coords.append(tuple(0.5 * (np.asarray(cu) + np.asarray(cv))))
            nid = len(self.coords) - 1
            self.midpoints[key] = nid
        return nid

    # -- coarsening --------------------------------------------------------

    def coarsen(self, coarsen_ids):
        """Merge complete sibling groups; conformity-blocked merges are
        skipped (a midpoint still used by finer neighbors must stay)."""
        if not coarsen_ids:
            return
        groups = {}
        for eid in sorted(coarsen_ids):
            if eid not in self.elems:
                raise InvalidPlanError(f"coarsen id {eid} not in mesh")
            lin = self.lineage[eid]
            if lin is None or self.level[eid] < 1:
                raise InvalidPlanError(f"element {eid} has no parent to merge into")
            groups.setdefault(lin[0], []).append(eid)
        for parent_nodes, members in groups.items():
            siblings = [e for e, l in self.lineage.items()
                        if l is not None and l[0] == parent_nodes]
            if len(siblings) != 2 or sorted(siblings) != sorted(members):
                raise InvalidPlanError(
                    f"partial sibling group for parent nodes {parent_nodes}")
        # merge units: all groups sharing one midpoint node must merge together
        units = {}
        for parent_nodes, members in groups.items():
            mid = self._group_midpoint(members)
            units.setdefault(mid, []).append(parent_nodes)
        for mid, parent_list in sorted(units.items()):
            children = [e for p in parent_list for e in groups[p]]
            if self.node_elems.get(mid, set()) != set(children):
                continue  # midpoint still needed by finer neighbors
            for parent_nodes in parent_list:
                members = groups[parent_nodes]
                lvl = self.level[members[0]] - 1
                grand = self.lineage[members[0]][1]
                for e in members:
                    self._drop_elem(e)
                self._new_elem(tuple(parent_nodes), lvl, grand)

    def _group_midpoint(self, members):
        if self.dim == 1:
            (a1, b1), (a2, b2) = (self.elems[m] for m in sorted(members)[:2])
            return b1 if b1 == a2 else a1
        # 2-d children both carry the midpoint as their peak (vertex 0)
        return self.elems[sorted(members)[0]][0]

    # -- refinement --------------------------------------------------------

    def refine(self, refine_ids, max_level):
        for eid in sorted(refine_ids):
            if eid not in self.elems:
                continue  # already bisected through closure
            if max_level is not None and self.level[eid] >= max_level:
                raise InvalidPlanError(
                    f"element {eid} already at max_level {max_level}")
            self._bisect_conforming(eid)

    def _bisect_conforming(self, eid):
        if self.dim == 1:
            a, b = self.elems[eid]
            mid = self._midpoint_node(a, b)
            lvl = self.level[eid] + 1
            lin = ((a, b), self.lineage[eid])
            self._drop_elem(eid)
            self._new_elem((a, mid), lvl, lin)
            self._new_elem((mid, b), lvl, lin)
            return
        stack = [eid]
        on_stack = {eid}
        while stack:
            top = stack[-1]
            if top not in self.elems:
                stack.pop()
                on_stack.discard(top)
                continue
            p, a, b = self.elems[top]
            key = _edge_key(a, b)
            nbrs = self.edge_map.get(key, set()) - {top}
            partner = None
            incompatible = None
            for n in nbrs:
                np_, na, nb = self.elems[n]
                if _edge_key(na, nb) == key:
                    partner = n
                else:
                    incompatible = n
            if incompatible is not None:
                if incompatible in on_stack:
                    raise InvalidPlanError(
                        "refinement closure cycle; mesh labeling incompatible")
                stack.append(incompatible)
                on_stack.add(incompatible)
                continue
            self._bisect_pair(top, partner)
            stack.pop()
            on_stack.discard(top)

    def _bisect_pair(self, eid, partner):
        p, a, b = self.elems[eid]
        mid = self._midpoint_node(a, b)
        for e in (eid, partner) if partner is not None else (eid,):
            ep, ea, eb = self.elems[e]
            lvl = self.level[e] + 1
            lin = ((ep, ea, eb), self.lineage[e])
            self._drop_elem(e)
            self._new_elem((mid, ep, ea), lvl, lin)
            self._new_elem((mid, eb, ep), lvl, lin)

    # -- output ------------------------------------------------------------

    def to_mesh(self) -> SimplicialMesh:
        order = sorted(self.elems)
        elements = np.asarray([self.elems[i] for i in order], dtype=np.int64)
        used = np.unique(elements) if elements.size else np.arange(0)
        remap = -np.ones(len(self.coords), dtype=np.int64)
        remap[used] = np.arange(len(used))
        elements = remap[elements]
        nodes = np.asarray([self.coords[i] for i in used], dtype=float)

        def remap_lineage(lin):
            if lin is None:
                return None
            node_tuple, parent = lin
            new_tuple = tuple(int(remap[v]) for v in node_tuple)
            if any(v < 0 for v in new_tuple):
                raise AssertionError("lineage references a dropped node")
            return (new_tuple, remap_lineage(parent))

        lineage = tuple(remap_lineage(self.lineage[i]) for i in order)
        level = np.asarray([self.level[i] for i in order], dtype=np.int64)
        mesh = SimplicialMesh(dim=self.dim, nodes=nodes, elements=elements,
                              level=level, lineage=lineage)
        validate_mesh(mesh)
        return mesh


def refine(mesh: SimplicialMesh, plan: RefinementPlan) -> SimplicialMesh:
    """Apply a refinement/coarsening plan, returning a new conforming mesh.

    Coarsening runs first on complete sibling groups (both children
    flagged), then flagged elements are bisected with closure. A sibling
    group whose midpoint is still used by finer neighbors is left alone to
    preserve conformity.
    """
    if not plan.refine and not plan.coarsen:
        return mesh
    n = mesh.n_elems
    for eid in plan.refine | plan.coarsen:
        if not 0 <= eid < n:
            raise InvalidPlanError(f"plan references element {eid} of {n}")
    if plan.max_level is not None:
        levels = mesh.level[np.fromiter(plan.refine, dtype=np.int64)] if plan.refine else []
        if len(levels) and np.max(levels) >= plan.max_level:
            raise InvalidPlanError("plan would exceed max_level")
    work = _MeshWork(mesh)
    work.coarsen(plan.coarsen)
    # surviving elements keep their ids in the work structure
    work.refine([e for e in plan.refine if e in work.elems], plan.max_level)
    return work.to_mesh()


def uniform_refine(mesh: SimplicialMesh, times: int = 1) -> SimplicialMesh:
    """Bisect every element, repeated `times` times."""
    for _ in range(times):
        mesh = refine(mesh, RefinementPlan(refine=frozenset(range(mesh.n_elems))))
    return mesh


# ---------------------------------------------------------------------------
# point location

class _Locator:
    """Uniform background bin grid over the mesh bounding box."""

    def __init__(self, mesh: SimplicialMesh):
        self.mesh = mesh
        self.lo, self.hi = mesh.bounding_box()
        pts = mesh.nodes[mesh.elements]
        if mesh.dim == 1:
            diam = np.abs(pts[:, 1, 0] - pts[:, 0, 0])
        else:
            e0 = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
            e1 = np.linalg.norm(pts[:, 2] - pts[:, 1], axis=1)
            e2 = np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1)
            diam = np.maximum(e0, np.maximum(e1, e2))
        cell = max(float(np.mean(diam)), 1e-300)
        extent = np.maximum(self.hi - self.lo, 1e-300)
        self.shape = np.minimum(np.maximum((extent / cell).astype(int), 1), 2048)
        self.cell = extent / self.shape
        self.bins = {}
        bb_lo = pts.min(axis=1)
        bb_hi = pts.max(axis=1)
        lo_idx = self._cell_index(bb_lo)
        hi_idx = self._cell_index(bb_hi)
        for eid in range(mesh.n_elems):
            ranges = [range(lo_idx[eid, d], hi_idx[eid, d] + 1) for d in range(mesh.dim)]
            if mesh.dim == 1:
                for i in ranges[0]:
                    self.bins.setdefault((i,), []).append(eid)
            else:
                for i in ranges[0]:
                    for j in ranges[1]:
                        self.bins.setdefault((i, j), []).append(eid)
        # per-element barycentric transforms
        origin = pts[:, 0]
        if mesh.dim == 1:
            self.origin = origin[:, 0]
            self.inv_h = 1.0 / (pts[:, 1, 0] - pts[:, 0, 0])
        else:
            J = np.stack([pts[:, 1] - origin, pts[:, 2] - origin], axis=2)
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            inv = np.empty_like(J)
            inv[:, 0, 0] = J[:, 1, 1] / det
            inv[:, 0, 1] = -J[:, 0, 1] / det
            inv[:, 1, 0] = -J[:, 1, 0] / det
            inv[:, 1, 1] = J[:, 0, 0] / det
            self.origin = origin
            self.inv_jac = inv

    def _cell_index(self, pts):
        idx = ((pts - self.lo) / self.cell).astype(int)
        return np.clip(idx, 0, self.shape - 1)

    def barycentric(self, eids, pts):
        """Barycentric coordinates of pts[i] in element eids[i]."""
        if self.mesh.dim == 1:
            t = (pts[:, 0] - self.origin[eids]) * self.inv_h[eids]
            return np.column_stack([1.0 - t, t])
        d = pts - self.origin[eids]
        inv = self.inv_jac[eids]
        l1 = inv[:, 0, 0] * d[:, 0] + inv[:, 0, 1] * d[:, 1]
        l2 = inv[:, 1, 0] * d[:, 0] + inv[:, 1, 1] * d[:, 1]
        return np.column_stack([1.0 - l1 - l2, l1, l2])

    def locate(self, pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        if np.any(pts < self.lo - BARY_TOL) or np.any(pts > self.hi + BARY_TOL):
            bad = np.unique(np.where(
                (pts < self.lo - BARY_TOL) | (pts > self.hi + BARY_TOL))[0])
            err = PointNotFoundError(
                f"{len(bad)} points outside the mesh bounding box")
            err.points = pts[bad]
            raise err
        eid_out = -np.ones(n, dtype=np.int64)
        bary_out = np.zeros((n, self.mesh.dim + 1))
        cells = self._cell_index(pts)
        keys = [tuple(c) for c in cells]
        groups = {}
        for i, k in enumerate(keys):
            groups.setdefault(k, []).append(i)
        for key, idx in groups.items():
            idx = np.asarray(idx)
            cands = self.bins.get(key, [])
            unresolved = np.ones(len(idx), dtype=bool)
            for eid in cands:  # ascending id: lowest-id tie-break on facets
                if not unresolved.any():
                    break
                sub = idx[unresolved]
                lam = self.barycentric(np.full(len(sub), eid), pts[sub])
                inside = np.all(lam >= -BARY_TOL, axis=1)
                hit = sub[inside]
                eid_out[hit] = eid
                bary_out[hit] = lam[inside]
                unresolved[unresolved] = ~inside
        missing = np.where(eid_out < 0)[0]
        if missing.size:
            self._exhaustive(pts, missing, eid_out, bary_out)
        return eid_out, bary_out

    def _exhaustive(self, pts, missing, eid_out, bary_out):
        failed = []
        for i in missing:
            pt = pts[i:i + 1]
            lam = self.barycentric(np.arange(self.mesh.n_elems),
                                   np.repeat(pt, self.mesh.n_elems, axis=0))
            inside = np.where(np.all(lam >= -BARY_TOL, axis=1))[0]
            if inside.size == 0:
                failed.append(pt[0])
                continue
            eid_out[i] = inside[0]
            bary_out[i] = lam[inside[0]]
        if failed:
            err = PointNotFoundError(
                f"{len(failed)} points not inside any element "
                f"(first: {failed[0]})")
            err.points = np.asarray(failed)
            raise err


def _locator(mesh: SimplicialMesh) -> _Locator:
    if mesh._locator is None:
        mesh._locator = _Locator(mesh)
    return mesh._locator


def locate_point(mesh: SimplicialMesh, x) -> tuple[int, np.ndarray]:
    """Element containing x and its barycentric coordinates there.

    Points on shared facets resolve to the lowest incident element id.
    """
    eids, bary = _locator(mesh).locate(np.asarray(x, dtype=float).reshape(1, -1))
    return int(eids[0]), bary[0]


def locate_points(mesh: SimplicialMesh, pts) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized locate_point for an (n, dim) array of query points."""
    return _locator(mesh).locate(pts)


# ---------------------------------------------------------------------------
# mesh file format: line 1 "dim n_nodes n_elems", then node coordinates,
# then 0-based element connectivity. Extension ".mesh.txt".

def save_mesh(mesh: SimplicialMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{mesh.dim} {mesh.n_nodes} {mesh.n_elems}\n")
        for row in mesh.nodes:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        for el in mesh.elements:
            fh.write(" ".join(str(int(v)) for v in el) + "\n")


def load_mesh(path) -> SimplicialMesh:
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
            nodes = np.loadtxt(fh, max_rows=n_nodes, ndmin=2,
                               dtype=float).reshape(n_nodes, dim)
            elements = np.loadtxt(fh, max_rows=n_elems, ndmin=2,
                                  dtype=np.int64).reshape(n_elems, dim + 1)
        except ValueError as exc:
            raise InvalidArgumentError(f"malformed mesh file {path}: {exc}") from exc
    elements = _normalize_elements(dim, nodes, elements)
    mesh = SimplicialMesh(dim=dim, nodes=nodes, elements=elements,
                          level=np.zeros(n_elems, dtype=np.int64))
    validate_mesh(mesh)
    return mesh


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
    out = np.empty_like(elements)
    for i, el in enumerate(elements):
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
