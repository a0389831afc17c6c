import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import mesh as M, seird_sim
from amrdmd.errors import InvalidArgumentError, InvalidPlanError, PointNotFoundError

from conftest import (element_keys, element_rows, exhaustive_locate,
                      graded_square, loop_normalize_elements_2d, loop_refine,
                      random_refined_interval, random_refined_square)


def facet_census(mesh):
    counts = {}
    if mesh.dim == 1:
        for a, b in mesh.elements:
            for n in (int(a), int(b)):
                counts[n] = counts.get(n, 0) + 1
    else:
        for el in mesh.elements:
            for k in range(3):
                key = tuple(sorted((int(el[k]), int(el[(k + 1) % 3]))))
                counts[key] = counts.get(key, 0) + 1
    return counts


def assert_conforming(mesh):
    counts = facet_census(mesh)
    assert set(counts.values()) <= {1, 2}
    if mesh.dim == 2:
        # strong check: no node may sit strictly inside another element's edge
        for (u, v), c in counts.items():
            if c != 1:
                continue
            a, b = mesh.nodes[u], mesh.nodes[v]
            t = mesh.nodes - a
            e = b - a
            L2 = e @ e
            proj = (t @ e) / L2
            d2 = np.sum((t - np.outer(proj, e)) ** 2, axis=1)
            on_edge = (d2 < 1e-20) & (proj > 1e-10) & (proj < 1 - 1e-10)
            assert not on_edge.any(), f"hanging node on boundary edge ({u},{v})"


class TestBuilders:
    def test_interval_benchmark_preset(self):
        m = M.build_interval_mesh(0, 1, 125)
        assert m.n_nodes == 126
        assert m.n_elems == 125
        np.testing.assert_allclose(m.element_measures(), 0.008)

    def test_interval_minimal(self):
        m = M.build_interval_mesh(0, 1, 1)
        np.testing.assert_allclose(m.nodes[:, 0], [0.0, 1.0])
        assert m.n_elems == 1

    def test_interval_uniform_spacing(self):
        m = M.build_interval_mesh(0, 2, 4)
        np.testing.assert_allclose(m.element_measures(), 0.5)

    def test_interval_invalid(self):
        with pytest.raises(InvalidArgumentError):
            M.build_interval_mesh(0, 1, 0)
        with pytest.raises(InvalidArgumentError):
            M.build_interval_mesh(1, 0, 3)

    def test_structured_80x80(self):
        m = M.build_structured_triangle_mesh([-1, 1], [-1, 1], 80, 80)
        assert m.n_nodes == 6561
        assert m.n_elems == 12800

    def test_structured_10x10(self):
        m = M.build_structured_triangle_mesh([-1, 1], [-1, 1], 10, 10)
        assert m.n_nodes == 121
        assert m.n_elems == 200

    def test_structured_single_cell(self):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 1, 1)
        assert m.n_nodes == 4
        assert m.n_elems == 2
        assert m.total_measure() == pytest.approx(1.0, abs=1e-15)

    def test_structured_degenerate_range(self):
        with pytest.raises(InvalidArgumentError):
            M.build_structured_triangle_mesh([0, 0], [0, 1], 2, 2)


class TestRefine:
    def test_uniform_bisection_1d(self):
        m = M.build_interval_mesh(0, 1, 4)
        r = M.refine(m, M.RefinementPlan(refine=frozenset(range(4))))
        assert r.n_elems == 8
        np.testing.assert_allclose(np.sort(r.element_measures()), 0.125)

    def test_empty_plan_is_identity(self):
        m = M.build_interval_mesh(0, 1, 4)
        r = M.refine(m, M.RefinementPlan())
        assert r is m

    def test_refine_then_coarsen_restores_parent(self):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        r = M.refine(m, M.RefinementPlan(refine=frozenset({0})))
        created = [i for i, (_, p) in enumerate(r.lineage) if p > 1]
        back = M.refine(r, M.RefinementPlan(coarsen=frozenset(created)))
        orig = {tuple(sorted(el)) for el in m.elements[np.argsort(m.elements[:, 0])]}
        rest = {tuple(sorted(el)) for el in back.elements}
        orig = {tuple(sorted(np.sort(m.nodes[list(t)].ravel()))) for t in orig}
        rest = {tuple(sorted(np.sort(back.nodes[list(t)].ravel()))) for t in rest}
        assert orig == rest
        assert back.n_elems == m.n_elems

    def test_partial_sibling_group_rejected(self):
        m = M.build_interval_mesh(0, 1, 2)
        r = M.refine(m, M.RefinementPlan(refine=frozenset({0})))
        children = [i for i, (_, p) in enumerate(r.lineage) if p > 1]
        with pytest.raises(InvalidPlanError):
            M.refine(r, M.RefinementPlan(coarsen=frozenset(children[:1])))

    def test_max_level_guard(self):
        m = M.build_interval_mesh(0, 1, 2)
        r = M.uniform_refine(m, 1)
        with pytest.raises(InvalidPlanError):
            M.refine(r, M.RefinementPlan(refine=frozenset({0}), max_level=1))

    def test_overlapping_plan_rejected(self):
        with pytest.raises(InvalidPlanError):
            M.RefinementPlan(refine=frozenset({1}), coarsen=frozenset({1}))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1))
    def test_conformity_and_measure_after_random_plans(self, bits1, bits2):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 3)
        total = m.total_measure()
        flags = frozenset(i for i in range(m.n_elems) if bits1 >> i & 1)
        r = M.refine(m, M.RefinementPlan(refine=flags))
        assert_conforming(r)
        assert r.total_measure() == pytest.approx(total, rel=1e-12)
        flags2 = frozenset(i for i in range(r.n_elems) if bits2 >> (i % 12) & 1)
        r2 = M.refine(r, M.RefinementPlan(refine=flags2))
        assert_conforming(r2)
        assert r2.total_measure() == pytest.approx(total, rel=1e-12)

    def test_coarsen_conformity_preserved(self, rng):
        m = random_refined_square(rng, nx=2, passes=3)
        groups = {}
        for e, (root, path) in enumerate(element_keys(m)):
            if path > 1:
                groups.setdefault((root, path >> 1), []).append(e)
        full = [e for mem in groups.values() if len(mem) == 2 for e in mem]
        r = M.refine(m, M.RefinementPlan(coarsen=frozenset(full)))
        assert_conforming(r)
        assert r.total_measure() == pytest.approx(m.total_measure(), rel=1e-12)

    def test_coarsening_leaves_no_reference_cycle(self):
        m = M.uniform_refine(M.build_interval_mesh(0, 1, 4), 2)
        parent = (m.lineage[0][0], m.lineage[0][1] >> 1)
        group = [e for e, (root, path) in enumerate(m.lineage)
                 if (root, path >> 1) == parent]
        gc.collect()
        gc.disable()
        try:
            r = M.refine(m, M.RefinementPlan(coarsen=frozenset(group)))
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0
        assert r.n_nodes == m.n_nodes - 1        # the group's midpoint is gone

        before = {tuple(m.nodes[el, 0]): key
                  for el, key in zip(m.elements, m.lineage)}
        for el, key in zip(r.elements, r.lineage):
            assert key == before.get(tuple(r.nodes[el, 0]), parent)


def sibling_groups(m):
    """Parent key (root, path) -> ascending ids of its children in m."""
    groups = {}
    for e, (r, p) in enumerate(element_keys(m)):
        if p > 1:
            groups.setdefault((r, p >> 1), []).append(e)
    return groups


def random_plan(rng, m):
    """Coarsen a random share of the complete sibling groups and refine a
    random share of the other elements."""
    share = rng.uniform(0, 1)
    coarsen = {e for g in sibling_groups(m).values()
               if len(g) == 2 and rng.uniform() < share for e in g}
    share = rng.uniform(0, 0.6)
    refine = {e for e in range(m.n_elems)
              if e not in coarsen and rng.uniform() < share}
    return M.RefinementPlan(refine=frozenset(refine), coarsen=frozenset(coarsen))


def start_mesh(rng, dim):
    if dim == 1:
        return M.build_interval_mesh(0, 1, int(rng.integers(1, 8)))
    n = int(rng.integers(1, 4))
    return M.build_structured_triangle_mesh([0, 1], [0, 1], n, n)


def corner_set(m, e):
    return frozenset(map(tuple, m.nodes[m.elements[e]].tolist()))


class TestBisectionKeys:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
    def test_keys_after_random_refine_coarsen_sequences(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = start_mesh(rng, dim)
        seen = {(i, 1): corner_set(m, i) for i in range(m.n_elems)}
        for _ in range(6):
            m = M.refine(m, random_plan(rng, m))
            keys = element_keys(m)
            assert m.level.tolist() == [p.bit_length() - 1 for _, p in keys]
            for parent, members in sibling_groups(m).items():
                if len(members) == 1:
                    continue
                assert len(members) == 2
                first, second = sorted(members, key=lambda e: keys[e][1])
                c1, c2 = m.elements[first], m.elements[second]
                # (a, M), (M, b) of (a, b); (M, p, a), (M, b, p) of (p, a, b)
                if dim == 1:
                    assert c1[1] == c2[0]
                    corners, mid = [c1[0], c2[1]], c1[1]
                else:
                    assert c1[0] == c2[0] and c1[1] == c2[2]
                    corners, mid = [c1[1], c1[2], c2[1]], c1[0]
                ends = m.nodes[corners[-2:]]
                assert m.nodes[mid].tolist() == (0.5 * (ends[0] + ends[1])).tolist()
                covered = frozenset(map(tuple, m.nodes[corners].tolist()))
                assert seen.setdefault(parent, covered) == covered
            for e, key in enumerate(keys):
                assert seen.setdefault(key, corner_set(m, e)) == corner_set(m, e)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
    def test_matches_the_recursive_closure_loop(self, seed, dim):
        """Against the plain-loop reference: the same corners and keys,
        so the closure bisects nothing more than recursion does; in 1-d
        the same nodes, elements and keys, numbering included."""
        rng = np.random.default_rng(seed)
        m = start_mesh(rng, dim)
        for _ in range(5):
            plan = random_plan(rng, m)
            nodes, elements, keys = loop_refine(m, plan)
            m = M.refine(m, plan)
            assert (element_rows(m.nodes, m.elements, element_keys(m))
                    == element_rows(nodes, elements, keys))
            if dim == 1:
                assert m.nodes.tolist() == nodes.tolist()
                assert m.elements.tolist() == elements.tolist()
                assert element_keys(m) == keys

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]),
           st.integers(1, 2))
    def test_coarsening_every_group_returns_to_the_roots(self, seed, dim, passes):
        rng = np.random.default_rng(seed)
        start = start_mesh(rng, dim)
        m = start
        for _ in range(passes):
            share = rng.uniform(0, 1)
            m = M.refine(m, M.RefinementPlan(refine=frozenset(
                e for e in range(m.n_elems) if rng.uniform() < share)))
        for _ in range(10):
            coarsen = frozenset(e for g in sibling_groups(m).values()
                                if len(g) == 2 for e in g)
            if not coarsen:
                break
            m = M.refine(m, M.RefinementPlan(coarsen=coarsen))
        else:
            pytest.fail("coarsening did not finish")
        root_of = {corner_set(start, i): (i, 1) for i in range(start.n_elems)}
        assert {corner_set(m, e): key for e, key in enumerate(element_keys(m))} \
            == root_of


class TestFacets:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
    def test_matches_dict_oracle(self, seed, dim):
        rng = np.random.default_rng(seed)
        if dim == 1:
            m = random_refined_interval(rng, n_base=int(rng.integers(1, 8)),
                                        passes=3)
        else:
            m = random_refined_square(rng, nx=int(rng.integers(1, 4)))
        oracle = {}
        for i, el in enumerate(m.elements.tolist()):
            faces = ([(v,) for v in el] if dim == 1 else
                     [tuple(sorted((el[k], el[(k + 1) % 3]))) for k in range(3)])
            for f in faces:
                oracle.setdefault(f, []).append(i)
        keys, owners = M.facets(m)
        assert keys.shape == (len(oracle), dim)
        assert owners.shape == (len(oracle), 2)
        got = {tuple(k): tuple(o) for k, o in zip(keys.tolist(), owners.tolist())}
        want = {k: tuple(v) if len(v) == 2 else (v[0], -1)
                for k, v in oracle.items()}
        assert got == want
        # a 1-d mesh has exactly its two end nodes on the boundary
        if dim == 1:
            assert (owners[:, 1] < 0).sum() == 2

    def test_three_triangles_on_one_edge_rejected(self):
        nodes = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.2, 0.5]]
        elements = [[2, 0, 1], [3, 1, 0], [4, 0, 1]]
        m = M.SimplicialMesh(dim=2, nodes=nodes, elements=elements)
        with pytest.raises(InvalidArgumentError, match="shared by >2"):
            M.facets(m)
        with pytest.raises(InvalidArgumentError, match="shared by >2"):
            M.validate_mesh(m)



def brute_close_pairs(nodes, tol):
    """Every pair i < j at Euclidean distance <= tol, from the full table."""
    d = np.abs(nodes[:, None, :] - nodes[None, :, :])
    dist = d[..., 0] if nodes.shape[1] == 1 else np.hypot(d[..., 0], d[..., 1])
    i, j = np.nonzero(np.triu(dist <= tol, k=1))
    return set(zip(i.tolist(), j.tolist()))


class TestCloseNodePairs:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
    def test_matches_brute_force(self, seed, dim):
        rng = np.random.default_rng(seed)
        tol = M.NODE_DEDUP_TOL
        # distinct cells of a jittered lattice with steps at the tolerance;
        # a step of 1e-2 stacks many nodes on one x (or one y), as a
        # structured grid does
        side = int(rng.integers(2, 80 if dim == 1 else 12))
        grid = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"),
                        axis=-1).reshape(-1, dim)
        cells = grid[rng.permutation(len(grid))[:int(rng.integers(2, 80))]]
        if rng.random() < 0.2:
            cells = np.vstack([cells, cells[:1]])      # an exact duplicate
        step = rng.choice([0.5 * tol, 0.9 * tol, tol, 1.1 * tol, 3 * tol, 1e-2],
                          size=dim)
        jitter = rng.choice([0.0, 0.05, 0.5]) * tol
        nodes = cells * step + rng.uniform(-jitter, jitter, size=cells.shape)
        want = brute_close_pairs(nodes, tol)
        got = M._close_node_pairs(nodes, tol).tolist()
        assert bool(got) == bool(want)
        assert set(map(tuple, got)) <= want
        assert got == sorted(got)

    def test_structured_grid_with_one_near_node(self):
        m = M.build_structured_triangle_mesh((0, 1), (0, 1), 100, 100)
        assert M._close_node_pairs(m.nodes, M.NODE_DEDUP_TOL).size == 0
        nodes = m.nodes.copy()
        nodes[5000] = nodes[4999] + [0.0, 0.9 * M.NODE_DEDUP_TOL]
        pairs = M._close_node_pairs(nodes, M.NODE_DEDUP_TOL)
        assert pairs.tolist() == [[4999, 5000]]

    @pytest.mark.parametrize("nodes", [
        [(0.0, 0.0), (0.99, 0.3), (0.0, 0.6)],       # two apart in y order
        [(0.0, 0.0), (0.1, -1.5), (0.2, 1.6), (0.3, 0.5)],   # three apart in x
    ])
    def test_only_close_pair_is_not_adjacent(self, nodes):
        nodes = np.array(nodes) * M.NODE_DEDUP_TOL      # one run, in tol units
        assert brute_close_pairs(nodes, M.NODE_DEDUP_TOL) == {(0, len(nodes) - 1)}
        assert M._close_node_pairs(nodes, M.NODE_DEDUP_TOL).tolist() == \
            [[0, len(nodes) - 1]]

    def test_tiny_interval_mesh_validates(self):
        assert M.build_interval_mesh(0, 1e-11, 100).n_elems == 100

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -40])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_duplicate_tolerance_follows_the_extent(self, dim, scale):
        # a mesh scaled by a power of two validates as the unit mesh does,
        # and a node pair 1e-13 of the extent apart is refused at any scale
        if dim == 1:
            M.validate_mesh(M.build_interval_mesh(0, scale, 100))
            near = M.SimplicialMesh(dim=1, nodes=np.array([[0.0], [1e-13], [0.5], [1.0]]),
                                    elements=[[0, 1], [1, 2], [2, 3]])
        else:
            M.validate_mesh(M.build_structured_triangle_mesh([0, scale], [0, scale],
                                                             10, 10))
            near = M.SimplicialMesh(dim=2, nodes=np.array([[0.0, 0.0], [1e-13, 0.0],
                                                           [1.0, 0.0], [0.0, 1.0]]),
                                    elements=[[0, 1, 3], [1, 2, 3]])
        near = M.SimplicialMesh(dim=dim, nodes=near.nodes * scale, elements=near.elements)
        with pytest.raises(InvalidArgumentError, match="duplicate nodes"):
            M.validate_mesh(near)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_node_rejected(self, bad):
        nodes = np.array([[0.0], [0.5], [1.0]])
        nodes[1, 0] = bad
        m = M.SimplicialMesh(dim=1, nodes=nodes, elements=[[0, 1], [1, 2]])
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            M.validate_mesh(m)


class TestElementsMeeting:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]))
    def test_matches_dense_box_test(self, seed, dim):
        # boxes inside, across and outside a graded mesh, some of them
        # degenerate; a box that touches an element's box meets it
        rng = np.random.default_rng(seed)
        m = random_refined_interval(rng) if dim == 1 else graded_square(rng, passes=4)
        lo = rng.uniform(-0.3, 1.2, size=(60, dim))
        hi = lo + rng.choice([0.0, 0.01, 0.3], size=(60, 1)) * rng.uniform(size=(60, dim))
        lo[:5] = m.nodes[m.elements[:5, 0]]        # corners of element boxes
        hi[:5] = lo[:5]
        pts = m.nodes[m.elements]
        meets = np.all((pts.min(axis=1)[None] <= hi[:, None])
                       & (pts.max(axis=1)[None] >= lo[:, None]), axis=2)
        box, elem = np.nonzero(meets)
        assert M.elements_meeting(m, lo, hi).tolist() == \
            (box * m.n_elems + elem).tolist()


class TestLocate:
    def test_segment_midpoint(self):
        m = M.build_interval_mesh(0, 1, 4)
        eids, bary = M.locate_points(m, np.array([[0.375]]))
        assert eids[0] == 1
        np.testing.assert_allclose(bary[0], [0.5, 0.5])

    def test_mesh_node_lowest_incident(self):
        m = M.build_interval_mesh(0, 1, 4)
        eids, bary = M.locate_points(m, np.array([[0.25]]))
        assert eids[0] == 0      # elements 0 and 1 share the node
        assert bary[0].max() == pytest.approx(1.0, abs=1e-12)

    def test_outside_raises(self):
        m = M.build_interval_mesh(0, 1, 4)
        with pytest.raises(PointNotFoundError):
            M.locate_points(m, np.array([[1.5]]))

    @pytest.mark.parametrize("k", [0, 40])
    def test_box_test_scales_with_the_mesh(self, k):
        """One ulp past the end is found at any scale of the mesh."""
        m = M.build_interval_mesh(0, 2.0 ** k, 100)
        eids, bary = M.locate_points(m, [[np.nextafter(2.0 ** k, np.inf)]])
        assert eids[0] == 99
        assert bary[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_far_point_of_a_tiny_mesh_fails_the_box_test(self):
        """50 elements past the end of a mesh of extent 2**-40."""
        m = M.build_interval_mesh(0, 2.0 ** -40, 100)
        with pytest.raises(PointNotFoundError, match="bounding box"):
            M.locate_points(m, [[1.5 * 2.0 ** -40]])

    def test_agrees_with_exhaustive_scan(self, rng):
        m = random_refined_square(rng, nx=3, passes=2)
        pts = rng.uniform(0.0, 1.0, size=(1000, 2))
        eids, bary = M.locate_points(m, pts)
        # vectorized exhaustive oracle: barycentric of every point in every
        # element, lowest containing element id wins
        corners = m.nodes[m.elements]
        v0 = corners[:, 0]
        T = np.stack([corners[:, 1] - v0, corners[:, 2] - v0], axis=2)
        inv = np.linalg.inv(T)
        d = pts[:, None, :] - v0[None, :, :]
        lam12 = np.einsum("eij,pej->pei", inv, d)
        lam0 = 1.0 - lam12.sum(axis=2)
        inside = (lam0 >= -1e-10) & np.all(lam12 >= -1e-10, axis=2)
        oracle_ids = np.argmax(inside, axis=1)
        assert inside[np.arange(1000), oracle_ids].all()
        np.testing.assert_array_equal(eids, oracle_ids)
        for k in range(0, 1000, 7):
            ref_eid, ref_lam = exhaustive_locate(m, pts[k])
            assert ref_eid == eids[k]
            np.testing.assert_allclose(bary[k], ref_lam, atol=1e-9)

    def test_two_triangle_square_brute_force(self, rng):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 1, 1)
        pts = rng.uniform(0, 1, size=(200, 2))
        eids, _ = M.locate_points(m, pts)
        for k in range(200):
            ref_eid, _ = exhaustive_locate(m, pts[k])
            assert eids[k] == ref_eid

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]), st.booleans())
    def test_agrees_with_exhaustive_oracle(self, seed, dim, fallback):
        """Nodes and edge midpoints lie on shared facets, where the lowest
        incident id must win; uniform points fill the interiors. With the
        bins emptied, every point goes through the exhaustive fallback."""
        rng = np.random.default_rng(seed)
        if dim == 1:
            m = random_refined_interval(rng, n_base=int(rng.integers(1, 8)),
                                        passes=3)
        else:
            m = random_refined_square(rng, nx=int(rng.integers(1, 4)))
        corners = m.nodes[m.elements]
        mids = 0.5 * (corners + np.roll(corners, 1, axis=1))
        pts = np.vstack([m.nodes, mids.reshape(-1, dim),
                         rng.uniform(0, 1, size=(60, dim))])
        if fallback:
            loc = M._locator(m)
            loc.bin_ptr = np.zeros_like(loc.bin_ptr)
        eids, bary = M.locate_points(m, pts)
        for k, x in enumerate(pts):
            ref_eid, ref_lam = exhaustive_locate(m, x)
            assert eids[k] == ref_eid
            np.testing.assert_allclose(bary[k], ref_lam, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(3, 4),
           passes=st.integers(4, 6))
    def test_graded_mesh_agrees_with_exhaustive_oracle(self, seed, nx, passes):
        """On a mesh whose levels differ by 4 or more the bins are smaller
        than the coarse elements, so a coarse element spans many bins and a
        point on a coarse-fine facet meets both sides in its bin."""
        rng = np.random.default_rng(seed)
        m = graded_square(rng, nx=nx, passes=passes)
        assert m.level.max() - m.level.min() >= 4
        corners = m.nodes[m.elements]
        diam = np.linalg.norm(corners - np.roll(corners, 1, axis=1), axis=2).max(axis=1)
        assert np.all(M._locator(m).cell < diam.max())
        mids = np.unique(0.5 * (corners + np.roll(corners, 1, axis=1)).reshape(-1, 2),
                         axis=0)
        pts = np.vstack([m.nodes, mids, rng.uniform(0, 1, size=(60, 2))])
        eids, bary = M.locate_points(m, pts)
        for k, x in enumerate(pts):
            ref_eid, ref_lam = exhaustive_locate(m, x)
            assert eids[k] == ref_eid
            np.testing.assert_allclose(bary[k], ref_lam, rtol=0, atol=1e-12)

    def test_bins_bounded_on_a_mesh_with_huge_elements(self, rng):
        """30 bisections towards a corner leave a few elements of diameter
        ~1 among many tiny ones: bins of half the median diameter would
        number ~1e5, so the cell grows until the bound holds."""
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 1, 1)
        for _ in range(30):
            eids, _ = M.locate_points(m, [[1e-6, 2e-6]])
            m = M.refine(m, M.RefinementPlan(refine=frozenset(eids.tolist())))
        loc = M._locator(m)
        corners = m.nodes[m.elements]
        diam = np.linalg.norm(corners - np.roll(corners, 1, axis=1), axis=2).max(axis=1)
        assert np.all(loc.cell >= np.median(diam))       # doubled at least once
        assert (loc.bin_elems.size + loc.bin_ptr.size - 1
                <= M.BIN_ENTRIES_PER_ELEM * m.n_elems)
        pts = np.vstack([m.nodes, corners.mean(axis=1),
                         rng.uniform(0, 1, size=(200, 2))])
        eids, _ = M.locate_points(m, pts)
        assert [exhaustive_locate(m, x)[0] for x in pts] == eids.tolist()

    def test_fallback_reports_points_outside_every_element(self):
        # L-shaped mesh: the upper-right cell's two triangles are removed,
        # so its centre is inside the bounding box but in no element
        full = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        m = M.SimplicialMesh(dim=2, nodes=full.nodes, elements=full.elements[:6])
        with pytest.raises(PointNotFoundError) as err:
            M.locate_points(m, [[0.25, 0.25], [0.75, 0.75]])
        np.testing.assert_array_equal(err.value.points, [[0.75, 0.75]])

    def test_barycentric_sums_to_one(self, rng):
        m = random_refined_interval(rng)
        pts = rng.uniform(0, 1, size=(300, 1))
        _, bary = M.locate_points(m, pts)
        np.testing.assert_allclose(bary.sum(axis=1), 1.0, atol=1e-12)


def equilateral_lattice(n):
    """n x n rhombi of unit-side equilateral triangles: every edge ties."""
    j, i = np.mgrid[0:n + 1, 0:n + 1]
    nodes = np.column_stack([(i + 0.5 * j).ravel(), (np.sqrt(3) / 2 * j).ravel()])
    ids = j * (n + 1) + i
    a, b = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    c, d = ids[1:, :-1].ravel(), ids[1:, 1:].ravel()
    return nodes, np.concatenate([np.column_stack([a, b, c]),
                                  np.column_stack([b, d, c])])


class TestNormalizeElements:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["refined", "jittered", "equilateral"]))
    def test_matches_per_element_loop(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "refined":
            m = random_refined_square(rng, nx=4, passes=3)
            nodes, elements = m.nodes, m.elements
        elif kind == "jittered":
            m = seird_sim.build_jittered_mesh(nx=6, ny=6, seed=seed)
            nodes, elements = m.nodes, m.elements
        else:
            nodes, elements = equilateral_lattice(4)
        # shuffle the elements and the vertices within each element
        elements = rng.permuted(elements[rng.permutation(len(elements))], axis=1)
        got = M._normalize_elements(2, nodes, elements)
        assert np.array_equal(got, loop_normalize_elements_2d(nodes, elements))

    def test_equilateral_tie_goes_to_smallest_pair(self):
        nodes, _ = equilateral_lattice(1)           # nodes 0, 1, 2 form one
        got = M._normalize_elements(2, nodes, np.array([[2, 0, 1], [1, 2, 0]]))
        # counterclockwise, refinement edge (0, 1) last
        assert got.tolist() == [[2, 0, 1], [2, 0, 1]]


class TestMeshIO:
    def test_roundtrip_preserves_geometry(self, tmp_path, rng):
        m = random_refined_square(rng, nx=2, passes=2)
        path = tmp_path / "m.mesh.txt"
        M.save_mesh(m, path)
        back = M.load_mesh(path)
        assert back.n_nodes == m.n_nodes
        assert back.n_elems == m.n_elems
        np.testing.assert_array_equal(back.nodes, m.nodes)
        assert back.total_measure() == pytest.approx(m.total_measure(), rel=1e-14)
        assert {tuple(sorted(e)) for e in back.elements.tolist()} == \
               {tuple(sorted(e)) for e in m.elements.tolist()}

    def test_loaded_mesh_orientation_normalized(self, tmp_path):
        path = tmp_path / "flip.mesh.txt"
        path.write_text("2 3 1\n0 0\n1 0\n0 1\n0 2 1\n")
        back = M.load_mesh(path)
        assert back.element_measures()[0] > 0

    def test_saved_text_is_pinned(self, tmp_path):
        one = M.build_interval_mesh(0, 1, 3)
        two = M.build_structured_triangle_mesh([0, 1], [0, 0.5], 3, 1)
        M.save_mesh(one, tmp_path / "one.mesh.txt")
        M.save_mesh(two, tmp_path / "two.mesh.txt")
        assert (tmp_path / "one.mesh.txt").read_text() == (
            "1 4 3\n0\n0.33333333333333331\n0.66666666666666663\n1\n"
            "0 1\n1 2\n2 3\n")
        assert (tmp_path / "two.mesh.txt").read_text() == (
            "2 8 6\n0 0\n0.33333333333333331 0\n0.66666666666666663 0\n1 0\n"
            "0 0.5\n0.33333333333333331 0.5\n0.66666666666666663 0.5\n1 0.5\n"
            "1 5 0\n4 0 5\n2 6 1\n5 1 6\n3 7 2\n6 2 7\n")

    @pytest.mark.parametrize("text", [
        "2 4 1\n0 0\n1 0\n0 1\n1 1\n0 1 2\n",         # node 3 in no element
        "1 2 0\n0\n1\n",                               # no element
        "1 0 0\n",
    ], ids=["orphan_node", "no_elements", "empty"])
    def test_mesh_not_made_of_its_elements_rejected(self, tmp_path, recwarn,
                                                    text):
        path = tmp_path / "bad.mesh.txt"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError,
                           match="malformed mesh file .*bad.mesh.txt"):
            M.load_mesh(path)
        assert not recwarn.list

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.mesh.txt"
        path.write_text("1 3 2\n0\n0.5\n1\n0 1\n")      # one element missing
        with pytest.raises(InvalidArgumentError):
            M.load_mesh(path)

    def test_duplicate_nodes_rejected(self, tmp_path):
        path = tmp_path / "dup.mesh.txt"
        path.write_text("1 3 2\n0\n0.5\n0.5\n0 1\n1 2\n")
        with pytest.raises(InvalidArgumentError):
            M.load_mesh(path)

    @pytest.mark.parametrize("text", [
        "1 3 2\n0\n0.5\n1\n0 1\n1 3\n",              # index == n_nodes
        "2 3 1\n0 0\n1 0\n0 1\n0 1 7\n",
        "2 3 1\n0 0\n1 0\n0 nan\n0 1 2\n",
        "1 99999999999999999999 2\n0\n0.5\n1\n0 1\n1 2\n",
        "3 4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3\n",
    ])
    def test_bad_table_rejected_naming_file(self, tmp_path, text):
        path = tmp_path / "bad.mesh.txt"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match="bad.mesh.txt"):
            M.load_mesh(path)
