import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import mesh as M
from amrdmd.errors import InvalidArgumentError, InvalidPlanError, PointNotFoundError

from conftest import exhaustive_locate, random_refined_interval, random_refined_square


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
        created = [i for i, lin in enumerate(r.lineage) if lin is not None]
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
        children = [i for i, lin in enumerate(r.lineage) if lin is not None]
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
        candidates = [i for i in range(m.n_elems) if m.lineage[i] is not None]
        groups = {}
        for e in candidates:
            groups.setdefault(m.lineage[e][0], []).append(e)
        full = [e for mem in groups.values() if len(mem) == 2 for e in mem]
        r = M.refine(m, M.RefinementPlan(coarsen=frozenset(full)))
        assert_conforming(r)
        assert r.total_measure() == pytest.approx(m.total_measure(), rel=1e-12)


class TestLocate:
    def test_segment_midpoint(self):
        m = M.build_interval_mesh(0, 1, 4)
        eid, bary = M.locate_point(m, [0.375])
        assert eid == 1
        np.testing.assert_allclose(bary, [0.5, 0.5])

    def test_mesh_node_lowest_incident(self):
        m = M.build_interval_mesh(0, 1, 4)
        eid, bary = M.locate_point(m, [0.25])
        assert eid == 0          # elements 0 and 1 share the node
        assert bary.max() == pytest.approx(1.0, abs=1e-12)

    def test_outside_raises(self):
        m = M.build_interval_mesh(0, 1, 4)
        with pytest.raises(PointNotFoundError):
            M.locate_point(m, [1.5])

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

    def test_barycentric_sums_to_one(self, rng):
        m = random_refined_interval(rng)
        pts = rng.uniform(0, 1, size=(300, 1))
        _, bary = M.locate_points(m, pts)
        np.testing.assert_allclose(bary.sum(axis=1), 1.0, atol=1e-12)


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
