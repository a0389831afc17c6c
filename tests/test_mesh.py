import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amrdmd import fem, l2projection as L2, mesh as M, seird_sim
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

    def test_structured_without_cells(self):
        with pytest.raises(InvalidArgumentError, match="nx and ny must be >= 1"):
            M.build_structured_triangle_mesh([0, 1], [0, 1], 0, 2)


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
        created = [i for i, (_, p) in enumerate(element_keys(r)) if p > 1]
        back = M.refine(r, M.RefinementPlan(coarsen=frozenset(created)))
        orig = {tuple(sorted(el)) for el in m.elements[np.argsort(m.elements[:, 0])]}
        rest = {tuple(sorted(el)) for el in back.elements}
        orig = {tuple(sorted(np.sort(m.nodes[list(t)].ravel()))) for t in orig}
        rest = {tuple(sorted(np.sort(back.nodes[list(t)].ravel()))) for t in rest}
        assert orig == rest
        assert back.n_elems == m.n_elems

    def test_partial_sibling_group_left_alone(self):
        m = M.build_interval_mesh(0, 1, 2)
        r = M.refine(m, M.RefinementPlan(refine=frozenset({0})))
        children = [i for i, (_, p) in enumerate(element_keys(r)) if p > 1]
        assert M.refine(r, M.RefinementPlan(coarsen=frozenset(children[:1]))) is r

    def test_max_level_caps_refine_flags(self):
        m = M.build_interval_mesh(0, 1, 2)
        r = M.refine(m, M.RefinementPlan(refine=frozenset({0})))
        assert r.level.tolist() == [0, 1, 1]
        assert M.refine(r, M.RefinementPlan(refine=frozenset({1, 2}), max_level=1)) is r
        capped = M.refine(r, M.RefinementPlan(refine=frozenset({0, 1, 2}), max_level=1))
        want = M.refine(r, M.RefinementPlan(refine=frozenset({0})))
        assert capped.nodes.tolist() == want.nodes.tolist()
        assert capped.elements.tolist() == want.elements.tolist()
        assert capped.lineage.tolist() == want.lineage.tolist()

    def test_coarsen_flag_on_a_root_left_alone(self):
        m = M.build_interval_mesh(0, 1, 2)
        assert M.refine(m, M.RefinementPlan(coarsen=frozenset({0, 1}))) is m
        r = M.refine(m, M.RefinementPlan(refine=frozenset({0})))
        assert M.refine(r, M.RefinementPlan(coarsen=frozenset({0}))) is r

    def test_lineage_is_a_read_only_int64_array(self):
        m = M.build_interval_mesh(0, 1, 2)
        assert m.lineage is None
        r = M.uniform_refine(m, 1)
        assert r.lineage.dtype == np.int64 and r.lineage.shape == (4, 2)
        assert r.lineage.tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]
        with pytest.raises(ValueError):
            r.lineage[0, 1] = 1

    @pytest.mark.parametrize("path, level", [
        (2 ** 53 - 1, 52), (2 ** 53, 53), (2 ** 53 + 1, 53),
        (2 ** 60 - 1, 59), (2 ** 62, 62), (2 ** 63 - 1, 62)])
    def test_level_is_exact_for_every_int64_path(self, path, level):
        m = M.SimplicialMesh(dim=1, nodes=[[0.0], [1.0]], elements=[[0, 1]],
                             lineage=[[0, path]])
        assert m.level.tolist() == [level]

    @pytest.mark.parametrize("lineage, match", [
        ([[0, 0]], "path 0, below 1"),
        ([[0, -3]], "path -3, below 1"),
        ([[0, 1], [0, 2]], "length mismatch")])
    def test_bad_lineage_of_one_element_is_refused(self, lineage, match):
        with pytest.raises(InvalidArgumentError, match=match):
            M.SimplicialMesh(dim=1, nodes=[[0.0], [1.0]], elements=[[0, 1]],
                             lineage=lineage)

    def test_shared_lineage_key_is_refused(self):
        nodes, elements = [[0.0], [0.5], [1.0]], [[0, 1], [1, 2]]
        M.SimplicialMesh(dim=1, nodes=nodes, elements=elements, lineage=[[0, 2], [0, 3]])
        with pytest.raises(InvalidArgumentError,
                           match=re.escape("share the lineage key (root, path) [0, 2]")):
            M.SimplicialMesh(dim=1, nodes=nodes, elements=elements,
                             lineage=[[0, 2], [0, 2]])

    def test_refined_meshes_keep_valid_lineage(self):
        for m in (M.uniform_refine(M.build_interval_mesh(0, 1, 3), 3),
                  M.refine(M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2),
                           M.RefinementPlan(refine=frozenset({0, 3, 5})))):
            assert m.lineage[:, 1].min() >= 1

    def test_path_that_would_overflow_is_refused(self):
        m = M.SimplicialMesh(dim=1, nodes=[[0.0], [1.0]], elements=[[0, 1]],
                             lineage=[[0, 2 ** 62]])
        with pytest.raises(InvalidPlanError):
            M.refine(m, M.RefinementPlan(refine=frozenset({0})))

    def test_deepest_path_that_fits_refines(self):
        m = M.SimplicialMesh(dim=1, nodes=[[0.0], [1.0]], elements=[[0, 1]],
                             lineage=[[0, 2 ** 62 - 1]])
        r = M.refine(m, M.RefinementPlan(refine=frozenset({0})))
        assert r.lineage.tolist() == [[0, 2 ** 63 - 2], [0, 2 ** 63 - 1]]
        assert r.level.tolist() == [62, 62]

    def test_refining_one_corner_stops_before_paths_wrap(self):
        """The 94th bisection of the element at a corner would give a
        path past 2^63 - 1; every path before it is positive."""
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 1, 1)
        for _ in range(93):
            e = int(M.locate_points(m, [[1e-300, 1e-300]])[0][0])
            m = M.refine(m, M.RefinementPlan(refine=frozenset({e})))
        assert m.lineage[:, 1].min() > 0 and m.level.max() == 62
        e = int(M.locate_points(m, [[1e-300, 1e-300]])[0][0])
        with pytest.raises(InvalidPlanError):
            M.refine(m, M.RefinementPlan(refine=frozenset({e})))

    def test_closure_refuses_an_overflowing_neighbour(self):
        """The closure bisects element 1 across the shared diagonal, and
        its path is too deep to bisect."""
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 1, 1)
        deep = M.SimplicialMesh(dim=2, nodes=m.nodes, elements=m.elements,
                                lineage=[[0, 1], [1, 2 ** 62]])
        with pytest.raises(InvalidPlanError):
            M.refine(deep, M.RefinementPlan(refine=frozenset({0})))

    def test_plan_id_out_of_range_rejected(self):
        m = M.build_interval_mesh(0, 1, 4)
        with pytest.raises(InvalidPlanError, match="plan references element 4 of 4"):
            M.refine(m, M.RefinementPlan(refine=frozenset({4})))

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
        keys = element_keys(m)
        parent = (keys[0][0], keys[0][1] >> 1)
        group = [e for e, (root, path) in enumerate(keys)
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

        before = {tuple(m.nodes[el, 0]): key for el, key in zip(m.elements, keys)}
        for el, key in zip(r.elements, element_keys(r)):
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


def honoured_plan(m, plan):
    """The flags of plan that refine can honour: the refine flags below
    max_level and the coarsen flags whose sibling is flagged too."""
    refine = {e for e in plan.refine
              if plan.max_level is None or m.level[e] < plan.max_level}
    coarsen = {e for g in sibling_groups(m).values()
               if len(g) == 2 and plan.coarsen.issuperset(g) for e in g}
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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
    def test_flags_it_cannot_honour_are_left_alone(self, seed, dim):
        """Random flags on a mesh with history refine as the plain-loop
        reference refines their honoured share, and the result is the
        mesh itself exactly when nothing merges and nothing bisects."""
        rng = np.random.default_rng(seed)
        m = start_mesh(rng, dim)
        for _ in range(int(rng.integers(0, 4))):
            m = M.refine(m, random_plan(rng, m))
        draw = rng.uniform(size=m.n_elems)
        share_r, share_c = (rng.choice([0.0, rng.uniform(0, 0.5)]) for _ in "rc")
        plan = M.RefinementPlan(refine=frozenset(np.flatnonzero(draw < share_r).tolist()),
                                coarsen=frozenset(np.flatnonzero(draw >= 1 - share_c).tolist()),
                                max_level=rng.choice([None, 0, 1, 2, 3]))
        honoured = honoured_plan(m, plan)
        nodes, elements, keys = loop_refine(m, honoured)
        r = M.refine(m, plan)
        assert (r is m) == (keys == element_keys(m))
        assert (element_rows(r.nodes, r.elements, element_keys(r))
                == element_rows(nodes, elements, keys))
        if dim == 1:
            assert r.nodes.tolist() == nodes.tolist()
            assert r.elements.tolist() == elements.tolist()
            assert element_keys(r) == keys
        same = M.refine(m, honoured)     # the left-alone flags change no numbering
        assert r.nodes.tolist() == same.nodes.tolist()
        assert r.elements.tolist() == same.elements.tolist()
        assert element_keys(r) == element_keys(same)

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
        with pytest.raises(InvalidArgumentError, match="shared by >2"):
            M.SimplicialMesh(dim=2, nodes=nodes, elements=elements)


def chain_rule_holds(x, elements):
    """Every element joins two coordinate neighbours, left to right, and no
    two elements join the same pair: the oracle of the 1-d rule."""
    rank = {int(node): k for k, node in enumerate(np.argsort(x))}
    pairs = [(rank[a], rank[b]) for a, b in elements.tolist()]
    return all(q == p + 1 for p, q in pairs) and len(set(pairs)) == len(pairs)


def piecewise_uniform(mesh, n_per_piece):
    """A 1-d mesh of n_per_piece uniform elements on each piece of mesh, so
    it covers exactly what mesh covers, gaps left out."""
    order, h = M.band_layout(mesh)
    x = mesh.nodes[order, 0]
    cut = np.flatnonzero(h == 0)
    parts = [M.build_interval_mesh(a, b, n_per_piece)
             for a, b in zip(x[np.r_[0, cut + 1]], x[np.r_[cut, x.size - 1]])]
    return M.SimplicialMesh(
        dim=1, nodes=np.concatenate([p.nodes for p in parts]),
        elements=np.concatenate([p.elements + i * (n_per_piece + 1)
                                 for i, p in enumerate(parts)]))


class TestChainRule:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 12),
           defect=st.sampled_from([None, "gap", "overlap", "duplicate", "misoriented"]))
    @example(seed=0, n=3, defect="duplicate")
    @example(seed=0, n=3, defect="overlap")
    def test_made_exactly_when_the_chain_rule_holds(self, seed, n, defect):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.1, 1.0, n + 1))
        elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        k = int(rng.integers(1, n - 1))          # an interior element
        if defect == "gap":
            elements = np.delete(elements, k, axis=0)
        elif defect == "overlap":                # it also covers element k + 1
            elements[k, 1] = k + 2
        elif defect == "duplicate":
            elements = np.vstack([elements, elements[k]])
        elif defect == "misoriented":
            elements[k] = elements[k, ::-1]
        # node ids and element rows in random order
        perm = rng.permutation(n + 1)
        new_id = np.empty_like(perm)
        new_id[perm] = np.arange(n + 1)
        nodes, elements = x[perm, None], new_id[elements][rng.permutation(len(elements))]
        assert chain_rule_holds(x[perm], elements) == (defect in (None, "gap"))
        if defect not in (None, "gap"):
            with pytest.raises(InvalidArgumentError):
                M.SimplicialMesh(dim=1, nodes=nodes, elements=elements)
            return
        mesh = M.SimplicialMesh(dim=1, nodes=nodes, elements=elements)
        order, h = M.band_layout(mesh)
        assert np.array_equal(mesh.nodes[order, 0], x)
        assert (h == 0).sum() == (defect == "gap")
        ones = np.ones(mesh.n_nodes)
        assert fem.assemble_mass(mesh).dot(ones).sum() == pytest.approx(
            mesh.total_measure(), rel=1e-12)
        # mean conservation (criterion 7) onto a uniform mesh of each piece
        target = piecewise_uniform(mesh, 7)
        u = rng.uniform(0.5, 1.5, mesh.n_nodes)
        proj = L2.project(L2.build_projection(mesh, target), u)
        assert fem.integrate(target, proj) == pytest.approx(fem.integrate(mesh, u),
                                                             rel=1e-12)

    def test_element_given_twice_is_refused(self):
        # facets and measures pass it: its total measure would be 2
        with pytest.raises(InvalidArgumentError,
                           match="elements 0 and 1 join the same nodes"):
            M.SimplicialMesh(dim=1, nodes=[0.0, 1.0], elements=[[0, 1], [0, 1]])



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
            M.build_interval_mesh(0, scale, 100)
            nodes, elements = [[0.0], [1e-13], [0.5], [1.0]], [[0, 1], [1, 2], [2, 3]]
        else:
            M.build_structured_triangle_mesh([0, scale], [0, scale], 10, 10)
            nodes = [[0.0, 0.0], [1e-13, 0.0], [1.0, 0.0], [0.0, 1.0]]
            elements = [[0, 1, 3], [1, 2, 3]]
        with pytest.raises(InvalidArgumentError, match="duplicate nodes"):
            M.SimplicialMesh(dim=dim, nodes=np.array(nodes) * scale, elements=elements)

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unsupported dimension 3"):
            M.SimplicialMesh(dim=3, nodes=np.eye(4, 3), elements=[[0, 1, 2, 3]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_node_rejected(self, bad):
        nodes = np.array([[0.0], [0.5], [1.0]])
        nodes[1, 0] = bad
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            M.SimplicialMesh(dim=1, nodes=nodes, elements=[[0, 1], [1, 2]])


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

    def test_far_point_of_a_tiny_mesh_is_in_no_element(self):
        """50 elements past the end of a mesh of extent 2**-40."""
        m = M.build_interval_mesh(0, 2.0 ** -40, 100)
        with pytest.raises(PointNotFoundError, match="not inside any element"):
            M.locate_points(m, [[1.5 * 2.0 ** -40]])

    def test_bin_boundary_point_goes_to_the_lowest_holder(self):
        """Element 0 ends 1e-13 short of the bin boundary at 0.5 and holds
        0.5 + 1e-13 within BARY_TOL, so it wins over element 1."""
        m = M.SimplicialMesh(dim=1, nodes=np.array([[0.0], [0.5 - 1e-13], [1.0]]),
                             elements=np.array([[0, 1], [1, 2]]))
        x = np.array([0.5 + 1e-13])
        eids, bary = M.locate_points(m, [x])
        ref_eid, ref_lam = exhaustive_locate(m, x)
        assert eids[0] == ref_eid == 0
        np.testing.assert_allclose(bary[0], ref_lam, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_or_far_point_is_in_no_element(self, dim, value):
        # with no numpy warning on the way, which the suite turns into an error
        m = (M.build_interval_mesh(0, 1, 4) if dim == 1
             else M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2))
        bad = np.full(dim, 0.5)
        bad[-1] = value
        with pytest.raises(PointNotFoundError,
                           match=r"^1 points not inside any element") as err:
            M.locate_points(m, [np.full(dim, 0.25), bad])
        np.testing.assert_array_equal(err.value.points, [bad])

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
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
    def test_agrees_with_exhaustive_oracle(self, seed, dim):
        """Nodes and edge midpoints lie on shared facets, where the lowest
        incident id must win; uniform points fill the interiors."""
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

    def test_reports_points_outside_every_element(self):
        # L-shaped mesh: the upper-right cell's two triangles are removed,
        # so its centre is inside the bounding box but in no element
        full = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        m = M.SimplicialMesh(dim=2, nodes=full.nodes, elements=full.elements[:6])
        with pytest.raises(PointNotFoundError) as err:
            M.locate_points(m, [[0.25, 0.25], [0.75, 0.75]])
        np.testing.assert_array_equal(err.value.points, [[0.75, 0.75]])

    def test_a_dropped_mesh_is_freed_without_the_collector(self):
        # the locator and band layout kept are those of the mesh used last,
        # and no mesh refers to them, so no reference cycle holds a mesh
        m = M.build_interval_mesh(0, 1, 8)
        ref = weakref.ref(m)
        gc.disable()
        try:
            for mesh in (m, M.build_interval_mesh(0, 1, 4)):
                M.locate_points(mesh, [[0.3]])
                M.band_layout(mesh)
            del m
            assert ref() is None
        finally:
            gc.enable()

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
