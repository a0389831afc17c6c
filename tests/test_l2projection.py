import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import fem, l2projection as L2, mesh as M, seird_sim
from amrdmd.errors import CoverageError, InvalidArgumentError

from conftest import (composite_integral_1d, coo_coupling_2d, coupling_matrix,
                      graded_square, partition_defect, piecewise_linear_1d,
                      random_refined_interval, random_refined_square,
                      rank_check, spd_matrix)


def basis_supports_1d(mesh):
    """Per node, the interval on which its hat function is nonzero."""
    order = np.argsort(mesh.nodes[:, 0])
    xs = mesh.nodes[order, 0]
    lo = np.empty(mesh.n_nodes)
    hi = np.empty(mesh.n_nodes)
    lo[order] = np.concatenate([xs[:1], xs[:-1]])
    hi[order] = np.concatenate([xs[1:], xs[-1:]])
    return lo, hi


def hat(mesh, i):
    e = np.zeros(mesh.n_nodes)
    e[i] = 1.0
    return piecewise_linear_1d(mesh, e)


def cross_mesh_l2_error(donor, donor_values, target, target_values, n=20_000):
    """L2 distance between 1-d fields on different meshes, via a composite
    rule that is independent of the projection quadrature."""
    fd = piecewise_linear_1d(donor, donor_values)
    ft = piecewise_linear_1d(target, target_values)
    a = donor.nodes[:, 0].min()
    b = donor.nodes[:, 0].max()
    val = composite_integral_1d(lambda x: (fd(x) - ft(x)) ** 2, a, b, n)
    return np.sqrt(max(val, 0.0))


class TestBuildProjection:
    def test_same_mesh_P_equals_M(self):
        m = M.build_interval_mesh(0, 1, 9)
        op = L2.build_projection(m, m)
        diff = abs(coupling_matrix(op) - spd_matrix(fem.assemble_mass(m)))
        assert diff.max() <= 1e-12

    def test_same_mesh_2d(self):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 3, 3)
        op = L2.build_projection(m, m)
        diff = abs(coupling_matrix(op) - spd_matrix(fem.assemble_mass(m)))
        assert diff.max() <= 1e-12

    def test_nested_pair_full_rank(self):
        donor = M.build_interval_mesh(0, 1, 1)
        target = M.uniform_refine(donor, 1)
        op = L2.build_projection(donor, target)
        assert rank_check(op) == 2

    def test_partition_of_unity(self):
        donor = M.build_interval_mesh(0, 1, 3)
        target = M.build_interval_mesh(0, 1, 4)
        op = L2.build_projection(donor, target)
        assert partition_defect(op) <= 1e-14

    def test_entries_match_composite_quadrature_oracle(self):
        donor = M.build_interval_mesh(0, 1, 3)
        target = M.build_interval_mesh(0, 1, 4)
        op = L2.build_projection(donor, target)
        P = coupling_matrix(op).toarray()
        for i in range(target.n_nodes):      # target basis i
            ei = np.zeros(target.n_nodes)
            ei[i] = 1.0
            Ni = piecewise_linear_1d(target, ei)
            for j in range(donor.n_nodes):   # donor basis j
                ej = np.zeros(donor.n_nodes)
                ej[j] = 1.0
                Nj = piecewise_linear_1d(donor, ej)
                ref = composite_integral_1d(lambda x: Ni(x) * Nj(x), 0, 1)
                assert P[i, j] == pytest.approx(ref, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_donor=st.integers(1, 6),
           n_target=st.integers(1, 6),
           span=st.sampled_from([(0.0, 1.0), (0.25, 0.75), (0.0, 0.5),
                                 (0.2, 0.9)]))
    def test_exact_coupling_on_random_interval_pairs(self, seed, n_donor,
                                                     n_target, span):
        # non-nested pairs, shared nodes (0, 1 and common dyadic points) and
        # targets on a strict sub-interval of the donor
        rng = np.random.default_rng(seed)
        donor = random_refined_interval(rng, n_base=n_donor)
        target = random_refined_interval(rng, n_base=n_target, lo=span[0],
                                         hi=span[1])
        op = L2.build_projection(donor, target)
        P = coupling_matrix(op).toarray()
        t_lo, t_hi = basis_supports_1d(target)
        d_lo, d_hi = basis_supports_1d(donor)
        for i in range(target.n_nodes):
            Ni = hat(target, i)
            for j in range(donor.n_nodes):
                a, b = max(t_lo[i], d_lo[j]), min(t_hi[i], d_hi[j])
                if a >= b:
                    assert P[i, j] == 0.0
                    continue
                Nj = hat(donor, j)
                n = max(1000, int((b - a) / 1e-5))
                ref = composite_integral_1d(lambda x: Ni(x) * Nj(x), a, b, n)
                assert P[i, j] == pytest.approx(ref, abs=1e-8)
        assert partition_defect(op) <= 1e-14

        u = rng.normal(size=donor.n_nodes)
        proj = L2.project(op, u)
        # the donor field is linear between the breakpoints, so the
        # trapezoid rule over them is its exact integral on the span
        xd = donor.nodes[:, 0]
        xs = np.unique(np.concatenate(
            [span, xd[(xd > span[0]) & (xd < span[1])]]))
        fx = piecewise_linear_1d(donor, u)(xs)
        mean = float(np.sum(0.5 * (fx[1:] + fx[:-1]) * np.diff(xs)))
        assert fem.integrate(target, proj) == pytest.approx(
            mean, abs=1e-10 + 1e-8 * abs(mean))

    @pytest.mark.parametrize("case", ["demo", "graded"])
    def test_2d_P_matches_per_point_coo_assembly(self, case, rng):
        """P summed into element-pair blocks chunk by chunk equals the COO
        sum over the clipped pieces, quadrature point by point, up to
        rounding; the demo target spans 10 chunks."""
        if case == "demo":
            donor, _ = seird_sim.build_demo_donor()
            target = seird_sim.build_jittered_mesh()
        else:
            donor = graded_square(rng, nx=3, passes=5)
            target = random_refined_square(rng, nx=4)
        P = coupling_matrix(L2.build_projection(donor, target))
        ref = coo_coupling_2d(donor, target)
        assert P.shape == ref.shape
        assert abs(P - ref).max() <= 1e-14 * abs(ref).max()

    def test_dimension_mismatch(self):
        d = M.build_interval_mesh(0, 1, 2)
        t = M.build_structured_triangle_mesh([0, 1], [0, 1], 1, 1)
        with pytest.raises(InvalidArgumentError):
            L2.build_projection(d, t)

    def test_coverage_error_when_target_larger(self):
        donor = M.build_interval_mesh(0, 1, 4)
        target = M.build_interval_mesh(0, 2, 4)
        with pytest.raises(CoverageError) as err:
            L2.build_projection(donor, target)
        offending = np.asarray(err.value.points)
        assert offending.size > 0
        assert np.all(offending > 1.0)   # only points beyond the donor domain

    def test_coverage_error_when_target_larger_2d(self):
        donor = M.build_structured_triangle_mesh([0, 1], [0, 1], 4, 4)
        target = M.build_structured_triangle_mesh([0, 2], [0, 2], 4, 4)
        with pytest.raises(CoverageError) as err:
            L2.build_projection(donor, target)
        offending = np.asarray(err.value.points)
        assert offending.size > 0
        assert np.all(offending.max(axis=1) > 1.0)   # each outside [0, 1]^2

    @pytest.mark.parametrize("dim", [1, 2])
    def test_coverage_error_when_target_leaves_donor_partly(self, dim):
        # every target centroid lies in the donor, but the last elements
        # along each axis reach past it
        if dim == 1:
            donor = M.build_interval_mesh(0, 1, 4)
            target = M.build_interval_mesh(0, 1.01, 4)
        else:
            donor = M.build_structured_triangle_mesh([0, 1], [0, 1], 4, 4)
            target = M.build_structured_triangle_mesh([0, 1.01], [0, 1.01], 4, 4)
        with pytest.raises(CoverageError) as err:
            L2.build_projection(donor, target)
        offending = np.asarray(err.value.points)
        assert np.any(offending.max(axis=1) > 1.0)

    @pytest.mark.parametrize("nested", [False, True])
    def test_elements_inside_one_donor_element_locate_one_point(
            self, rng, monkeypatch, nested):
        # every element of the donor itself or of a refinement of it lies in
        # one donor element: only its probe point is located
        donor = graded_square(rng, nx=3, passes=3)
        target = M.uniform_refine(donor, 1) if nested else donor
        located = []
        plain = L2.locate_points

        def counted(mesh, pts):
            located.append(len(pts))
            return plain(mesh, pts)

        monkeypatch.setattr(L2, "locate_points", counted)
        op = L2.build_projection(donor, target)
        assert sum(located) == target.n_elems
        if not nested:
            P = coupling_matrix(op).toarray()
            mass = spd_matrix(op.M).toarray()
            assert abs(P - mass).max() <= 1e-15 * abs(mass).max()


def theory_pair(seed, dim):
    """A donor, a non-nested target and a nested finer target on one
    domain: random refined intervals in 1-d, graded squares in 2-d."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        donor, other = random_refined_interval(rng), random_refined_interval(rng)
    else:
        donor = graded_square(rng, nx=2, passes=4)
        other = graded_square(rng, nx=3, passes=3)
    flags = np.flatnonzero(rng.random(donor.n_elems) < 0.5).tolist()
    nested = M.refine(donor, M.RefinementPlan(refine=frozenset(flags)))
    return rng, donor, other, nested


class TestBlockCouplingTheory:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]))
    def test_partition_of_unity(self, seed, dim):
        _, donor, other, nested = theory_pair(seed, dim)
        for target in (other, nested, donor):
            op = L2.build_projection(donor, target)
            scale = np.max(op.M.dot(np.ones(target.n_nodes)))
            assert partition_defect(op) <= 1e-13 * scale

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]))
    def test_nested_target_reproduces_donor_field(self, seed, dim):
        rng, donor, _, nested = theory_pair(seed, dim)
        u = rng.normal(size=donor.n_nodes)
        proj = L2.project(L2.build_projection(donor, nested), u)
        np.testing.assert_allclose(proj, fem.evaluate_many(donor, u, nested.nodes),
                                   rtol=0, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_2d_mean_conservation_non_nested(self, seed):
        # P is exact on the common refinement, so the projection keeps the
        # integral of a positive field up to the solve's rounding
        rng, donor, other, _ = theory_pair(seed, 2)
        u = rng.uniform(0.5, 1.5, size=donor.n_nodes)
        proj = L2.project(L2.build_projection(donor, other), u)
        mean = fem.integrate(donor, u)
        assert abs(fem.integrate(other, proj) - mean) <= 1e-12 * mean

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_2d_blocks_match_per_point_coo_assembly(self, seed):
        _, donor, other, nested = theory_pair(seed, 2)
        for target in (other, nested):
            P = coupling_matrix(L2.build_projection(donor, target))
            ref = coo_coupling_2d(donor, target)
            assert abs(P - ref).max() <= 1e-14 * abs(ref).max()


class TestProject:
    def test_constant_preserved(self):
        donor = M.build_interval_mesh(0, 1, 5)
        target = M.build_interval_mesh(0, 1, 8)
        op = L2.build_projection(donor, target)
        proj = L2.project(op, np.full(donor.n_nodes, 3.25))
        np.testing.assert_allclose(proj, 3.25, atol=1e-10)

    def test_nested_projection_reproduces_donor(self, rng):
        donor = M.build_interval_mesh(0, 1, 4)
        target = M.uniform_refine(donor, 2)
        op = L2.build_projection(donor, target)
        u = rng.normal(size=donor.n_nodes)
        proj = L2.project(op, u)
        expect = fem.evaluate_many(donor, u, target.nodes)
        np.testing.assert_allclose(proj, expect, atol=1e-10)

    def test_mean_conservation_non_nested(self, rng):
        donor = M.build_interval_mesh(0, 1, 7)
        target = M.build_interval_mesh(0, 1, 11)
        op = L2.build_projection(donor, target)
        for _ in range(5):
            u = rng.normal(size=donor.n_nodes)
            proj = L2.project(op, u)
            mean = fem.integrate(donor, u)
            assert fem.integrate(target, proj) == pytest.approx(
                mean, abs=1e-10 + 1e-8 * abs(mean))

    def test_best_approximation(self, rng):
        donor = M.build_interval_mesh(0, 1, 6)
        target = M.build_interval_mesh(0, 1, 9)
        op = L2.build_projection(donor, target)
        u = rng.normal(size=donor.n_nodes)
        proj = L2.project(op, u)
        err_proj = cross_mesh_l2_error(donor, u, target, proj)
        for _ in range(10):
            w = proj + 0.1 * rng.normal(size=target.n_nodes)
            err_w = cross_mesh_l2_error(donor, u, target, w)
            assert err_proj <= err_w + 1e-8

    def test_idempotent_on_same_mesh(self, rng):
        m = M.build_interval_mesh(0, 1, 6)
        op = L2.build_projection(m, m)
        once = L2.project(op, rng.normal(size=m.n_nodes))
        twice = L2.project(op, once)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_wrong_mesh_rejected(self, rng):
        donor = M.build_interval_mesh(0, 1, 4)
        target = M.build_interval_mesh(0, 1, 6)
        op = L2.build_projection(donor, target)
        stray = np.zeros(target.n_nodes)        # a target field, not a donor one
        with pytest.raises(InvalidArgumentError):
            L2.project(op, stray)

    def test_projection_is_linear(self, rng):
        donor = M.build_interval_mesh(0, 1, 5)
        target = M.build_interval_mesh(0, 1, 7)
        op = L2.build_projection(donor, target)
        u = rng.normal(size=donor.n_nodes)
        v = rng.normal(size=donor.n_nodes)
        a, b = 2.5, -0.75
        combined = L2.project(op, a * u + b * v)
        parts = a * L2.project(op, u) + b * L2.project(op, v)
        np.testing.assert_allclose(combined, parts, atol=1e-10)

    def test_galerkin_orthogonality_residual(self, rng):
        donor = M.build_interval_mesh(0, 1, 6)
        target = M.build_interval_mesh(0, 1, 10)
        op = L2.build_projection(donor, target)
        u = rng.normal(size=donor.n_nodes)
        load = op.P.dot(u)
        residual = op.M.dot(L2.project(op, u)) - load
        assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(load)


class TestProjectSnapshots:
    def test_one_build_per_run_of_one_mesh_object_and_same_bits(self, rng, monkeypatch):
        """A generator holding one operator: a build per run of consecutive
        snapshots on one mesh object, the last operator freed before the next
        is built, and each snapshot's bits those of its own operator."""
        a = M.build_interval_mesh(0, 1, 5)
        b = M.build_interval_mesh(0, 1, 9)
        target = M.build_interval_mesh(0, 1, 7)
        donors = [a, a, b, a, b]
        snapshots = [(k, mesh, {name: rng.normal(size=mesh.n_nodes)
                                for name in ("u", "v")})
                     for k, mesh in enumerate(donors)]
        built = []
        plain = L2.build_projection

        def counted(donor, tgt):
            assert all(op() is None for _, op in built), "two operators alive"
            op = plain(donor, tgt)
            built.append((donor, weakref.ref(op)))
            return op

        monkeypatch.setattr(L2, "build_projection", counted)
        stream = L2.project_snapshots(iter(snapshots), target)
        for (t, mesh, fields), (pt, pmesh, pfields) in zip(snapshots, stream,
                                                          strict=True):
            # only the operator of this snapshot's donor is alive
            assert [op() is not None for _, op in built].count(True) == 1
            assert built[-1][0] is mesh and built[-1][1]() is not None
            assert (pt, pmesh) == (t, target)
            assert list(pfields) == list(fields)
            op = plain(mesh, target)
            alone = {name: L2.project(op, vals) for name, vals in fields.items()}
            for name in fields:
                assert pfields[name].tobytes() == alone[name].tobytes()
        assert [id(donor) for donor, _ in built] == [id(a), id(b), id(a), id(b)]
        assert all(op() is None for _, op in built)


class TestRankCheck:
    def test_same_mesh_full_rank(self):
        m = M.build_interval_mesh(0, 1, 6)
        op = L2.build_projection(m, m)
        assert rank_check(op) == m.n_nodes

    def test_non_nested_rank_vs_svd_oracle(self, rng):
        donor = M.build_interval_mesh(0, 1, 5)
        target = M.build_interval_mesh(0, 1, 8)
        op = L2.build_projection(donor, target)
        qr_rank = rank_check(op)
        s = np.linalg.svd(coupling_matrix(op).toarray(), compute_uv=False)
        svd_rank = int(np.sum(s > 1e-10 * s[0]))
        assert qr_rank == svd_rank == min(donor.n_nodes, target.n_nodes)

    def test_nested_2d_rank(self):
        donor = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        target = M.uniform_refine(donor, 2)
        op = L2.build_projection(donor, target)
        assert rank_check(op) == donor.n_nodes
