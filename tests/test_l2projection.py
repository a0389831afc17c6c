import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import fem, l2projection as L2, mesh as M
from amrdmd.errors import CoverageError, InvalidArgumentError

from conftest import (composite_integral_1d, piecewise_linear_1d,
                      random_refined_interval)


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


def cross_mesh_l2_error(donor_field, target_field, n=20_000):
    """L2 distance between 1-d fields on different meshes, via a composite
    rule that is independent of the projection quadrature."""
    fd = piecewise_linear_1d(donor_field.mesh, donor_field.values)
    ft = piecewise_linear_1d(target_field.mesh, target_field.values)
    a = donor_field.mesh.nodes[:, 0].min()
    b = donor_field.mesh.nodes[:, 0].max()
    val = composite_integral_1d(lambda x: (fd(x) - ft(x)) ** 2, a, b, n)
    return np.sqrt(max(val, 0.0))


class TestBuildProjection:
    def test_same_mesh_P_equals_M(self):
        m = M.build_interval_mesh(0, 1, 9)
        op = L2.build_projection(m, m)
        diff = abs(op.P - fem.assemble_mass(m).matrix)
        assert diff.max() <= 1e-12

    def test_same_mesh_2d(self):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 3, 3)
        op = L2.build_projection(m, m)
        diff = abs(op.P - fem.assemble_mass(m).matrix)
        assert diff.max() <= 1e-12

    def test_nested_pair_full_rank(self):
        donor = M.build_interval_mesh(0, 1, 1)
        target = M.uniform_refine(donor, 1)
        op = L2.build_projection(donor, target)
        assert L2.rank_check(op) == 2

    def test_partition_of_unity(self):
        donor = M.build_interval_mesh(0, 1, 3)
        target = M.build_interval_mesh(0, 1, 4)
        op = L2.build_projection(donor, target)
        assert op.partition_defect() <= 1e-14

    def test_entries_match_composite_quadrature_oracle(self):
        donor = M.build_interval_mesh(0, 1, 3)
        target = M.build_interval_mesh(0, 1, 4)
        op = L2.build_projection(donor, target)
        P = op.P.toarray()
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
        P = op.P.toarray()
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
        assert op.partition_defect() <= 1e-14

        u = fem.FeField(donor, rng.normal(size=donor.n_nodes))
        proj = L2.project(op, u)
        # the donor field is linear between the breakpoints, so the
        # trapezoid rule over them is its exact integral on the span
        xd = donor.nodes[:, 0]
        xs = np.unique(np.concatenate(
            [span, xd[(xd > span[0]) & (xd < span[1])]]))
        fx = piecewise_linear_1d(donor, u.values)(xs)
        mean = float(np.sum(0.5 * (fx[1:] + fx[:-1]) * np.diff(xs)))
        assert fem.integrate(proj) == pytest.approx(
            mean, abs=1e-10 + 1e-8 * abs(mean))

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


class TestProject:
    def test_constant_preserved(self):
        donor = M.build_interval_mesh(0, 1, 5)
        target = M.build_interval_mesh(0, 1, 8)
        op = L2.build_projection(donor, target)
        u = fem.FeField(donor, np.full(donor.n_nodes, 3.25))
        proj = L2.project(op, u)
        np.testing.assert_allclose(proj.values, 3.25, atol=1e-10)

    def test_nested_projection_reproduces_donor(self, rng):
        donor = M.build_interval_mesh(0, 1, 4)
        target = M.uniform_refine(donor, 2)
        op = L2.build_projection(donor, target)
        u = fem.FeField(donor, rng.normal(size=donor.n_nodes))
        proj = L2.project(op, u)
        expect = fem.evaluate_many(u, target.nodes)
        np.testing.assert_allclose(proj.values, expect, atol=1e-10)

    def test_mean_conservation_non_nested(self, rng):
        donor = M.build_interval_mesh(0, 1, 7)
        target = M.build_interval_mesh(0, 1, 11)
        op = L2.build_projection(donor, target)
        for _ in range(5):
            u = fem.FeField(donor, rng.normal(size=donor.n_nodes))
            proj = L2.project(op, u)
            assert fem.integrate(proj) == pytest.approx(
                fem.integrate(u), abs=1e-10 + 1e-8 * abs(fem.integrate(u)))

    def test_best_approximation(self, rng):
        donor = M.build_interval_mesh(0, 1, 6)
        target = M.build_interval_mesh(0, 1, 9)
        op = L2.build_projection(donor, target)
        u = fem.FeField(donor, rng.normal(size=donor.n_nodes))
        proj = L2.project(op, u, tol=1e-14)
        err_proj = cross_mesh_l2_error(u, proj)
        for _ in range(10):
            w = fem.FeField(target, proj.values + 0.1 * rng.normal(size=target.n_nodes))
            err_w = cross_mesh_l2_error(u, w)
            assert err_proj <= err_w + 1e-8

    def test_idempotent_on_same_mesh(self, rng):
        m = M.build_interval_mesh(0, 1, 6)
        op = L2.build_projection(m, m)
        u = fem.FeField(m, rng.normal(size=m.n_nodes))
        once = L2.project(op, u)
        twice = L2.project(op, once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-10)

    def test_wrong_mesh_rejected(self, rng):
        donor = M.build_interval_mesh(0, 1, 4)
        target = M.build_interval_mesh(0, 1, 6)
        op = L2.build_projection(donor, target)
        stray = fem.FeField(target, np.zeros(target.n_nodes))
        with pytest.raises(InvalidArgumentError):
            L2.project(op, stray)

    def test_projection_is_linear(self, rng):
        donor = M.build_interval_mesh(0, 1, 5)
        target = M.build_interval_mesh(0, 1, 7)
        op = L2.build_projection(donor, target)
        u = rng.normal(size=donor.n_nodes)
        v = rng.normal(size=donor.n_nodes)
        a, b = 2.5, -0.75
        combined = L2.project(op, fem.FeField(donor, a * u + b * v), tol=1e-14)
        parts = (a * L2.project(op, fem.FeField(donor, u), tol=1e-14).values
                 + b * L2.project(op, fem.FeField(donor, v), tol=1e-14).values)
        np.testing.assert_allclose(combined.values, parts, atol=1e-10)

    def test_galerkin_orthogonality_residual(self, rng):
        donor = M.build_interval_mesh(0, 1, 6)
        target = M.build_interval_mesh(0, 1, 10)
        op = L2.build_projection(donor, target)
        u = fem.FeField(donor, rng.normal(size=donor.n_nodes))
        proj = L2.project(op, u, tol=1e-12)
        assert L2.projection_residual(op, u, proj) <= 1e-11


class TestRankCheck:
    def test_same_mesh_full_rank(self):
        m = M.build_interval_mesh(0, 1, 6)
        op = L2.build_projection(m, m)
        assert L2.rank_check(op) == m.n_nodes

    def test_non_nested_rank_vs_svd_oracle(self, rng):
        donor = M.build_interval_mesh(0, 1, 5)
        target = M.build_interval_mesh(0, 1, 8)
        op = L2.build_projection(donor, target)
        qr_rank = L2.rank_check(op)
        s = np.linalg.svd(op.P.toarray(), compute_uv=False)
        svd_rank = int(np.sum(s > 1e-10 * s[0]))
        assert qr_rank == svd_rank == min(donor.n_nodes, target.n_nodes)

    def test_nested_2d_rank(self):
        donor = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        target = M.uniform_refine(donor, 2)
        op = L2.build_projection(donor, target)
        assert L2.rank_check(op) == donor.n_nodes
