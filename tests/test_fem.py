import importlib.util
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amrdmd import fem, mesh as M
from amrdmd.errors import InvalidArgumentError, SolverError

from conftest import (coo_mass, element_mass_quadrature, fresh_python,
                      gauss_rule_1d, graded_square, l2_norm, p1_tridiagonal,
                      random_refined_interval, random_refined_square,
                      rule_integral, spd_matrix, triangle_rule)

# every finite float64, with the edge cases drawn often: signed zero, the
# smallest subnormal and the largest finite magnitude
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                    -1.7976931348623157e308]))


class TestQuadrature:
    """The oracle rules of conftest, which the closed forms are checked
    against."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_gauss_1d_exactness(self, degree):
        rule = gauss_rule_1d(degree)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
        for p in range(rule.degree + 1):
            exact = 1.0 / (p + 1)
            approx = float(np.sum(rule.weights * rule.points[:, 1] ** p))
            assert approx == pytest.approx(exact, abs=1e-14)

    def test_triangle_rule_refuses_higher_degree(self):
        with pytest.raises(InvalidArgumentError):
            triangle_rule(3)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_triangle_rule_exactness(self, degree):
        rule = triangle_rule(degree)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)
        # reference integrals of l1^a l2^b over the unit triangle
        from math import factorial
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                approx = float(np.sum(
                    rule.weights * rule.points[:, 1] ** a * rule.points[:, 2] ** b))
                assert approx == pytest.approx(exact, abs=1e-14)


class TestMassMatrix:
    def test_single_segment_analytic(self):
        m = M.build_interval_mesh(0.0, 0.3, 1)
        A = spd_matrix(fem.assemble_mass(m)).toarray()
        h = 0.3
        np.testing.assert_allclose(A, h / 6 * np.array([[2, 1], [1, 2]]), atol=1e-16)

    def test_flat_triangle_is_refused_when_made(self):
        # so assemble_mass never sees an element of measure 0
        with pytest.raises(InvalidArgumentError, match="element 0 has non-positive measure"):
            M.SimplicialMesh(dim=2, nodes=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                             elements=[[0, 1, 2]])

    def test_unit_square_total_measure(self):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 1, 1)
        A = fem.assemble_mass(m)
        ones = np.ones(m.n_nodes)
        assert ones @ A.dot(ones) == pytest.approx(1.0, abs=1e-12)

    def test_row_sums_are_lumped_measures(self, rng):
        m = random_refined_square(rng)
        A = fem.assemble_mass(m)
        row_sums = np.asarray(spd_matrix(A).sum(axis=1)).ravel()
        lumped = np.zeros(m.n_nodes)
        share = m.element_measures() / (m.dim + 1)
        for e, el in enumerate(m.elements):
            lumped[el] += share[e]
        np.testing.assert_allclose(row_sums, lumped, rtol=1e-12)
        assert row_sums.sum() == pytest.approx(m.total_measure(), rel=1e-12)

    @pytest.mark.parametrize("build", ["interval", "square"])
    def test_matches_quadrature_oracle(self, build, rng):
        m = (random_refined_interval(rng) if build == "interval"
             else random_refined_square(rng))
        A = spd_matrix(fem.assemble_mass(m)).toarray()
        locals_q = element_mass_quadrature(m, degree=2)
        B = np.zeros_like(A)
        for e, el in enumerate(m.elements):
            for a in range(len(el)):
                for b in range(len(el)):
                    B[el[a], el[b]] += locals_q[e, a, b]
        np.testing.assert_allclose(A, B, atol=1e-14)

    def test_spd_via_cg_and_eigs(self, rng):
        m = random_refined_interval(rng)
        A = fem.assemble_mass(m)
        w = np.linalg.eigvalsh(spd_matrix(A).toarray())
        assert w.min() > 0


class TestEvaluate:
    def test_nodal_values(self, rng):
        m = random_refined_interval(rng)
        vals = rng.normal(size=m.n_nodes)
        for j in range(0, m.n_nodes, 3):
            value = fem.evaluate_many(m, vals, m.nodes[j].reshape(1, -1))[0]
            assert value == pytest.approx(vals[j], abs=1e-12)

    def test_linear_reproduction(self, rng):
        m = random_refined_square(rng)
        f = 2.0 * m.nodes[:, 0] - 0.5 * m.nodes[:, 1] + 1.0
        pts = rng.uniform(0, 1, size=(50, 2))
        vals = fem.evaluate_many(m, f, pts)
        np.testing.assert_allclose(vals, 2 * pts[:, 0] - 0.5 * pts[:, 1] + 1, atol=1e-14)

    def test_against_per_element_barycentric_oracle(self, rng):
        from conftest import exhaustive_locate
        m = random_refined_square(rng)
        vals = rng.normal(size=m.n_nodes)
        pts = rng.uniform(0, 1, size=(40, 2))
        got = fem.evaluate_many(m, vals, pts)
        for k in range(40):
            eid, lam = exhaustive_locate(m, pts[k])
            expect = float(vals[m.elements[eid]] @ lam)
            assert got[k] == pytest.approx(expect, abs=1e-11)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           k=st.integers(1, 12))
    def test_stacked_equals_per_row_bitwise(self, seed, dim, k):
        rng = np.random.default_rng(seed)
        m = random_refined_interval(rng) if dim == 1 else graded_square(rng, passes=3)
        pts = np.vstack([M.uniform_refine(m, 1).nodes,
                         rng.uniform(0, 1, size=(40, dim))])
        stack = rng.normal(size=(k, m.n_nodes))
        got = fem.evaluate_many(m, stack, pts)
        assert got.shape == (k, len(pts))
        for row, values in zip(got, stack):
            assert row.tobytes() == fem.evaluate_many(m, values, pts).tobytes()

    def test_point_outside_domain_propagates(self):
        from amrdmd.errors import PointNotFoundError
        m = M.build_interval_mesh(0, 1, 3)
        with pytest.raises(PointNotFoundError):
            fem.evaluate_many(m, np.ones(4), np.array([[2.0]]))


class TestIntegralsAndNorms:
    def test_constant_field(self):
        m = M.build_interval_mesh(0, 1, 7)
        f = np.ones(m.n_nodes)
        assert fem.integrate(m, f) == pytest.approx(1.0, abs=1e-14)
        assert l2_norm(m, f) == pytest.approx(1.0, abs=1e-14)
        assert fem.inf_norm(f) == 1.0

    def test_linear_field_analytic(self):
        m = M.build_interval_mesh(0, 1, 13)
        f = m.nodes[:, 0]
        assert fem.integrate(m, f) == pytest.approx(0.5, abs=1e-14)
        assert l2_norm(m, f) == pytest.approx(1 / np.sqrt(3), abs=1e-14)
        assert fem.inf_norm(f) == pytest.approx(1.0)

    def test_integrate_is_linear(self, rng):
        m = random_refined_interval(rng)
        u = rng.normal(size=m.n_nodes)
        v = rng.normal(size=m.n_nodes)
        a, b = rng.normal(size=2)
        lhs = fem.integrate(m, a * u + b * v)
        rhs = a * fem.integrate(m, u) + b * fem.integrate(m, v)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]))
    def test_integrate_matches_the_rule_on_graded_meshes(self, seed, dim):
        # the closed form against conftest's degree-2 rule, relative to the
        # rule's integral of |u| so that cancellation hides no defect
        r = np.random.default_rng(seed)
        if dim == 1:
            lo = r.uniform(-10, 10)
            m = random_refined_interval(r, int(r.integers(1, 9)), int(r.integers(0, 5)),
                                        lo, lo + r.uniform(0.01, 10))
        else:
            m = graded_square(r, passes=int(r.integers(1, 5)))
        u = r.normal(size=m.n_nodes) + r.normal()
        assert abs(fem.integrate(m, u) - rule_integral(m, u)) \
            <= 1e-14 * rule_integral(m, np.abs(u))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_l2_triangle_inequality(self, seed):
        r = np.random.default_rng(seed)
        m = M.build_interval_mesh(0, 1, 9)
        u = r.normal(size=m.n_nodes)
        v = r.normal(size=m.n_nodes)
        lhs = l2_norm(m, u + v)
        rhs = l2_norm(m, u) + l2_norm(m, v)
        assert lhs <= rhs + 1e-12


class TestFluxJump:
    def test_linear_field_zero_scores(self, rng):
        m = random_refined_square(rng)
        f = 3.0 * m.nodes[:, 0] + 2.0 * m.nodes[:, 1]
        np.testing.assert_allclose(fem.flux_jump_indicator(m, f), 0.0, atol=1e-12)

    def test_1d_hat_localizes_at_kink(self):
        m = M.build_interval_mesh(0, 1, 4)
        x = m.nodes[:, 0]
        f = np.minimum(x, 1 - x)   # kink at x = 0.5
        scores = fem.flux_jump_indicator(m, f)
        order = np.argsort(m.nodes[m.elements].mean(axis=1).ravel())
        mid = np.asarray(scores)[order]
        assert mid[1] > 0 and mid[2] > 0
        assert mid[0] == pytest.approx(0.0, abs=1e-12)
        assert mid[3] == pytest.approx(0.0, abs=1e-12)

    def test_2d_random_field_vs_direct_recomputation(self, rng):
        m = random_refined_square(rng)
        vals = rng.normal(size=m.n_nodes)
        scores = fem.flux_jump_indicator(m, vals)
        # independent oracle: accumulate jumps facet by facet from scratch
        grads = fem.element_gradients(m, vals)
        acc = np.zeros(m.n_elems)
        edges = {}
        for i, el in enumerate(m.elements):
            for k in range(3):
                key = tuple(sorted((int(el[k]), int(el[(k + 1) % 3]))))
                edges.setdefault(key, []).append(i)
        for (u, v), owners in edges.items():
            if len(owners) != 2:
                continue
            tang = m.nodes[v] - m.nodes[u]
            L = np.linalg.norm(tang)
            n = np.array([tang[1], -tang[0]]) / L
            jmp = (grads[owners[0]] - grads[owners[1]]) @ n
            for e in owners:
                acc[e] += L * (L * jmp ** 2)
        np.testing.assert_allclose(scores, np.sqrt(acc), atol=1e-12)

    def test_affine_shift_invariance(self, rng):
        m = random_refined_square(rng)
        vals = rng.normal(size=m.n_nodes)
        f0 = fem.flux_jump_indicator(m, vals)
        affine = 4.0 - 3.0 * m.nodes[:, 0] + 0.7 * m.nodes[:, 1]
        f1 = fem.flux_jump_indicator(m, vals + affine)
        np.testing.assert_allclose(f0, f1, atol=1e-12)

    def test_linear_shift_invariance_1d(self, rng):
        m = random_refined_interval(rng)
        vals = rng.normal(size=m.n_nodes)
        f0 = fem.flux_jump_indicator(m, vals)
        f1 = fem.flux_jump_indicator(m, vals + 2.5 * m.nodes[:, 0] - 1.0)
        np.testing.assert_allclose(f0, f1, atol=1e-12)


def dense_spd(dense):
    """A symmetric dense matrix as a SparseSpd of one element block."""
    ids = np.arange(dense.shape[0])[:, None]
    return fem.SparseSpd(blocks=fem.ElementBlocks(ids, ids, dense[:, :, None],
                                                  dense.shape[0]))


class TestCgSolve:
    def test_identity(self):
        A = dense_spd(np.eye(5))
        b = np.arange(5.0)
        np.testing.assert_allclose(fem.cg_solve(A, b), b, atol=1e-14)

    def test_rhs_of_the_wrong_shape_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"rhs has shape \(4,\)"):
            fem.cg_solve(dense_spd(np.eye(5)), np.ones(4))

    def test_overflowing_solve_is_refused(self):
        # the second LDL^T pivot is subnormal, so x overflows and A x is nan
        A = fem.SparseSpd(bands=(None, np.array([1e-300, 1e-300 * (1 + 2 ** -52)]),
                                 np.array([1e-300])))
        with np.errstate(invalid="ignore"), \
                pytest.raises(InvalidArgumentError, match=r"non-finite values \(nan\)"):
            fem.cg_solve(A, np.array([1.0, -1.0]))

    def test_manufactured_solution(self):
        m = M.build_interval_mesh(0, 1, 40)
        A = fem.assemble_mass(m)
        b = A.dot(np.ones(m.n_nodes))
        x = fem.cg_solve(A, b)
        np.testing.assert_allclose(x, 1.0, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), graded=st.booleans())
    def test_2d_mass_matches_dense_solve(self, seed, graded):
        rng = np.random.default_rng(seed)
        m = graded_square(rng) if graded else random_refined_square(rng)
        A = fem.assemble_mass(m)
        b = rng.normal(size=m.n_nodes)
        x = fem.cg_solve(A, b)
        ref = np.linalg.solve(spd_matrix(A).toarray(), b)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_generic_spd_blocks_raise_solver_error(self, rng):
        # the sweep is fitted to the Jacobi spectrum of P1 mass matrices;
        # this one reaches past 2, so the verification refuses the result
        G = rng.normal(size=(50, 50))
        A = dense_spd(G @ G.T + 50 * np.eye(50))
        with pytest.raises(SolverError, match="relative residual"):
            fem.cg_solve(A, rng.normal(size=50))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), graded=st.booleans())
    def test_jacobi_spectrum_of_2d_mass_in_half_to_two(self, seed, graded):
        # the premise of the sweep (Wathen 1987) on meshes of every grading
        rng = np.random.default_rng(seed)
        m = graded_square(rng) if graded else random_refined_square(rng)
        A = fem.assemble_mass(m)
        s = 1.0 / np.sqrt(A.diag)
        lam = np.linalg.eigvalsh(s[:, None] * spd_matrix(A).toarray() * s)
        assert lam[0] >= 0.5 - 1e-12 and lam[-1] <= 2.0 + 1e-12

    def test_corner_graded_mesh_meets_the_tolerance(self, rng):
        # 40 bisections at a corner spread the diagonal over ~3e12; a sweep
        # of the length fitted to a uniform mesh leaves a residual of ~1e-9
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 8, 8)
        for _ in range(40):
            corner = np.flatnonzero((np.abs(m.nodes[m.elements]).sum(axis=2)
                                     == 0).any(axis=1))
            m = M.refine(m, M.RefinementPlan(refine=frozenset(corner.tolist())))
        A = fem.assemble_mass(m)
        assert A.diag.max() / A.diag.min() > 1e12
        b = rng.normal(size=m.n_nodes)
        r = b - A.dot(fem.cg_solve(A, b))
        assert np.linalg.norm(r) <= fem.SOLVE_TOL * np.linalg.norm(b)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-1000, 1000),
           form=st.sampled_from(["band", "blocks"]))
    @example(seed=0, k=-700, form="blocks")
    @example(seed=0, k=700, form="blocks")
    def test_power_of_two_scaling_is_bitwise(self, seed, k, form):
        rng = np.random.default_rng(seed)
        m = random_refined_interval(rng) if form == "band" \
            else random_refined_square(rng)
        A = fem.assemble_mass(m)
        b = rng.normal(size=m.n_nodes) * 10.0 ** rng.uniform(-5, 5, m.n_nodes)
        x = fem.cg_solve(A, b)
        with np.errstate(over="ignore"):    # an overflowing draw is discarded below
            scaled_b, scaled_x = np.ldexp(b, k), np.ldexp(x, k)
        tiny = np.finfo(float).tiny
        assume(np.isfinite(scaled_x).all() and np.isfinite(scaled_b).all()
               and np.abs(scaled_x).min() >= tiny and np.abs(scaled_b).min() >= tiny)
        assert np.array_equal(fem.cg_solve(A, scaled_b), scaled_x)

    @pytest.mark.parametrize("form", ["band", "blocks"])
    def test_subnormal_rhs_is_solved(self, rng, form):
        # 2**-frexp(max|b|) overflows below 2**-1022: the scale stops at
        # 2**1022, and the answer is the scaled answer of a normal rhs
        m = random_refined_interval(rng) if form == "band" \
            else random_refined_square(rng)
        A = fem.assemble_mass(m)
        b = rng.uniform(-1.0, 1.0, m.n_nodes)
        want = 1e-310 * fem.cg_solve(A, b)
        got = fem.cg_solve(A, 1e-310 * b)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        smallest = np.zeros(m.n_nodes)
        smallest[m.n_nodes // 2] = 5e-324
        assert np.isfinite(fem.cg_solve(A, smallest)).all()

    def test_asymmetric_blocks_rejected(self):
        with pytest.raises(InvalidArgumentError, match="not symmetric"):
            dense_spd(np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]]))
        ids = np.array([[0], [1]])
        with pytest.raises(InvalidArgumentError, match="not symmetric"):
            fem.SparseSpd(blocks=fem.ElementBlocks(ids, ids[::-1],
                                                   np.full((2, 2, 1), 1.0), 2))

    @pytest.mark.parametrize("form", ["band", "blocks"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_raises_before_iterating(self, monkeypatch, rng,
                                                       form, bad):
        m = random_refined_interval(rng) if form == "band" \
            else random_refined_square(rng)
        A = fem.assemble_mass(m)
        b = rng.normal(size=m.n_nodes)
        b[m.n_nodes // 2] = bad
        calls = count_dots(monkeypatch)
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            fem.cg_solve(A, b)
        assert calls[0] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diagonal_rejected(self, bad):
        diag = np.array([1.0, bad, 1.0])
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            fem.SparseSpd(bands=(None, diag, np.zeros(2)))

    def test_deterministic(self, rng):
        m = M.build_interval_mesh(0, 1, 30)
        A = fem.assemble_mass(m)
        b = rng.normal(size=m.n_nodes)
        x1 = fem.cg_solve(A, b)
        x2 = fem.cg_solve(A, b)
        assert np.array_equal(x1, x2)


def count_dots(monkeypatch):
    """Make SparseSpd.dot count its calls in the returned list."""
    calls = [0]
    plain = fem.SparseSpd.dot

    def dot(self, x):
        calls[0] += 1
        return plain(self, x)

    monkeypatch.setattr(fem.SparseSpd, "dot", dot)
    return calls


class TestBandForm:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_mass_matches_coo_assembly_bitwise(self, seed):
        m = random_refined_interval(np.random.default_rng(seed))
        A = fem.assemble_mass(m)
        assert A.order is not None                      # the band form
        assert np.array_equal(spd_matrix(A).toarray(), coo_mass(m).toarray())

    def test_refined_node_ids_are_not_in_coordinate_order(self, rng):
        # the property the tests of this class rely on
        m = random_refined_interval(rng)
        assert np.any(np.diff(m.nodes[:, 0]) < 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_dot_matches_csr_view(self, seed):
        rng = np.random.default_rng(seed)
        m = random_refined_interval(rng)
        A = fem.assemble_mass(m)
        x = rng.normal(size=m.n_nodes)
        np.testing.assert_allclose(A.dot(x), spd_matrix(A) @ x, rtol=0,
                                   atol=1e-15 * np.max(np.abs(x)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_solve_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        m = random_refined_interval(rng, passes=3)
        n = m.n_nodes
        h = m.element_measures()
        A = p1_tridiagonal(m, h * rng.uniform(1, 2, m.n_elems),
                           h * rng.uniform(1, 2, m.n_elems),
                           h * rng.uniform(-1, 1, m.n_elems),
                           int(rng.integers(n)))
        b = rng.normal(size=n)
        x = fem.cg_solve(A, b)
        ref = np.linalg.solve(spd_matrix(A).toarray(), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_diffusion_dominated_system_is_solved(self, rng):
        # h^-1 stiffness on h^2 mass: rounding in |A||x| alone leaves a
        # residual above SOLVE_TOL |b|, which no refinement step lowers; the
        # factor solve is backward stable and is measured against |A||x|
        from scipy.linalg import solveh_banded
        m = M.build_interval_mesh(0, 1, 2000)
        h = m.element_measures()
        A = p1_tridiagonal(m, h / 3 + 1 / h, h / 3 + 1 / h, h / 6 - 1 / h)
        b = h.mean() * rng.uniform(0.5, 1.0, m.n_nodes)
        x = fem.cg_solve(A, b)
        r = b - A.dot(x)
        assert np.linalg.norm(r) > fem.SOLVE_TOL * np.linalg.norm(b)
        ref = solveh_banded(np.vstack([np.r_[0.0, A.off], A.diag]), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_positive_diagonal_but_indefinite_raises(self):
        m = M.build_interval_mesh(0, 1, 4)
        ones = np.ones(m.n_elems)
        A = p1_tridiagonal(m, ones, ones, 3.0 * ones)   # 2 on the diagonal
        assert np.all(A.diag > 0)
        with pytest.raises(SolverError, match="not positive definite"):
            fem.cg_solve(A, np.ones(m.n_nodes))

    def test_non_positive_diagonal_rejected(self):
        m = M.build_interval_mesh(0, 1, 3)
        zeros = np.zeros(m.n_elems)
        with pytest.raises(InvalidArgumentError):
            p1_tridiagonal(m, zeros, zeros, zeros)

    def test_element_joining_non_neighbours_raises(self):
        # node 1 at x = 0.5 lies between the nodes of element (0, 2)
        with pytest.raises(InvalidArgumentError, match="element 0 joins nodes that are not "
                                                       "coordinate neighbours"):
            M.SimplicialMesh(dim=1, nodes=[[0.0], [0.5], [1.0]], elements=[[0, 2], [1, 2]])

    @pytest.mark.parametrize("form", ["band", "blocks"])
    @pytest.mark.parametrize("rhs", ["zero", "random"])
    def test_every_solve_verifies_with_a_matvec(self, monkeypatch, rng, form,
                                                rhs):
        m = random_refined_interval(rng)
        A = fem.assemble_mass(m)
        if form == "blocks":
            local = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
            ids = np.ascontiguousarray(m.elements.T)
            A = fem.SparseSpd(blocks=fem.ElementBlocks(
                ids, ids, local[:, :, None] * m.element_measures(), m.n_nodes))
        b = np.zeros(m.n_nodes) if rhs == "zero" else rng.normal(size=m.n_nodes)
        calls = count_dots(monkeypatch)
        x = fem.cg_solve(A, b)
        assert calls[0] >= 1
        if form == "band":
            assert calls[0] == 1                # the factor is exact
        if rhs == "zero":
            assert not np.any(x)

    def test_factor_is_computed_once(self, monkeypatch, rng):
        m = random_refined_interval(rng)
        A = fem.assemble_mass(m)
        factored = [0]
        plain = fem._flapack()

        def dpttrf(*args):
            factored[0] += 1
            return plain.dpttrf(*args)

        monkeypatch.setattr(fem, "_flapack", lambda: SimpleNamespace(
            dpttrf=dpttrf, dpttrs=plain.dpttrs))
        for _ in range(3):
            fem.cg_solve(A, rng.normal(size=m.n_nodes))
        assert factored[0] == 1


# dpttrf, then dpttrs on a positive definite matrix, for each (d, e, b) case
# of an .npz; run as a script it does so with the loader's module in a fresh
# interpreter, saves the outcomes and prints the scipy modules it loaded
FACTOR_SCRIPT = """
import sys
import numpy as np

def outcomes(lapack, cases):
    out = {}
    for k in range(len(cases) // 3):
        d, e, b = (cases[f"{a}{k}"] for a in "deb")
        try:
            d, e, out[f"info{k}"] = lapack.dpttrf(d, e)
            out[f"d{k}"], out[f"e{k}"] = d, e
            if out[f"info{k}"] == 0:
                out[f"x{k}"], out[f"xinfo{k}"] = lapack.dpttrs(d, e, b)
        except ValueError as exc:       # f2py refuses n = 1 with e of size 0
            out[f"error{k}"] = str(exc)
    return out

if __name__ == "__main__":
    from amrdmd import fem
    np.savez(sys.argv[2], **outcomes(fem._flapack(), np.load(sys.argv[1])))
    print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def tridiagonal_case(n, kind, seed):
    """Diagonal, off-diagonal and a right-hand side of an n x n symmetric
    tridiagonal: 'dominant' strictly diagonally dominant, 'ldlt' L D L^T
    with D > 0 and a unit bidiagonal L (seldom dominant), 'indefinite' the
    same with one pivot of D negated. |L| < 1 below the diagonal: rounding
    in a pivot shrinks on its way down the factor, so no pivot flips sign."""
    rng = np.random.default_rng(seed)
    if kind == "dominant":
        diag, off = rng.uniform(1, 2, n), rng.uniform(-0.49, 0.49, n - 1)
    else:
        d, low = rng.uniform(0.1, 2, n), rng.uniform(-1, 1, n - 1)
        if kind == "indefinite":
            d[rng.integers(n)] *= -1
        diag, off = d.copy(), low * d[:-1]
        diag[1:] += low * off
    return diag, off, rng.normal(size=n)


class TestLapackLoader:
    @settings(max_examples=5, deadline=None)
    @given(cases=st.lists(st.tuples(st.integers(1, 600),
                                    st.sampled_from(["dominant", "ldlt", "indefinite"]),
                                    st.integers(0, 2 ** 32 - 1)),
                          min_size=1, max_size=8))
    def test_same_bits_as_scipy_linalg_lapack(self, cases):
        from scipy.linalg import lapack
        arrays = {}
        for k, case in enumerate(cases):
            arrays[f"d{k}"], arrays[f"e{k}"], arrays[f"b{k}"] = tridiagonal_case(*case)
        namespace = {}
        exec(FACTOR_SCRIPT, namespace)
        expected = namespace["outcomes"](lapack, arrays)
        with tempfile.TemporaryDirectory() as tmp:
            np.savez(Path(tmp, "in.npz"), **arrays)
            proc = fresh_python("-c", FACTOR_SCRIPT, Path(tmp, "in.npz"),
                                Path(tmp, "out.npz"))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "['scipy.linalg._flapack']"
            with np.load(Path(tmp, "out.npz")) as got:
                assert sorted(got.files) == sorted(expected)
                for key, value in expected.items():
                    assert got[key].tobytes() == np.asarray(value).tobytes(), key
        for k, (n, kind, _) in enumerate(cases):
            if n > 1:
                assert (expected[f"info{k}"] > 0) == (kind == "indefinite")

    def test_shares_its_module_with_scipy_linalg(self):
        proc = fresh_python("-c", "import sys, numpy as np\n"
                                  "from amrdmd import fem, mesh\n"
                                  "m = mesh.build_interval_mesh(0, 1, 8)\n"
                                  "fem.cg_solve(fem.assemble_mass(m), np.ones(m.n_nodes))\n"
                                  "from scipy.linalg import lapack\n"
                                  "flapack = sys.modules['scipy.linalg._flapack']\n"
                                  "print(lapack.dpttrf is flapack.dpttrf)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_missing_scipy_is_an_import_error_naming_the_module(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
            fem._flapack()


class TestFieldIO:
    def test_multi_field_roundtrip(self, tmp_path, rng):
        m = random_refined_interval(rng)
        fields = {n: rng.normal(size=m.n_nodes) for n in ("s", "e", "i")}
        path = tmp_path / "f.field.txt"
        fem.save_fields(m, fields, path)
        back = fem.load_fields(path, m)
        assert list(back) == ["s", "e", "i"]
        for name, values in fields.items():
            np.testing.assert_array_equal(back[name], values)

    def test_golden_bytes(self, tmp_path):
        m = M.build_interval_mesh(0, 1, 2)
        path = tmp_path / "g.field.txt"
        fem.save_fields(m, {"u": [-0.0, 1 / 3, 5e-324], "v": [1e300, -2.5, 0.1]},
                        path)
        assert path.read_bytes() == (
            b"3 2\nu v\n-0 1.0000000000000001e+300\n0.33333333333333331 -2.5\n"
            b"4.9406564584124654e-324 0.10000000000000001\n")

    def test_short_file_rejected(self, tmp_path):
        m = M.build_interval_mesh(0, 1, 2)
        path = tmp_path / "short.field.txt"
        path.write_text("3 2\ns e\n0 1\n0.5 1\n")         # one node row missing
        with pytest.raises(InvalidArgumentError):
            fem.load_fields(path, m)

    @pytest.mark.parametrize("text", [
        "99999999999999999999 2\ns e\n0 1\n0.5 1\n1 1\n",
        "3 2\ns s\n0 1\n0.5 1\n1 1\n",
    ])
    def test_bad_header_rejected_naming_file(self, tmp_path, text):
        m = M.build_interval_mesh(0, 1, 2)
        path = tmp_path / "bad.field.txt"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match="bad.field.txt"):
            fem.load_fields(path, m)

    def test_node_count_mismatch(self, tmp_path):
        m = M.build_interval_mesh(0, 1, 3)
        fem.save_fields(m, {"u": np.zeros(4)}, tmp_path / "f.field.txt")
        other = M.build_interval_mesh(0, 1, 5)
        with pytest.raises(InvalidArgumentError):
            fem.load_fields(tmp_path / "f.field.txt", other)

    @settings(max_examples=60, deadline=None)
    @given(n_elems=st.integers(1, 6), data=st.data())
    def test_roundtrip_is_bit_for_bit(self, n_elems, data):
        m = M.build_interval_mesh(0, 1, n_elems)
        names = data.draw(st.lists(st.text("abcdefxyz_019", min_size=1, max_size=4),
                                   min_size=1, max_size=4, unique=True))
        fields = {name: np.array(data.draw(st.lists(FINITE, min_size=m.n_nodes,
                                                    max_size=m.n_nodes)))
                  for name in names}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.field.txt"
            fem.save_fields(m, fields, path)
            back = fem.load_fields(path, m)
        assert list(back) == names
        for name, values in fields.items():
            assert back[name].tobytes() == values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n_elems=st.integers(1, 6), data=st.data())
    def test_refused_field_leaves_no_file(self, n_elems, data):
        m = M.build_interval_mesh(0, 1, n_elems)
        n = m.n_nodes
        good = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
        bad = good.copy()
        fault = data.draw(st.sampled_from(["nan", "inf", "-inf", "short", "long"]))
        if fault in ("short", "long"):
            bad = bad[:-1] if fault == "short" else np.append(bad, 0.0)
        else:
            bad[data.draw(st.integers(0, n - 1))] = float(fault)
        fields = {"u": good, "v": bad}
        if data.draw(st.booleans()):
            fields = {"v": bad, "u": good}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.field.txt"
            with pytest.raises(InvalidArgumentError, match="field 'v'"):
                fem.save_fields(m, fields, path)
            assert not path.exists()

    @pytest.mark.parametrize("names", [[], ["a b"], [""], ["a\tb"]],
                             ids=["empty", "space", "blank", "tab"])
    def test_refused_names_leave_no_file(self, tmp_path, names):
        m = M.build_interval_mesh(0, 1, 2)
        fields = {name: np.zeros(m.n_nodes) for name in names}
        path = tmp_path / "f.field.txt"
        with pytest.raises(InvalidArgumentError):
            fem.save_fields(m, fields, path)
        assert not path.exists()
