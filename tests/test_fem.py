import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import fem, mesh as M
from amrdmd.errors import InvalidArgumentError, SolverError

from conftest import random_refined_interval, random_refined_square


class TestQuadrature:
    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_gauss_1d_exactness(self, degree):
        rule = fem.gauss_rule_1d(degree)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
        for p in range(rule.degree + 1):
            exact = 1.0 / (p + 1)
            approx = float(np.sum(rule.weights * rule.points[:, 1] ** p))
            assert approx == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_triangle_rule_exactness(self, degree):
        rule = fem.triangle_rule(degree)
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
        A = fem.assemble_mass(m).matrix.toarray()
        h = 0.3
        np.testing.assert_allclose(A, h / 6 * np.array([[2, 1], [1, 2]]), atol=1e-16)

    def test_unit_square_total_measure(self):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 1, 1)
        A = fem.assemble_mass(m)
        ones = np.ones(m.n_nodes)
        assert ones @ A.dot(ones) == pytest.approx(1.0, abs=1e-12)

    def test_row_sums_are_lumped_measures(self, rng):
        m = random_refined_square(rng)
        A = fem.assemble_mass(m)
        row_sums = np.asarray(A.matrix.sum(axis=1)).ravel()
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
        A = fem.assemble_mass(m).matrix.toarray()
        locals_q = fem.element_mass_quadrature(m, degree=2)
        B = np.zeros_like(A)
        for e, el in enumerate(m.elements):
            for a in range(len(el)):
                for b in range(len(el)):
                    B[el[a], el[b]] += locals_q[e, a, b]
        np.testing.assert_allclose(A, B, atol=1e-14)

    def test_spd_via_cg_and_eigs(self, rng):
        m = random_refined_interval(rng)
        A = fem.assemble_mass(m)
        w = np.linalg.eigvalsh(A.matrix.toarray())
        assert w.min() > 0


class TestEvaluate:
    def test_nodal_values(self, rng):
        m = random_refined_interval(rng)
        vals = rng.normal(size=m.n_nodes)
        f = fem.FeField(m, vals)
        for j in range(0, m.n_nodes, 3):
            assert fem.evaluate(f, m.nodes[j]) == pytest.approx(vals[j], abs=1e-12)

    def test_linear_reproduction(self, rng):
        m = random_refined_square(rng)
        f = fem.FeField(m, 2.0 * m.nodes[:, 0] - 0.5 * m.nodes[:, 1] + 1.0)
        pts = rng.uniform(0, 1, size=(50, 2))
        vals = fem.evaluate_many(f, pts)
        np.testing.assert_allclose(vals, 2 * pts[:, 0] - 0.5 * pts[:, 1] + 1, atol=1e-14)

    def test_against_per_element_barycentric_oracle(self, rng):
        from conftest import exhaustive_locate
        m = random_refined_square(rng)
        vals = rng.normal(size=m.n_nodes)
        f = fem.FeField(m, vals)
        pts = rng.uniform(0, 1, size=(40, 2))
        got = fem.evaluate_many(f, pts)
        for k in range(40):
            eid, lam = exhaustive_locate(m, pts[k])
            expect = float(vals[m.elements[eid]] @ lam)
            assert got[k] == pytest.approx(expect, abs=1e-11)

    def test_field_validation(self):
        m = M.build_interval_mesh(0, 1, 3)
        with pytest.raises(InvalidArgumentError):
            fem.FeField(m, np.zeros(5))
        with pytest.raises(InvalidArgumentError):
            fem.FeField(m, np.full(4, np.nan))

    def test_point_outside_domain_propagates(self):
        from amrdmd.errors import PointNotFoundError
        m = M.build_interval_mesh(0, 1, 3)
        f = fem.FeField(m, np.ones(4))
        with pytest.raises(PointNotFoundError):
            fem.evaluate(f, [2.0])


class TestIntegralsAndNorms:
    def test_constant_field(self):
        m = M.build_interval_mesh(0, 1, 7)
        f = fem.FeField(m, np.ones(m.n_nodes))
        assert fem.integrate(f) == pytest.approx(1.0, abs=1e-14)
        assert fem.l2_norm(f) == pytest.approx(1.0, abs=1e-14)
        assert fem.inf_norm(f) == 1.0

    def test_linear_field_analytic(self):
        m = M.build_interval_mesh(0, 1, 13)
        f = fem.FeField(m, m.nodes[:, 0])
        assert fem.integrate(f) == pytest.approx(0.5, abs=1e-14)
        assert fem.l2_norm(f) == pytest.approx(1 / np.sqrt(3), abs=1e-14)
        assert fem.inf_norm(f) == pytest.approx(1.0)

    def test_integrate_is_linear(self, rng):
        m = random_refined_interval(rng)
        u = rng.normal(size=m.n_nodes)
        v = rng.normal(size=m.n_nodes)
        a, b = rng.normal(size=2)
        lhs = fem.integrate(fem.FeField(m, a * u + b * v))
        rhs = a * fem.integrate(fem.FeField(m, u)) + b * fem.integrate(fem.FeField(m, v))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_l2_triangle_inequality(self, seed):
        r = np.random.default_rng(seed)
        m = M.build_interval_mesh(0, 1, 9)
        u = r.normal(size=m.n_nodes)
        v = r.normal(size=m.n_nodes)
        lhs = fem.l2_norm(fem.FeField(m, u + v))
        rhs = fem.l2_norm(fem.FeField(m, u)) + fem.l2_norm(fem.FeField(m, v))
        assert lhs <= rhs + 1e-12


class TestFluxJump:
    def test_linear_field_zero_scores(self, rng):
        m = random_refined_square(rng)
        f = fem.FeField(m, 3.0 * m.nodes[:, 0] + 2.0 * m.nodes[:, 1])
        np.testing.assert_allclose(fem.flux_jump_indicator(f), 0.0, atol=1e-12)

    def test_1d_hat_localizes_at_kink(self):
        m = M.build_interval_mesh(0, 1, 4)
        x = m.nodes[:, 0]
        f = fem.FeField(m, np.minimum(x, 1 - x))   # kink at x = 0.5
        scores = fem.flux_jump_indicator(f)
        order = np.argsort(m.nodes[m.elements].mean(axis=1).ravel())
        mid = np.asarray(scores)[order]
        assert mid[1] > 0 and mid[2] > 0
        assert mid[0] == pytest.approx(0.0, abs=1e-12)
        assert mid[3] == pytest.approx(0.0, abs=1e-12)

    def test_2d_random_field_vs_direct_recomputation(self, rng):
        m = random_refined_square(rng)
        vals = rng.normal(size=m.n_nodes)
        f = fem.FeField(m, vals)
        scores = fem.flux_jump_indicator(f)
        # independent oracle: accumulate jumps facet by facet from scratch
        grads = fem.element_gradients(f)
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
        f0 = fem.flux_jump_indicator(fem.FeField(m, vals))
        affine = 4.0 - 3.0 * m.nodes[:, 0] + 0.7 * m.nodes[:, 1]
        f1 = fem.flux_jump_indicator(fem.FeField(m, vals + affine))
        np.testing.assert_allclose(f0, f1, atol=1e-12)

    def test_linear_shift_invariance_1d(self, rng):
        m = random_refined_interval(rng)
        vals = rng.normal(size=m.n_nodes)
        f0 = fem.flux_jump_indicator(fem.FeField(m, vals))
        f1 = fem.flux_jump_indicator(
            fem.FeField(m, vals + 2.5 * m.nodes[:, 0] - 1.0))
        np.testing.assert_allclose(f0, f1, atol=1e-12)


class TestCgSolve:
    def test_identity(self):
        import scipy.sparse as sp
        A = fem.SparseSpd(sp.identity(5, format="csr"))
        b = np.arange(5.0)
        np.testing.assert_allclose(fem.cg_solve(A, b), b, atol=1e-14)

    def test_manufactured_solution(self):
        m = M.build_interval_mesh(0, 1, 40)
        A = fem.assemble_mass(m)
        b = A.dot(np.ones(m.n_nodes))
        x = fem.cg_solve(A, b, tol=1e-12)
        np.testing.assert_allclose(x, 1.0, atol=1e-10)

    def test_random_spd_matches_dense_solve(self, rng):
        import scipy.sparse as sp
        G = rng.normal(size=(50, 50))
        dense = G @ G.T + 50 * np.eye(50)
        A = fem.SparseSpd(sp.csr_matrix(dense))
        b = rng.normal(size=50)
        x = fem.cg_solve(A, b, tol=1e-13)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), atol=1e-9)

    def test_nonconvergence_raises_with_residual(self):
        import scipy.sparse as sp
        n = 100
        lap = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                       [-1, 0, 1], format="csr")
        A = fem.SparseSpd(lap)
        b = np.ones(n)
        with pytest.raises(SolverError) as err:
            fem.cg_solve(A, b, tol=1e-14, max_iter=2)
        assert err.value.residual is not None

    def test_deterministic(self, rng):
        m = M.build_interval_mesh(0, 1, 30)
        A = fem.assemble_mass(m)
        b = rng.normal(size=m.n_nodes)
        x1 = fem.cg_solve(A, b)
        x2 = fem.cg_solve(A, b)
        assert np.array_equal(x1, x2)


class TestFieldIO:
    def test_multi_field_roundtrip(self, tmp_path, rng):
        m = random_refined_interval(rng)
        fields = [fem.FeField(m, rng.normal(size=m.n_nodes), name=n)
                  for n in ("s", "e", "i")]
        path = tmp_path / "f.field.txt"
        fem.save_fields(fields, path)
        back = fem.load_fields(path, m)
        assert list(back) == ["s", "e", "i"]
        for f in fields:
            np.testing.assert_array_equal(back[f.name].values, f.values)

    def test_short_file_rejected(self, tmp_path):
        m = M.build_interval_mesh(0, 1, 2)
        path = tmp_path / "short.field.txt"
        path.write_text("3 2\ns e\n0 1\n0.5 1\n")         # one node row missing
        with pytest.raises(InvalidArgumentError):
            fem.load_fields(path, m)

    def test_node_count_mismatch(self, tmp_path):
        m = M.build_interval_mesh(0, 1, 3)
        fem.save_fields([fem.FeField(m, np.zeros(4))], tmp_path / "f.field.txt")
        other = M.build_interval_mesh(0, 1, 5)
        with pytest.raises(InvalidArgumentError):
            fem.load_fields(tmp_path / "f.field.txt", other)
