import numpy as np
import pytest

from amrdmd import dmd, fem, mesh as M, seird_sim as S
from amrdmd.errors import InvalidArgumentError


def fresh_state(mesh):
    init = S.seird_initial_conditions(mesh)
    return S.SeirdState(mesh=mesh,
                        fields={c: init[c].values.copy() for c in S.COMPARTMENTS},
                        prev_fields=None, time=0.0, step_index=0)


class TestParams:
    def test_defaults_are_benchmark_preset(self):
        p = S.SeirdParams()
        assert p.alpha == 0.09375
        assert p.beta_i == p.beta_e == 0.375
        assert p.delta == 0.0046875
        assert p.gamma_i == 0.03125 and p.gamma_e == 0.125
        assert p.nu_s == p.nu_r == 3.75e-5
        assert p.nu_e == 7.5e-4 and p.nu_i == 7.5e-11
        assert p.dt == 0.25 and p.t_end == 44.0
        assert p.n_steps == 176

    def test_dt_o_must_divide(self):
        with pytest.raises(InvalidArgumentError):
            S.SeirdParams(dt=0.25, dt_o=0.3)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            S.SeirdParams(alpha=-1.0)

    def test_policy_fraction_bounds(self):
        with pytest.raises(InvalidArgumentError):
            S.AmrPolicy(refine_fraction=0.8, coarsen_fraction=0.4)


class TestInitialConditions:
    def test_exposed_peak_value(self):
        mesh = M.build_interval_mesh(0, 1, 100)   # node exactly at x=0.75
        fields = S.seird_initial_conditions(mesh)
        j = int(np.argmin(np.abs(mesh.nodes[:, 0] - 0.75)))
        assert fields["e"].values[j] == pytest.approx(1 / 20, rel=1e-12)

    def test_susceptible_formula_at_035(self):
        mesh = M.build_interval_mesh(0, 1, 2000)
        s = S.seird_initial_conditions(mesh)["s"].values
        x = mesh.nodes[:, 0]
        j35 = int(np.argmin(np.abs(x - 0.35)))
        # direct evaluation of the initial-condition formula at x = 0.35;
        # the bump term peaks there and contributes exactly 1
        expect = (np.exp(-(1.35 ** 4)) + 1.0
                  + (np.exp(-(0.27 ** 4) / 1e-5) + np.exp(-(0.17 ** 4) / 1e-5)
                     + np.exp(-(0.07 ** 4) / 1e-5)) / 8
                  + np.exp(-(0.385 ** 4) / 1e-5) / 4)
        assert s[j35] == pytest.approx(expect, rel=1e-12)

    def test_other_compartments_zero(self):
        mesh = M.build_interval_mesh(0, 1, 50)
        fields = S.seird_initial_conditions(mesh)
        for c in ("i", "r", "d", "c"):
            np.testing.assert_array_equal(fields[c].values, 0.0)

    def test_requires_1d(self):
        sq = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        with pytest.raises(InvalidArgumentError):
            S.seird_initial_conditions(sq)


class TestStep:
    def test_zero_state_is_fixed_point(self):
        mesh = M.build_interval_mesh(0, 1, 20)
        st = S.SeirdState(mesh, {c: np.zeros(mesh.n_nodes) for c in S.COMPARTMENTS},
                          None, 0.0, 0)
        out = S.step(st, S.SeirdParams(t_end=1.0))
        for c in S.COMPARTMENTS:
            np.testing.assert_allclose(out.fields[c], 0.0, atol=1e-14)

    def test_no_dynamics_keeps_state(self):
        mesh = M.build_interval_mesh(0, 1, 20)
        params = S.SeirdParams(beta_i=0, beta_e=0, alpha=0, gamma_e=0,
                               gamma_i=0, delta=0, nu_s=0, nu_e=0, nu_i=0,
                               nu_r=0, t_end=1.0)
        st = fresh_state(mesh)
        out = S.step(st, params, dirichlet_right=False)
        out = S.step(out, params, dirichlet_right=False)
        for c in S.COMPARTMENTS:
            np.testing.assert_allclose(out.fields[c], st.fields[c], atol=1e-12)

    def test_pure_diffusion_matches_separation_of_variables(self):
        # s = 1 + eps*cos(pi x), both ends Neumann: the lowest mode decays
        # at rate nu * s_mean * pi^2 once the porous term is linearized.
        nu = 0.1
        eps = 0.002
        dt = 0.0125
        n_steps = 40
        mesh = M.build_interval_mesh(0, 1, 50)
        x = mesh.nodes[:, 0]
        fields = {c: np.zeros(mesh.n_nodes) for c in S.COMPARTMENTS}
        fields["s"] = 1.0 + eps * np.cos(np.pi * x)
        params = S.SeirdParams(beta_i=0, beta_e=0, alpha=0, gamma_e=0,
                               gamma_i=0, delta=0, nu_s=nu, nu_e=0, nu_i=0,
                               nu_r=0, dt=dt, dt_o=dt, t_end=1.0)
        st = S.SeirdState(mesh, fields, None, 0.0, 0)
        j0 = int(np.argmin(x))
        j1 = int(np.argmax(x))
        a0 = 0.5 * (st.fields["s"][j0] - st.fields["s"][j1])
        for _ in range(n_steps):
            st = S.step(st, params, dirichlet_right=False)
        a1 = 0.5 * (st.fields["s"][j0] - st.fields["s"][j1])
        expected = np.exp(-nu * np.pi ** 2 * n_steps * dt)
        assert a1 / a0 == pytest.approx(expected, rel=0.01)

    def test_full_physics_matches_stiff_ode_oracle(self):
        # same Galerkin semidiscretization, independent time integration:
        # scipy BDF at tight tolerance on the nodal ODE system
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        from scipy.integrate import solve_ivp

        mesh = M.build_interval_mesh(0, 1, 60)
        n = mesh.n_nodes
        params = S.SeirdParams(dt=0.025, dt_o=0.025, t_end=0.5)
        init = S.seird_initial_conditions(mesh)
        names = S.COMPARTMENTS
        Mmat = fem.assemble_mass(mesh).matrix
        Mlu = spla.splu(sp.csc_matrix(Mmat))

        def stiffness(coef):
            r, c_, v = S._stiffness_coo(mesh, coef)
            return sp.coo_matrix((v, (r, c_)), shape=(n, n)).tocsr()

        def rhs(t, y):
            u = {c: y[k * n:(k + 1) * n] for k, c in enumerate(names)}
            npop = u["s"] + u["e"] + u["i"] + u["r"]
            sigma = np.ones(n)
            load_si = S._product_load(mesh, [params.beta_i * sigma, u["s"], u["i"]])
            load_se = S._product_load(mesh, [params.beta_e * sigma, u["s"], u["e"]])
            out = {
                "s": -stiffness(params.nu_s * npop) @ u["s"] - load_si - load_se,
                "e": (-stiffness(params.nu_e * npop) @ u["e"] + load_si + load_se
                      - (params.alpha + params.gamma_e) * (Mmat @ u["e"])),
                "i": (-stiffness(params.nu_i * npop) @ u["i"]
                      + params.alpha * (Mmat @ u["e"])
                      - (params.gamma_i + params.delta) * (Mmat @ u["i"])),
                "r": (-stiffness(params.nu_r * npop) @ u["r"]
                      + params.gamma_e * (Mmat @ u["e"])
                      + params.gamma_i * (Mmat @ u["i"])),
                "d": params.delta * (Mmat @ u["i"]),
                "c": params.alpha * (Mmat @ u["e"]),
            }
            return np.concatenate([Mlu.solve(out[c]) for c in names])

        y0 = np.concatenate([init[c].values for c in names])
        sol = solve_ivp(rhs, [0, params.t_end], y0, method="BDF",
                        rtol=1e-10, atol=1e-12)
        st = S.SeirdState(mesh, {c: init[c].values.copy() for c in names},
                          None, 0.0, 0)
        for _ in range(params.n_steps):
            st = S.step(st, params, dirichlet_right=False)
        for k, c in enumerate(names):
            ref = sol.y[k * n:(k + 1) * n, -1]
            diff = np.max(np.abs(st.fields[c] - ref))
            # truncation of the second-order stepper at this dt, with an
            # absolute floor for compartments still near zero; structural
            # mistakes (wrong sign or coupling) show up orders larger
            assert diff <= 5e-4 * np.max(np.abs(ref)) + 1e-8, f"{c}: {diff:.3e}"

    def test_living_population_conserved_without_mortality(self):
        mesh = M.build_interval_mesh(0, 1, 60)
        params = S.SeirdParams(delta=0.0, t_end=5.0)
        st = fresh_state(mesh)
        M_mass = fem.assemble_mass(mesh)

        def living(state):
            total = sum(state.fields[c] for c in ("s", "e", "i", "r"))
            return float(np.ones(mesh.n_nodes) @ M_mass.dot(total))

        p0 = living(st)
        for k in range(20):
            st = S.step(st, params, dirichlet_right=False)
            assert living(st) == pytest.approx(p0, abs=1e-6 * (k + 1) * p0)


class TestAmrLoop:
    def test_disabled_amr_matches_fixed_mesh_bitwise(self):
        params = S.SeirdParams(t_end=2.0)
        policy = S.AmrPolicy(remesh_every=10 ** 9, initial_uniform_levels=1,
                             max_level=1)
        res = S.run_seird_amr(params, policy, n_base_elements=20)
        base = M.build_interval_mesh(0, 1, 20)
        init_mesh = M.uniform_refine(base, 1)
        st = fresh_state(init_mesh)
        for _ in range(params.n_steps):
            st = S.step(st, params)
        final = res.adaptive[-1][1]
        for c in S.COMPARTMENTS:
            assert np.array_equal(final[c], st.fields[c])

    def test_levels_capped_and_min_element_size(self):
        params = S.SeirdParams(t_end=3.0)
        policy = S.AmrPolicy()
        res = S.run_seird_amr(params, policy)
        for mesh, _ in res.adaptive:
            assert mesh.level.max() <= policy.max_level
            assert mesh.element_measures().min() >= 0.002 - 1e-12
        sizes = {mesh.n_elems for mesh, _ in res.adaptive}
        assert max(sizes) <= 500

    def test_snapshot_count_and_times(self):
        params = S.SeirdParams(t_end=2.0)
        res = S.run_seird_amr(params, S.AmrPolicy(), n_base_elements=10)
        assert len(res.times) == 9            # t = 0, 0.25, ..., 2.0
        assert res.float_times[0] == 0.0
        assert res.float_times[-1] == 2.0

    def test_population_stays_near_one(self):
        params = S.SeirdParams(t_end=2.0)
        res = S.run_seird_amr(params, S.AmrPolicy(), n_base_elements=25)
        for series in (res.population_adaptive, res.population_projected):
            assert series.values.min() >= 0.999
            assert series.values.max() <= 1.001

    def test_projection_residuals_small(self):
        params = S.SeirdParams(t_end=1.0)
        res = S.run_seird_amr(params, S.AmrPolicy(), n_base_elements=10)
        assert max(res.projection_residuals) <= 1e-10


class TestIndicatorDemoPieces:
    def test_transition_crossing_rule_initial_mesh(self):
        mesh = M.build_structured_triangle_mesh([-1, 1], [-1, 1], 10, 10)
        flagged = S.transition_crossing_elements(mesh)
        assert len(flagged) == 24    # 20 band elements + 4 corner extras

    def test_refine_one_level_splits_into_four(self):
        mesh = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        out = S.refine_elements_one_level(mesh, {0})
        # flagged element -> 4 grandchildren; closure may add more splits
        assert out.n_elems >= mesh.n_elems + 3
        assert out.total_measure() == pytest.approx(1.0, rel=1e-12)

    def test_donor_counts(self):
        donor, chi = S.build_demo_donor()
        assert donor.n_elems == 1672
        assert donor.n_nodes == 857
        assert fem.inf_norm(chi) == pytest.approx(1.0, abs=1e-12)

    def test_jittered_mesh_is_valid_and_deterministic(self):
        a = S.build_jittered_mesh()
        b = S.build_jittered_mesh()
        assert np.array_equal(a.nodes, b.nodes)
        assert a.element_measures().min() > 0


class TestSynthSeries:
    def test_unit_eigenvalue_gives_constant_series(self):
        Y = S.synth_linear_series([1.0], n=4, m=6, seed=0)
        expect = np.tile(Y.data[:, :1], (1, 7))
        np.testing.assert_allclose(Y.data, expect, atol=1e-12)

    def test_scalar_geometric_decay(self):
        Y = S.synth_linear_series([0.5], n=1, m=5, seed=1)
        ratios = Y.data[0, 1:] / Y.data[0, :-1]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-12)

    def test_characteristic_polynomial_annihilates_series(self):
        lam = [0.9 * np.exp(0.3j), 0.9 * np.exp(-0.3j), 0.7]
        Y = S.synth_linear_series(lam, n=6, m=20, seed=3)
        coeffs = np.poly(lam)               # real for conjugate-closed sets
        assert np.max(np.abs(coeffs.imag)) < 1e-12
        c = coeffs.real
        deg = len(c) - 1
        for k in range(Y.data.shape[1] - deg):
            acc = sum(c[j] * Y.data[:, k + deg - j] for j in range(deg + 1))
            assert np.max(np.abs(acc)) <= 1e-10

    def test_oscillation_period_via_zero_crossings(self):
        lam = [0.9 * np.exp(0.3j), 0.9 * np.exp(-0.3j)]
        Y = S.synth_linear_series(lam, n=3, m=80, seed=5)
        comp = Y.data[0] / (0.9 ** np.arange(81))   # undo the decay
        crossings = int(np.sum(np.abs(np.diff(np.sign(comp))) > 1))
        period = 2 * np.pi / 0.3
        expected = int(2 * 80 / period)
        assert abs(crossings - expected) <= 1

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(InvalidArgumentError):
            S.synth_linear_series([0.5, 0.5], n=4, m=5, seed=0)

    def test_missing_conjugate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            S.synth_linear_series([0.5 + 0.2j], n=4, m=5, seed=0)

    def test_size_guards(self):
        with pytest.raises(InvalidArgumentError):
            S.synth_linear_series([0.5, 0.4, 0.3], n=4, m=2, seed=0)
        with pytest.raises(InvalidArgumentError):
            S.synth_linear_series([0.5, 0.4, 0.3], n=2, m=5, seed=0)

    def test_deterministic_per_seed(self):
        a = S.synth_linear_series([0.8, 0.6], n=5, m=7, seed=9)
        b = S.synth_linear_series([0.8, 0.6], n=5, m=7, seed=9)
        assert np.array_equal(a.data, b.data)
