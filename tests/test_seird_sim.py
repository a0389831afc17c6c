import gc
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import dmd, fem, l2projection, mesh as M, qoi_metrics, seird_sim as S
from amrdmd.errors import InvalidArgumentError

from conftest import (composite_integral_1d, coo_p1_operator, element_keys,
                      element_rows, gauss_product_load, loop_refine,
                      node_order_step, p1_tridiagonal, piecewise_linear_1d,
                      random_refined_interval, spd_matrix, synth_linear_series)


def fresh_state(mesh):
    return S.SeirdState(mesh=mesh, fields=S.seird_initial_conditions(mesh),
                        prev_fields=None, time=Fraction(0))


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

    def test_multiples_of_dt_are_exact(self):
        with pytest.raises(InvalidArgumentError, match="t_end must be an integer"):
            S.SeirdParams(dt=0.1, dt_o=0.1, t_end=0.30000000001)
        params = S.SeirdParams(dt=0.1, dt_o=0.2, t_end=0.6)
        assert (params.n_steps, params.output_every) == (6, 2)
        times = [t for t, _, _ in S.run_seird_amr(params, S.AmrPolicy(),
                                                  n_base_elements=8)]
        assert times == [Fraction(k, 5) for k in range(4)]

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
        assert fields["e"][j] == pytest.approx(1 / 20, rel=1e-12)

    def test_susceptible_formula_at_035(self):
        mesh = M.build_interval_mesh(0, 1, 2000)
        s = S.seird_initial_conditions(mesh)["s"]
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
            np.testing.assert_array_equal(fields[c], 0.0)

    def test_requires_1d(self):
        sq = M.build_structured_triangle_mesh([0, 1], [0, 1], 2, 2)
        with pytest.raises(InvalidArgumentError):
            S.seird_initial_conditions(sq)


def band_operator(mesh, kappa, react, bc):
    """S._operator on the band layout of mesh, from and to node order."""
    layout = M.band_layout(mesh)
    o = layout.order
    pin = None if bc is None else int(np.flatnonzero(o == bc)[0])
    A = S._operator(layout.h, kappa[o], react[o], pin)
    return fem.SparseSpd(bands=(o, A.diag, A.off))


def band_product_load(mesh, factors):
    """S._product_load on the band layout of mesh, from and to node order."""
    layout = M.band_layout(mesh)
    out = np.empty(mesh.n_nodes)
    out[layout.order] = S._product_load(layout.h, [f[layout.order] for f in factors])
    return out


def p1_slope_1d(mesh, values):
    """Callable evaluating the piecewise-constant derivative of the P1
    interpolant (away from the nodes)."""
    order = np.argsort(mesh.nodes[:, 0])
    xs = mesh.nodes[order, 0]
    slopes = np.diff(values[order]) / np.diff(xs)

    def f(x):
        return slopes[np.clip(np.searchsorted(xs, x) - 1, 0, slopes.size - 1)]

    return f


class TestProductLoad:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_matches_gauss(self, seed):
        # three random P1 factors on a graded chain, the first beta times an
        # Allee-style sigma = 1 - A_e / N that varies over the mesh
        r = np.random.default_rng(seed)
        mesh = random_refined_interval(r, int(r.integers(1, 9)), int(r.integers(0, 5)))
        layout = M.band_layout(mesh)
        s, i, rest = r.uniform(0, 1, size=(3, mesh.n_nodes))[:, layout.order]
        sigma = 1.0 - r.uniform(0, 2) / np.maximum(s + i + rest, 1e-12)
        factors = (r.uniform(0.1, 2) * sigma, s, i)
        load = S._product_load(layout.h, factors)
        # the rule's own rounding reaches 1e-15 of the max (measured against
        # exact rational arithmetic), so the bound leaves room for it
        assert np.max(np.abs(load - gauss_product_load(layout.h, factors))) \
            <= 2e-15 * np.max(np.abs(load))


class TestOperator:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_bilinear_form_matches_quadrature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mesh = random_refined_interval(rng)
        n = mesh.n_nodes
        kappa = rng.uniform(0.0, 2.0, n)
        react = rng.uniform(0.0, 3.0, n)
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        A = spd_matrix(band_operator(mesh, kappa, react, None))
        k, r = piecewise_linear_1d(mesh, kappa), piecewise_linear_1d(mesh, react)
        uf, vf = piecewise_linear_1d(mesh, u), piecewise_linear_1d(mesh, v)
        du, dv = p1_slope_1d(mesh, u), p1_slope_1d(mesh, v)
        ref = composite_integral_1d(
            lambda x: k(x) * du(x) * dv(x) + r(x) * uf(x) * vf(x), 0, 1)
        # no cancellation in the scale: each term by its magnitude
        scale = composite_integral_1d(
            lambda x: k(x) * np.abs(du(x) * dv(x)) + r(x) * np.abs(uf(x) * vf(x)),
            0, 1)
        assert abs(u @ A @ v - ref) <= 1e-6 * scale

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), pinned=st.booleans())
    def test_band_form_matches_coo_assembly_bitwise(self, seed, pinned):
        rng = np.random.default_rng(seed)
        mesh = random_refined_interval(rng)
        n = mesh.n_nodes
        kappa = rng.uniform(0.0, 2.0, n)
        react = rng.uniform(0.0, 3.0, n)
        bc = int(rng.integers(n)) if pinned else None
        A = band_operator(mesh, kappa, react, bc)
        ref = coo_p1_operator(mesh, kappa, react, bc)
        assert np.array_equal(spd_matrix(A).toarray(), ref.toarray())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(1e-3, 1e3))
    def test_constant_reaction_is_scaled_mass(self, seed, c):
        rng = np.random.default_rng(seed)
        mesh = random_refined_interval(rng)
        n = mesh.n_nodes
        A = spd_matrix(band_operator(mesh, np.zeros(n), c * np.ones(n),
                                   None)).toarray()
        B = c * spd_matrix(fem.assemble_mass(mesh)).toarray()
        assert np.max(np.abs(A - B)) <= 1e-15 * np.max(np.abs(B))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_dirichlet_row_and_column_are_identity(self, seed):
        rng = np.random.default_rng(seed)
        mesh = random_refined_interval(rng)
        n = mesh.n_nodes
        bc = int(rng.integers(n))
        A = spd_matrix(band_operator(mesh, rng.uniform(0.0, 2.0, n),
                                     rng.uniform(0.0, 3.0, n), bc)).toarray()
        e = np.zeros(n)
        e[bc] = 1.0
        assert np.array_equal(A[bc], e) and np.array_equal(A[:, bc], e)


class TestStep:
    def test_zero_state_is_fixed_point(self):
        mesh = M.build_interval_mesh(0, 1, 20)
        st = S.SeirdState(mesh, {c: np.zeros(mesh.n_nodes) for c in S.COMPARTMENTS},
                          None, Fraction(0))
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
        st = S.SeirdState(mesh, fields, None, Fraction(0))
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
        Mmat = spd_matrix(fem.assemble_mass(mesh))
        Mlu = spla.splu(sp.csc_matrix(Mmat))

        def stiffness(coef):
            return spd_matrix(band_operator(mesh, coef, np.zeros(n), None))

        def rhs(t, y):
            u = {c: y[k * n:(k + 1) * n] for k, c in enumerate(names)}
            npop = u["s"] + u["e"] + u["i"] + u["r"]
            sigma = np.ones(n)
            load_si = band_product_load(mesh, [params.beta_i * sigma, u["s"], u["i"]])
            load_se = band_product_load(mesh, [params.beta_e * sigma, u["s"], u["e"]])
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

        y0 = np.concatenate([init[c] for c in names])
        sol = solve_ivp(rhs, [0, params.t_end], y0, method="BDF",
                        rtol=1e-10, atol=1e-12)
        st = S.SeirdState(mesh, {c: init[c].copy() for c in names},
                          None, Fraction(0))
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


def renumbered(state, rng):
    """The state on a copy of its mesh whose node ids and element order are
    randomly permuted."""
    mesh = state.mesh
    perm = rng.permutation(mesh.n_nodes)            # new node id -> old id
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(mesh.n_nodes)
    elements = new_id[mesh.elements][rng.permutation(mesh.n_elems)]
    shuffled = M.SimplicialMesh(dim=1, nodes=mesh.nodes[perm], elements=elements)
    return S.SeirdState(shuffled, {c: v[perm] for c, v in state.fields.items()},
                        None, state.time)


def mesh_digest(meshes):
    h = hashlib.sha256()
    for m in meshes:
        for a in (m.nodes, m.elements, m.level):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def geometry_digest(meshes):
    """sha256 of every mesh's element_rows, as floats."""
    h = hashlib.sha256()
    for m in meshes:
        rows = element_rows(m.nodes, m.elements, element_keys(m))
        h.update(np.array([c + k for c, k in rows], dtype=float).tobytes())
    return h.hexdigest()


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBandLayoutStep:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), remeshed=st.booleans(),
           dirichlet_right=st.booleans(), allee=st.booleans())
    def test_bit_identical_to_node_order_step(self, seed, remeshed,
                                              dirichlet_right, allee):
        rng = np.random.default_rng(seed)
        mesh = M.build_interval_mesh(0, 1, int(rng.integers(4, 40)))
        state = fresh_state(mesh)
        if remeshed:
            fine = fresh_state(M.uniform_refine(mesh, 1))
            state = S.remesh_state(fine, S.AmrPolicy())
            assert state.mesh is not fine.mesh
        state = renumbered(state, rng)
        params = S.SeirdParams(A_e=1e-9 if allee else 0.0)
        new = old = state
        for _ in range(2):          # a first BDF1 step, then a BDF2 step
            new = S.step(new, params, dirichlet_right)
            old = node_order_step(old, params, dirichlet_right)
            for c in S.COMPARTMENTS:
                assert same_bits(new.fields[c], old.fields[c]), c
                assert same_bits(new.prev_fields[c], old.prev_fields[c]), c
            assert new.time == old.time

    def test_layout_computed_once_per_mesh(self, monkeypatch):
        built = []
        plain = M.BandLayout

        def counted(*fields):
            built.append(fields)
            return plain(*fields)

        monkeypatch.setattr(M, "BandLayout", counted)
        params = S.SeirdParams(t_end=3.0)
        snapshots = list(S.run_seird_amr(params, S.AmrPolicy(), n_base_elements=10))
        meshes = {id(m): m for _, m, _ in snapshots}
        assert len(meshes) >= 2                 # the run did remesh
        assert len(built) == len(meshes)
        for m in meshes.values():
            assert M.band_layout(m) is M.band_layout(m)

    def test_one_locator_and_one_band_layout_alive_after_a_run(self):
        # each is held for the mesh used last only, not by every mesh kept
        policy = S.AmrPolicy(max_level=4, initial_uniform_levels=1)
        snapshots = list(S.run_seird_amr(S.SeirdParams(t_end=3.0), policy,
                                         n_base_elements=10))
        assert len({id(m) for _, m, _ in snapshots}) >= 4   # 3 remeshes or more
        gc.collect()
        alive = gc.get_objects()
        assert sum(isinstance(o, M._Locator) for o in alive) <= 1
        assert sum(isinstance(o, M.BandLayout) for o in alive) <= 1

    @pytest.mark.parametrize("nodes, elements, match", [
        ([0.0, 0.25, 0.5, 1.0], [[0, 1], [2, 3]], "one chain"),       # gap
        ([0.0, 0.5, 1.0], [[0, 1], [2, 1]],                           # misoriented
         "element 1 has non-positive measure"),
        ([0.0, 0.5, 0.5, 1.0], [[0, 1], [1, 2], [2, 3]],               # duplicate
         "element 1 has non-positive measure"),
    ], ids=["gap", "misoriented", "duplicate_node"])
    def test_bad_chain_raises(self, nodes, elements, match):
        # a gapped mesh is made and refused by the step, the others when made
        with pytest.raises(InvalidArgumentError, match=match):
            mesh = M.SimplicialMesh(dim=1, nodes=nodes, elements=elements)
            state = S.SeirdState(mesh, {c: np.zeros(mesh.n_nodes)
                                        for c in S.COMPARTMENTS}, None, Fraction(0))
            S.step(state, S.SeirdParams())

    def test_gap_keeps_a_block_diagonal_mass(self):
        mesh = M.SimplicialMesh(dim=1, nodes=[0.0, 0.25, 0.5, 1.0],
                                elements=[[2, 3], [0, 1]])
        h = mesh.element_measures()
        ref = spd_matrix(p1_tridiagonal(mesh, h * (2.0 / 6.0), h * (2.0 / 6.0),
                                        h * (1.0 / 6.0))).toarray()
        A = spd_matrix(fem.assemble_mass(mesh)).toarray()
        assert same_bits(A, ref)
        assert A[1, 2] == A[2, 1] == 0.0


class TestAmrLoop:
    def test_disabled_amr_matches_fixed_mesh_bitwise(self):
        params = S.SeirdParams(t_end=2.0)
        policy = S.AmrPolicy(remesh_every=10 ** 9, initial_uniform_levels=1,
                             max_level=1)
        snapshots = list(S.run_seird_amr(params, policy, n_base_elements=20))
        base = M.build_interval_mesh(0, 1, 20)
        init_mesh = M.uniform_refine(base, 1)
        st = fresh_state(init_mesh)
        for _ in range(params.n_steps):
            st = S.step(st, params)
        final = snapshots[-1][2]
        for c in S.COMPARTMENTS:
            assert np.array_equal(final[c], st.fields[c])

    @pytest.mark.parametrize("with_prev", [False, True])
    def test_remesh_moves_every_field_as_per_field_interpolation(self, rng,
                                                                 with_prev):
        m = M.build_interval_mesh(0, 1, 12)
        fields = {c: rng.normal(size=m.n_nodes) for c in S.COMPARTMENTS}
        prev = ({c: rng.normal(size=m.n_nodes) for c in S.COMPARTMENTS}
                if with_prev else None)
        state = S.SeirdState(m, fields, prev, Fraction(1, 2))
        moved = S.remesh_state(state, S.AmrPolicy(refine_fraction=0.5,
                                                  coarsen_fraction=0.0))
        assert moved.mesh is not m and moved.time == Fraction(1, 2)
        assert (moved.prev_fields is None) == (prev is None)
        for old, new in ((fields, moved.fields), (prev, moved.prev_fields)):
            for c, values in (old or {}).items():
                expect = fem.evaluate_many(m, values, moved.mesh.nodes)
                assert new[c].tobytes() == expect.tobytes(), c

    def test_levels_capped_and_min_element_size(self):
        params = S.SeirdParams(t_end=3.0)
        policy = S.AmrPolicy()
        snapshots = list(S.run_seird_amr(params, policy))
        for _, mesh, _ in snapshots:
            assert mesh.level.max() <= policy.max_level
            assert mesh.element_measures().min() >= 0.002 - 1e-12
        sizes = {mesh.n_elems for _, mesh, _ in snapshots}
        assert max(sizes) <= 500

    def test_snapshot_count_and_times(self):
        params = S.SeirdParams(t_end=2.0)
        snapshots = list(S.run_seird_amr(params, S.AmrPolicy(), n_base_elements=10))
        float_times = [float(t) for t, _, _ in snapshots]
        assert len(snapshots) == 9            # t = 0, 0.25, ..., 2.0
        assert float_times[0] == 0.0
        assert float_times[-1] == 2.0

    def test_population_stays_near_one(self):
        params = S.SeirdParams(t_end=2.0)
        adaptive = list(S.run_seird_amr(params, S.AmrPolicy(),
                                        n_base_elements=25))
        reference = adaptive[0][1]
        projected = list(l2projection.project_snapshots(adaptive, reference))
        for snapshots in (adaptive, projected):
            series = qoi_metrics.population_series(
                map(qoi_metrics.population_term, snapshots))
            assert series.values.min() >= 0.999
            assert series.values.max() <= 1.001

    def test_projection_residuals_small(self):
        params = S.SeirdParams(t_end=1.0)
        adaptive = list(S.run_seird_amr(params, S.AmrPolicy(),
                                        n_base_elements=10))
        reference = adaptive[0][1]
        projected = l2projection.project_snapshots(adaptive, reference)
        for (_, donor, fields), (_, _, proj) in zip(adaptive, projected, strict=True):
            op = l2projection.build_projection(donor, reference)
            for name, values in fields.items():
                load = op.P.dot(values)
                residual = op.M.dot(proj[name]) - load
                assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(load)

    def test_meshes_of_a_small_run_are_pinned(self):
        """sha256 of the nodes, elements and levels of every mesh a small
        adaptive run visits (16 remeshes, refining and coarsening)."""
        params = S.SeirdParams(t_end=8.0)
        policy = S.AmrPolicy(remesh_every=2, refine_fraction=0.3,
                             coarsen_fraction=0.3, max_level=3,
                             initial_uniform_levels=1)
        snapshots = list(S.run_seird_amr(params, policy, n_base_elements=20))
        meshes = [snapshots[0][1]]
        for _, mesh, _ in snapshots[1:]:
            if mesh is not meshes[-1]:
                meshes.append(mesh)
        assert len(meshes) == 17
        assert mesh_digest(meshes) == (
            "1b25a87813428300c937a187c4a72d5a606c66ca91dc0c43571edbe92fc35693")

    def test_geometry_of_a_small_run_is_pinned(self):
        """The numbering-free digest of the meshes of the run above."""
        params = S.SeirdParams(t_end=8.0)
        policy = S.AmrPolicy(remesh_every=2, refine_fraction=0.3,
                             coarsen_fraction=0.3, max_level=3,
                             initial_uniform_levels=1)
        snapshots = list(S.run_seird_amr(params, policy, n_base_elements=20))
        meshes = list({id(m): m for _, m, _ in snapshots}.values())
        assert len(meshes) == 17
        assert geometry_digest(meshes) == (
            "227f841928f4989edd90590c972cdd2342ecc8ef2057f2f1c4f4fde74b1f1512")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_plan_is_the_ranking_and_refine_honours_what_it_can(self, seed):
        """Brute force: the plan flags the top refine_fraction and the
        bottom coarsen_fraction of the ranking as they are; refine bisects
        the refine flags below max_level and merges the coarsen flags whose
        sibling is flagged too, as the plain-loop reference does."""
        rng = np.random.default_rng(seed)
        m = random_refined_interval(rng, n_base=int(rng.integers(1, 10)),
                                    passes=3)
        for _ in range(2):      # random coarsening, then refinement again
            plan = S.build_amr_plan(
                S.SeirdState(m, {c: rng.normal(size=m.n_nodes)
                                 for c in S.COMPARTMENTS}, None, Fraction(0)),
                S.AmrPolicy(refine_fraction=rng.uniform(0, 0.3),
                            coarsen_fraction=rng.uniform(0, 0.7),
                            max_level=4))
            m = M.refine(m, plan)
        state = S.SeirdState(m, {c: rng.normal(size=m.n_nodes)
                                 for c in S.COMPARTMENTS}, None, Fraction(0))
        policy = S.AmrPolicy(refine_fraction=rng.uniform(0, 0.3),
                             coarsen_fraction=rng.uniform(0, 0.7),
                             max_level=int(rng.integers(0, 5)))
        plan = S.build_amr_plan(state, policy)
        score = sum(fem.flux_jump_indicator(m, state.fields[c])
                    for c in ("s", "e", "i"))
        n_ref = int(policy.refine_fraction * m.n_elems)
        n_coar = int(policy.coarsen_fraction * m.n_elems)
        order = sorted(range(m.n_elems), key=lambda e: (-score[e], e))
        pool = set(order[m.n_elems - n_coar:]) if n_coar else set()
        assert plan.refine == set(order[:n_ref])
        assert plan.coarsen == pool
        assert plan.max_level == policy.max_level
        keys = element_keys(m)
        coarsen = set()
        for e in pool:
            root, path = keys[e]
            sibs = [i for i, (r, p) in enumerate(keys)
                    if p > 1 and (r, p >> 1) == (root, path >> 1)]
            if len(sibs) == 2 and pool.issuperset(sibs):
                coarsen.add(e)
        refine = {e for e in plan.refine if m.level[e] < policy.max_level}
        nodes, elements, keys = loop_refine(m, M.RefinementPlan(
            refine=frozenset(refine), coarsen=frozenset(coarsen)))
        r = M.refine(m, plan)
        assert r.nodes.tolist() == nodes.tolist()
        assert r.elements.tolist() == elements.tolist()
        assert element_keys(r) == keys


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
        assert S.refine_elements_one_level(mesh, set()) is mesh

    def test_donor_counts(self):
        donor, chi = S.build_demo_donor()
        assert donor.n_elems == 1672
        assert donor.n_nodes == 857
        assert mesh_digest([donor]) == (
            "e3e7a09b555711e8bf6ea9aa19e8e0d7ddd171f69a577e95a3fdcc07d0b5fd05")
        assert geometry_digest([donor]) == (
            "ce1682b161197376d0e22f30082425e7ef2829b2793472edb6c76c4535e1f22f")
        assert fem.inf_norm(chi) == pytest.approx(1.0, abs=1e-12)

    def test_jittered_mesh_is_valid_and_deterministic(self):
        a = S.build_jittered_mesh()
        b = S.build_jittered_mesh()
        assert np.array_equal(a.nodes, b.nodes)
        assert a.element_measures().min() > 0
        # the jitter stream itself is pinned, not only its repeatability
        assert hashlib.sha256(a.nodes.tobytes()).hexdigest() == (
            "bdcd97e2fa6f62dd9a12c533ac155eee1d6a8ec5b57734af8a969de54fc132b5")


class TestSynthSeries:
    def test_unit_eigenvalue_gives_constant_series(self):
        Y = synth_linear_series([1.0], n=4, m=6, seed=0)
        expect = np.tile(Y.data[:, :1], (1, 7))
        np.testing.assert_allclose(Y.data, expect, atol=1e-12)

    def test_scalar_geometric_decay(self):
        Y = synth_linear_series([0.5], n=1, m=5, seed=1)
        ratios = Y.data[0, 1:] / Y.data[0, :-1]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-12)

    def test_characteristic_polynomial_annihilates_series(self):
        lam = [0.9 * np.exp(0.3j), 0.9 * np.exp(-0.3j), 0.7]
        Y = synth_linear_series(lam, n=6, m=20, seed=3)
        coeffs = np.poly(lam)               # real for conjugate-closed sets
        assert np.max(np.abs(coeffs.imag)) < 1e-12
        c = coeffs.real
        deg = len(c) - 1
        for k in range(Y.data.shape[1] - deg):
            acc = sum(c[j] * Y.data[:, k + deg - j] for j in range(deg + 1))
            assert np.max(np.abs(acc)) <= 1e-10

    def test_oscillation_period_via_zero_crossings(self):
        lam = [0.9 * np.exp(0.3j), 0.9 * np.exp(-0.3j)]
        Y = synth_linear_series(lam, n=3, m=80, seed=5)
        comp = Y.data[0] / (0.9 ** np.arange(81))   # undo the decay
        crossings = int(np.sum(np.abs(np.diff(np.sign(comp))) > 1))
        period = 2 * np.pi / 0.3
        expected = int(2 * 80 / period)
        assert abs(crossings - expected) <= 1

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(InvalidArgumentError):
            synth_linear_series([0.5, 0.5], n=4, m=5, seed=0)

    def test_missing_conjugate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            synth_linear_series([0.5 + 0.2j], n=4, m=5, seed=0)

    def test_size_guards(self):
        with pytest.raises(InvalidArgumentError):
            synth_linear_series([0.5, 0.4, 0.3], n=4, m=2, seed=0)
        with pytest.raises(InvalidArgumentError):
            synth_linear_series([0.5, 0.4, 0.3], n=2, m=5, seed=0)

    def test_deterministic_per_seed(self):
        a = synth_linear_series([0.8, 0.6], n=5, m=7, seed=9)
        b = synth_linear_series([0.8, 0.6], n=5, m=7, seed=9)
        assert np.array_equal(a.data, b.data)
