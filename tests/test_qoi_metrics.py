import numpy as np
import pytest

from amrdmd import fem, mesh as M, qoi_metrics as Q
from amrdmd.errors import InvalidArgumentError, UndefinedRegionError


def compartment_fields(mesh, values_by_name):
    return {name: fem.FeField(mesh, vals, name=name)
            for name, vals in values_by_name.items()}


class TestTotalPopulation:
    def test_constant_compartments_sum_to_one(self):
        m = M.build_interval_mesh(0, 1, 10)
        n = m.n_nodes
        fields = compartment_fields(m, {
            "s": np.full(n, 0.6), "e": np.full(n, 0.1), "i": np.full(n, 0.1),
            "r": np.full(n, 0.1), "d": np.full(n, 0.1)})
        assert Q.total_population(fields) == pytest.approx(1.0, abs=1e-12)

    def test_missing_compartment_rejected(self):
        m = M.build_interval_mesh(0, 1, 4)
        fields = compartment_fields(m, {"s": np.ones(m.n_nodes)})
        with pytest.raises(InvalidArgumentError):
            Q.total_population(fields)

    def test_series_normalized_to_first(self, rng):
        m = M.build_interval_mesh(0, 1, 8)
        n = m.n_nodes
        snapshots = []
        for k in range(4):
            scale = 2.0 + 0.1 * k
            snapshots.append((float(k), m, {
                c: np.full(n, scale / 5) for c in ("s", "e", "i", "r", "d")}))
        series = Q.population_series(snapshots)
        assert series.values[0] == 1.0
        assert series.values[1] == pytest.approx(2.1 / 2.0, rel=1e-12)
        assert series.normalization == pytest.approx(2.0, rel=1e-12)

    def test_invariant_under_projection(self, rng):
        from amrdmd import l2projection as L2
        donor = M.build_interval_mesh(0, 1, 9)
        target = M.build_interval_mesh(0, 1, 14)
        op = L2.build_projection(donor, target)
        vals = {c: np.abs(rng.normal(size=donor.n_nodes)) + 0.5
                for c in ("s", "e", "i", "r", "d")}
        donor_fields = compartment_fields(donor, vals)
        proj_fields = {c: L2.project(op, donor_fields[c])
                       for c in donor_fields}
        p0 = Q.total_population(donor_fields)
        p1 = Q.total_population(proj_fields)
        assert p1 == pytest.approx(p0, rel=1e-8)


class TestFrontPosition:
    def test_indicator_front_1d(self):
        m = M.build_interval_mesh(0, 18, 180)
        x = m.nodes[:, 0]
        f = fem.FeField(m, (x <= 1.0).astype(float))
        # linear drop from 1 at x=1.0 to 0 at x=1.1; crosses 0.5 at 1.05
        assert Q.front_position(f, 0.5) == pytest.approx(1.05, abs=1e-12)

    def test_front_exactly_at_region_edge(self):
        # field built so the threshold is met exactly at x = 1.0
        m = M.build_interval_mesh(0, 18, 180)
        x = m.nodes[:, 0]
        vals = np.where(x < 1.0, 1.0, 0.0)
        vals[np.isclose(x, 1.0)] = 0.5
        f = fem.FeField(m, vals)
        assert Q.front_position(f, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_all_below_threshold_returns_domain_min(self):
        m = M.build_interval_mesh(2, 5, 10)
        f = fem.FeField(m, np.zeros(m.n_nodes))
        assert Q.front_position(f, 0.5) == pytest.approx(2.0)

    def test_against_dense_sampling_oracle(self, rng):
        m = M.build_interval_mesh(0, 1, 25)
        vals = rng.normal(size=m.n_nodes)
        f = fem.FeField(m, vals)
        thr = float(np.percentile(vals, 60))
        got = Q.front_position(f, thr)
        xs = np.linspace(0, 1, 10_000)
        dense = fem.evaluate_many(f, xs.reshape(-1, 1))
        oracle = xs[dense >= thr].max() if (dense >= thr).any() else 0.0
        h = 1 / 25
        assert abs(got - oracle) <= h / 100

    def test_monotone_under_increasing_perturbation(self, rng):
        m = M.build_interval_mesh(0, 1, 30)
        base = np.exp(-((m.nodes[:, 0] - 0.4) ** 2) / 0.01)
        f0 = Q.front_position(fem.FeField(m, base), 0.5)
        for _ in range(5):
            bump = np.abs(rng.normal(size=m.n_nodes)) * 0.05
            f1 = Q.front_position(fem.FeField(m, base + bump), 0.5)
            assert f1 >= f0 - 1e-12

    def test_2d_axis_selection(self):
        m = M.build_structured_triangle_mesh([0, 2], [0, 1], 8, 4)
        f = fem.FeField(m, (m.nodes[:, 0] <= 0.5).astype(float))
        fx = Q.front_position(f, 0.5, axis=0)
        assert 0.5 < fx < 0.8
        fy = Q.front_position(f, 0.5, axis=1)
        assert fy == pytest.approx(1.0)   # the region spans all y


class TestCenterOfMass:
    def test_symmetric_bump_1d(self):
        m = M.build_interval_mesh(0, 1, 50)
        x = m.nodes[:, 0]
        f = fem.FeField(m, np.exp(-((x - 0.5) ** 2) / 0.01))
        com = Q.region_center_of_mass(f, 0.4)
        assert com[0] == pytest.approx(0.5, abs=1e-10)

    def test_uniform_field_gives_domain_centroid(self):
        m = M.build_structured_triangle_mesh([0, 2], [0, 4], 3, 5)
        f = fem.FeField(m, np.ones(m.n_nodes))
        com = Q.region_center_of_mass(f, 0.5)
        np.testing.assert_allclose(com, [1.0, 2.0], atol=1e-12)

    def test_empty_region_raises(self):
        m = M.build_interval_mesh(0, 1, 5)
        f = fem.FeField(m, np.zeros(m.n_nodes))
        with pytest.raises(UndefinedRegionError):
            Q.region_center_of_mass(f, 0.5)

    def test_against_monte_carlo_oracle(self, rng):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 6, 6)
        vals = rng.normal(size=m.n_nodes)
        f = fem.FeField(m, vals)
        thr = float(np.percentile(vals, 40))
        com = Q.region_center_of_mass(f, thr)
        pts = rng.uniform(0, 1, size=(1_000_000, 2))
        dense = fem.evaluate_many(f, pts)
        inside = pts[dense >= thr]
        oracle = inside.mean(axis=0)
        np.testing.assert_allclose(com, oracle, atol=1e-3 * 3)

    def test_half_plane_cut_exact(self):
        m = M.build_structured_triangle_mesh([0, 1], [0, 1], 4, 4)
        f = fem.FeField(m, m.nodes[:, 0])          # u = x
        com = Q.region_center_of_mass(f, 0.5)      # region x >= 0.5
        np.testing.assert_allclose(com, [0.75, 0.5], atol=1e-12)


class TestCsv:
    def test_header_and_precision(self, tmp_path):
        series = Q.QoiSeries(times=[0.0, 0.25], values=[1.0, 1 / 3],
                             kind="total_population")
        path = tmp_path / "q.csv"
        Q.save_qoi_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,value"
        assert lines[2].startswith("0.25,0.333333333333333")
