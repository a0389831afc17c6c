import numpy as np
import pytest

from amrdmd import mesh as M, qoi_metrics as Q
from amrdmd.errors import InvalidArgumentError


class TestTotalPopulation:
    def test_constant_compartments_sum_to_one(self):
        m = M.build_interval_mesh(0, 1, 10)
        n = m.n_nodes
        fields = {"s": np.full(n, 0.6), "e": np.full(n, 0.1), "i": np.full(n, 0.1),
                  "r": np.full(n, 0.1), "d": np.full(n, 0.1)}
        assert Q.total_population(m, fields) == pytest.approx(1.0, abs=1e-12)

    def test_missing_compartment_rejected(self):
        m = M.build_interval_mesh(0, 1, 4)
        with pytest.raises(InvalidArgumentError):
            Q.total_population(m, {"s": np.ones(m.n_nodes)})

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
        assert Q.total_population(m, snapshots[0][2]) == pytest.approx(2.0, rel=1e-12)

    def test_invariant_under_projection(self, rng):
        from amrdmd import l2projection as L2
        donor = M.build_interval_mesh(0, 1, 9)
        target = M.build_interval_mesh(0, 1, 14)
        op = L2.build_projection(donor, target)
        vals = {c: np.abs(rng.normal(size=donor.n_nodes)) + 0.5
                for c in ("s", "e", "i", "r", "d")}
        proj_vals = {c: L2.project(op, vals[c]) for c in vals}
        p0 = Q.total_population(donor, vals)
        p1 = Q.total_population(target, proj_vals)
        assert p1 == pytest.approx(p0, rel=1e-8)


class TestCsv:
    def test_header_and_precision(self, tmp_path):
        series = Q.QoiSeries(times=[0.0, 0.25], values=[1.0, 1 / 3])
        path = tmp_path / "q.csv"
        Q.save_qoi_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,value"
        assert lines[2].startswith("0.25,0.333333333333333")
