from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amrdmd import fem, mesh as M, qoi_metrics as Q
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
        series = Q.population_series(map(Q.population_term, snapshots))
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


def two_pass_population(snapshots):
    """The series integrated in units of its largest |value|, found first."""
    top = max(fem.inf_norm(fields[c]) for _, _, fields in snapshots
              for c in Q.COMPARTMENTS)
    scale = fem.unit_scale(top)
    values = np.array([Q.total_population(m, {c: scale * v for c, v in fields.items()})
                       for _, m, fields in snapshots])
    return values / values[0]


class TestPopulationSeries:
    @settings(max_examples=60, deadline=None)
    @given(n_elems=st.integers(1, 8),
           exponents=st.lists(st.integers(-400, 400), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(n_elems=3, exponents=[-400, 400, 0], seed=0)
    @example(n_elems=1, exponents=[400, -400], seed=1)
    def test_one_pass_is_the_two_pass_formula_bit_for_bit(self, n_elems, exponents, seed):
        # snapshot maxima 2**-430..2**400 apart: no scaled product is subnormal
        rng = np.random.default_rng(seed)
        meshes = [M.build_interval_mesh(0, 1, n_elems),
                  M.build_interval_mesh(-1, 2, n_elems + 3)]
        snapshots = [(Fraction(k, 4), meshes[k % 2],
                      {c: np.ldexp(rng.uniform(0, 1, meshes[k % 2].n_nodes),
                                   e - int(rng.integers(0, 31)))
                       for c in Q.COMPARTMENTS})
                     for k, e in enumerate(exponents)]
        series = Q.population_series(iter([Q.population_term(s) for s in snapshots]))
        assert series.times == tuple(t for t, _, _ in snapshots)
        assert series.values.tobytes() == two_pass_population(snapshots).tobytes()

    def test_empty_and_zero_first_series_are_refused(self):
        m = M.build_interval_mesh(0, 1, 2)
        zero = {c: np.zeros(m.n_nodes) for c in Q.COMPARTMENTS}
        one = {c: np.ones(m.n_nodes) for c in Q.COMPARTMENTS}
        with pytest.raises(InvalidArgumentError, match="empty series"):
            Q.population_series(iter([]))
        with pytest.raises(InvalidArgumentError, match="first-snapshot population is zero"):
            Q.population_series(map(Q.population_term, [(0, m, zero), (1, m, one)]))


    def test_series_of_mismatched_lengths_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="lengths differ"):
            Q.QoiSeries(times=(0, 1), values=[1.0])


class TestCsv:
    def test_header_and_precision(self, tmp_path):
        series = Q.QoiSeries(times=[0.0, 0.25], values=[1.0, 1 / 3])
        path = tmp_path / "q.csv"
        Q.save_qoi_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,value"
        assert lines[2].startswith("0.25,0.333333333333333")
