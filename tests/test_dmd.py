import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import dmd
from amrdmd.errors import InvalidArgumentError

from conftest import synth_linear_series


def make_snapshots(data, dt_o=1.0, t0=0.0):
    return dmd.SnapshotMatrix(np.asarray(data, dtype=float), t0=t0, dt_o=dt_o)


class TestSplit:
    def test_three_columns(self):
        Y = make_snapshots(np.arange(6.0).reshape(2, 3))
        Y1, Y2 = dmd.split(Y)
        np.testing.assert_array_equal(Y1, Y.data[:, :2])
        np.testing.assert_array_equal(Y2, Y.data[:, 1:])

    def test_two_columns(self):
        Y = make_snapshots(np.arange(4.0).reshape(2, 2))
        Y1, Y2 = dmd.split(Y)
        assert Y1.shape == (2, 1) and Y2.shape == (2, 1)

    def test_single_column_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_snapshots(np.ones((3, 1)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 30))
    def test_split_widths_equal(self, m):
        Y = make_snapshots(np.random.default_rng(m).normal(size=(4, m + 1)))
        Y1, Y2 = dmd.split(Y)
        assert Y1.shape == Y2.shape == (4, m)


class TestChooseRank:
    def test_two_values(self):
        # kappa(1) = 1 - 9/10 = 0.1 <= 0.2
        assert dmd.choose_rank([3.0, 1.0], 0.2) == 1

    def test_exact_rank_one(self):
        assert dmd.choose_rank([1.0, 0.0, 0.0], 0.5) == 1
        assert dmd.choose_rank([1.0, 0.0, 0.0], 0.0) == 1

    def test_tau_zero_full_numerical_rank(self):
        assert dmd.choose_rank([2.0, 1.0, 0.5], 0.0) == 3
        assert dmd.choose_rank([2.0, 1.0, 0.0], 0.0) == 2

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            dmd.choose_rank([0.0, 0.0], 0.1)

    def test_bad_tau_rejected(self):
        with pytest.raises(InvalidArgumentError):
            dmd.choose_rank([1.0], 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9), st.floats(0.0, 0.999))
    def test_matches_linear_scan_oracle(self, seed, tau):
        r = np.random.default_rng(seed)
        sigma = np.sort(np.abs(r.normal(size=r.integers(1, 12))))[::-1]
        if sigma.sum() == 0:
            sigma[0] = 1.0
        total = np.sum(sigma ** 2)
        expected = len(sigma)    # kappa at full rank is exactly zero
        for rank in range(1, len(sigma)):
            kappa = 1.0 - np.sum(sigma[:rank] ** 2) / total
            if kappa <= tau:
                expected = rank
                break
        assert dmd.choose_rank(sigma, tau) == expected

    def test_kappa_nonincreasing(self, rng):
        sigma = np.sort(np.abs(rng.normal(size=10)))[::-1]
        total = np.sum(sigma ** 2)
        kappas = [1.0 - np.sum(sigma[:r] ** 2) / total
                  for r in range(1, 11)]
        assert all(k2 <= k1 + 1e-15 for k1, k2 in zip(kappas, kappas[1:]))


class TestFit:
    def test_scalar_geometric_sequence(self):
        Y = make_snapshots([[1.0, 0.5, 0.25, 0.125]])
        model = dmd.fit(Y, rank=1)
        assert model.lam[0] == pytest.approx(0.5, abs=1e-14)
        assert model.omega[0] == pytest.approx(np.log(0.5), abs=1e-13)
        rec = dmd.reconstruct(model, Y.times)
        np.testing.assert_allclose(rec, Y.data, atol=1e-12)

    def test_two_mode_linear_system_recovery(self, rng):
        lam_true = [0.9, 0.7]
        Y = synth_linear_series(lam_true, n=5, m=10, seed=4)
        model = dmd.fit(Y, rank=2)
        got = np.sort(model.lam.real)[::-1]
        np.testing.assert_allclose(got, [0.9, 0.7], atol=1e-8)
        assert np.max(np.abs(model.lam.imag)) <= 1e-10

    def test_tau_rank_near_the_float_limit(self):
        # sigma is scaled to [1/2, 1) before it is squared: 2**600 Y selects
        # the rank of Y, with no overflow warning and no rank reduction
        x = np.linspace(0.0, 1.0, 40)
        data = sum(np.outer(np.sin(k * np.pi * x), lam ** np.arange(9))
                   for k, lam in ((1, 0.9), (2, 0.7), (3, 0.5)))
        ranks = []
        for scale in (1.0, 2.0 ** 600):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ranks.append(dmd.fit(make_snapshots(scale * data), tau=1e-6).rank)
        assert ranks == [3, 3]

    def test_rank_and_tau_exclusive(self):
        Y = make_snapshots(np.random.default_rng(0).normal(size=(4, 5)))
        with pytest.raises(InvalidArgumentError):
            dmd.fit(Y, rank=2, tau=0.1)
        with pytest.raises(InvalidArgumentError):
            dmd.fit(Y)

    def test_rank_reduced_for_tiny_singular_values(self):
        data = np.outer([1.0, 2.0, 3.0], 0.5 ** np.arange(6))
        Y = make_snapshots(data)
        with pytest.warns(UserWarning, match="rank reduced"):
            model = dmd.fit(Y, rank=4)
        assert model.rank == 1

    def test_amplitude_residual_optimality(self, rng):
        Y = synth_linear_series([0.9, 0.8, 0.5], n=20, m=12, seed=7)
        model = dmd.fit(Y, rank=3)
        resid = model.modes @ model.amplitudes - Y.data[:, 0]
        gram = model.modes.conj().T @ resid
        assert np.linalg.norm(gram) <= 1e-8 * np.linalg.norm(Y.data[:, 0])

    def test_similarity_invariance_of_eigenvalues(self, rng):
        Y = synth_linear_series([0.95, 0.6], n=12, m=14, seed=3)
        Q = np.linalg.qr(rng.normal(size=(12, 12)))[0]
        Yrot = dmd.SnapshotMatrix(Q @ Y.data, t0=Y.t0, dt_o=Y.dt_o)
        m1 = dmd.fit(Y, rank=2)
        m2 = dmd.fit(Yrot, rank=2)
        np.testing.assert_allclose(np.sort_complex(m1.lam),
                                   np.sort_complex(m2.lam), atol=1e-9)

    def test_rank_monotonicity_of_reconstruction(self, rng):
        data = rng.normal(size=(30, 12)) @ rng.normal(size=(12, 15))
        Y = make_snapshots(data)
        prev = np.inf
        for r in (2, 4, 6, 8):
            model = dmd.fit(Y, rank=r)
            eta = dmd.errors(Y.data, dmd.reconstruct(model, Y.times)).eta_F
            assert eta <= prev + 1e-12
            prev = eta

    def test_exact_vs_randomized_paths(self):
        Y = synth_linear_series([0.9, 0.7, 0.4], n=60, m=20, seed=5)
        m_exact = dmd.fit(Y, rank=3, svd_method="exact")
        m_rand = dmd.fit(Y, rank=3, svd_method="randomized", seed=12)
        np.testing.assert_allclose(np.sort_complex(m_exact.lam),
                                   np.sort_complex(m_rand.lam), atol=1e-6)

    def test_reconstruction_invariant_under_mode_rescaling(self):
        Y = synth_linear_series([0.9, 0.7], n=8, m=10, seed=2)
        model = dmd.fit(Y, rank=2)
        scale = np.array([3.0, 0.25])
        rescaled = dmd.DmdModel(
            rank=model.rank, lam=model.lam, omega=model.omega,
            modes=model.modes * scale[None, :],
            amplitudes=model.amplitudes / scale,
            t0=model.t0, dt_o=model.dt_o, field_name=model.field_name)
        np.testing.assert_allclose(dmd.reconstruct(model, Y.times),
                                   dmd.reconstruct(rescaled, Y.times), atol=1e-10)


class TestEvaluate:
    def test_initial_time_recovers_u0(self):
        Y = synth_linear_series([0.9, 0.7, 0.5], n=25, m=12, seed=8)
        model = dmd.fit(Y, rank=3)
        np.testing.assert_allclose(dmd.evaluate(model, Y.t0), Y.data[:, 0],
                                   atol=1e-10)

    def test_scalar_decay_at_t3(self):
        Y = make_snapshots([[1.0, 0.5, 0.25, 0.125]])
        model = dmd.fit(Y, rank=1)
        assert dmd.evaluate(model, 3.0)[0] == pytest.approx(0.125, abs=1e-12)

    def test_between_samples_follows_power_law(self):
        Y = make_snapshots([[1.0, 0.5, 0.25, 0.125]], dt_o=2.0, t0=1.0)
        model = dmd.fit(Y, rank=1)
        t = 4.0   # (t - t0)/dt_o = 1.5 sampling intervals
        assert dmd.evaluate(model, t)[0] == pytest.approx(0.5 ** 1.5, abs=1e-12)

    def test_imaginary_residual_small_for_real_data(self):
        Y = synth_linear_series(
            [0.9 * np.exp(0.3j), 0.9 * np.exp(-0.3j)], n=30, m=20, seed=6)
        model = dmd.fit(Y, rank=2)
        signal = model.modes @ (np.exp(model.omega * (7.0 - model.t0))
                                * model.amplitudes)
        ratio = np.linalg.norm(signal.imag) / np.linalg.norm(signal.real)
        assert ratio <= 1e-8

    def test_conjugate_time_evaluation_matches_recurrence(self):
        lam = [0.9 * np.exp(0.3j), 0.9 * np.exp(-0.3j)]
        Y = synth_linear_series(lam, n=30, m=30, seed=6)
        model = dmd.fit(dmd.SnapshotMatrix(Y.data[:, :21], t0=0, dt_o=1.0), rank=2)
        rec = dmd.reconstruct(model, np.arange(21, 31, dtype=float))
        np.testing.assert_allclose(rec, Y.data[:, 21:31],
                                   atol=1e-6 * np.linalg.norm(Y.data[:, 21]))


class TestErrors:
    def test_exact_match_is_zero(self, rng):
        Y = rng.normal(size=(6, 8))
        rep = dmd.errors(Y, Y)
        np.testing.assert_allclose(rep.eta_series, 0.0, atol=1e-15)
        assert rep.eta_F == 0.0

    def test_zero_prediction_gives_one(self, rng):
        Y = rng.normal(size=(6, 8))
        rep = dmd.errors(Y, np.zeros_like(Y))
        np.testing.assert_allclose(rep.eta_series, 1.0, atol=1e-15)
        assert rep.eta_F == pytest.approx(1.0, abs=1e-15)

    def test_matches_naive_norm_oracle(self, rng):
        Y = rng.normal(size=(5, 7))
        Yh = rng.normal(size=(5, 7))
        rep = dmd.errors(Y, Yh)
        for k in range(7):
            num = np.sqrt(np.sum((Y[:, k] - Yh[:, k]) ** 2))
            den = np.sqrt(np.sum(Y[:, k] ** 2))
            assert rep.eta_series[k] == pytest.approx(num / den, rel=1e-12)

    def test_eta_f_identity(self, rng):
        Y = rng.normal(size=(5, 7))
        Yh = rng.normal(size=(5, 7))
        rep = dmd.errors(Y, Yh)
        num = sum(np.sum((Y[:, k] - Yh[:, k]) ** 2) for k in range(7))
        den = sum(np.sum(Y[:, k] ** 2) for k in range(7))
        assert rep.eta_F ** 2 == pytest.approx(num / den, rel=1e-12)

    def test_zero_column_reported_nan(self, rng):
        Y = rng.normal(size=(4, 3))
        Y[:, 1] = 0.0
        rep = dmd.errors(Y, Y + 0.1)
        assert np.isnan(rep.eta_series[1])
        assert np.isfinite(rep.eta_F)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidArgumentError):
            dmd.errors(rng.normal(size=(3, 3)), rng.normal(size=(3, 4)))


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        Y = synth_linear_series(
            [0.9, 0.8 * np.exp(0.5j), 0.8 * np.exp(-0.5j)], n=15, m=12, seed=10)
        model = dmd.fit(Y, rank=3)
        path = tmp_path / "m.dmd.txt"
        dmd.save_model(model, path)
        back = dmd.load_model(path)
        assert back.rank == model.rank
        assert back.n == model.n
        assert back.t0 == model.t0 and back.dt_o == model.dt_o
        assert back.field_name == model.field_name
        np.testing.assert_array_equal(back.lam, model.lam)
        np.testing.assert_array_equal(back.omega, model.omega)
        np.testing.assert_array_equal(back.amplitudes, model.amplitudes)
        np.testing.assert_array_equal(back.modes, model.modes)

    def test_byte_identical_rewrites(self, tmp_path):
        Y = synth_linear_series([0.9, 0.7], n=10, m=8, seed=1)
        model = dmd.fit(Y, rank=2)
        p1, p2 = tmp_path / "a.dmd.txt", tmp_path / "b.dmd.txt"
        dmd.save_model(model, p1)
        dmd.save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_overflowing_header_rejected(self, tmp_path):
        Y = synth_linear_series([0.9, 0.7], n=10, m=8, seed=1)
        path = tmp_path / "big.dmd.txt"
        dmd.save_model(dmd.fit(Y, rank=2), path)
        head, rest = path.read_text().split("\n", 1)
        path.write_text("99999999999999999999 " + head.split(" ", 1)[1] + "\n" + rest)
        with pytest.raises(InvalidArgumentError, match="big.dmd.txt"):
            dmd.load_model(path)

    @pytest.mark.parametrize("field, value", [
        (2, "nan"), (2, "inf"), (3, "nan"), (3, "-inf"), (3, "0"), (3, "-0.25"),
        (None, "1 2\n3 4\n"),
    ], ids=["t0_nan", "t0_inf", "dt_nan", "dt_neg_inf", "dt_zero", "dt_negative",
            "trailing_rows"])
    def test_header_and_body_validated(self, tmp_path, field, value):
        Y = synth_linear_series([0.9, 0.7], n=10, m=8, seed=1)
        path = tmp_path / "bad.dmd.txt"
        dmd.save_model(dmd.fit(Y, rank=2), path)
        head, rest = path.read_text().split("\n", 1)
        if field is None:
            rest += value
        else:
            head = head.split()
            head[field] = value
            head = " ".join(head)
        path.write_text(head + "\n" + rest)
        with pytest.raises(InvalidArgumentError, match="bad.dmd.txt"):
            dmd.load_model(path)
