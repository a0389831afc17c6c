import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrdmd import linalg
from amrdmd.errors import InvalidArgumentError


class TestSvd:
    def test_identity(self):
        res = linalg.svd(np.eye(3))
        np.testing.assert_allclose(res.sigma, [1, 1, 1], atol=1e-15)

    def test_rectangular_diagonal(self):
        A = np.zeros((3, 2))
        A[0, 0] = 3.0
        A[1, 1] = 1.0
        res = linalg.svd(A)
        np.testing.assert_allclose(res.sigma, [3, 1], atol=1e-15)

    def test_gram_eigenvalue_oracle(self, rng):
        A = rng.normal(size=(20, 8))
        res = linalg.svd(A)
        gram_eigs = np.sort(np.linalg.eigvalsh(A.T @ A))[::-1]
        np.testing.assert_allclose(res.sigma ** 2, gram_eigs, atol=1e-10)

    def test_reconstruction_and_orthogonality(self, rng):
        for shape in [(30, 8), (8, 30), (12, 12)]:
            A = rng.normal(size=shape)
            res = linalg.svd(A)
            err = np.linalg.norm(res.reconstruct() - A) / np.linalg.norm(A)
            assert err <= 1e-12
            k = res.rank_kept
            np.testing.assert_allclose(res.U.T @ res.U, np.eye(k), atol=1e-10)
            np.testing.assert_allclose(res.V.T @ res.V, np.eye(k), atol=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            linalg.svd(np.array([[np.inf, 0.0]]))


class TestTruncate:
    def test_full_rank_is_identity(self, rng):
        A = rng.normal(size=(6, 4))
        res = linalg.svd(A)
        t = linalg.truncate(res, 4)
        np.testing.assert_array_equal(t.sigma, res.sigma)

    def test_rank_one_exact(self, rng):
        u = rng.normal(size=5)
        v = rng.normal(size=3)
        A = np.outer(u, v)
        t = linalg.truncate(linalg.svd(A), 1)
        np.testing.assert_allclose(t.reconstruct(), A, atol=1e-12)

    def test_spectral_error_equals_next_sigma(self, rng):
        A = rng.normal(size=(10, 6))
        res = linalg.svd(A)
        t = linalg.truncate(res, 3)
        err = np.linalg.norm(A - t.reconstruct(), 2)   # dense norm oracle
        assert err == pytest.approx(res.sigma[3], abs=1e-8)

    def test_out_of_range(self, rng):
        res = linalg.svd(rng.normal(size=(4, 4)))
        with pytest.raises(InvalidArgumentError):
            linalg.truncate(res, 0)
        with pytest.raises(InvalidArgumentError):
            linalg.truncate(res, 5)


class TestRandomizedSvd:
    def test_exact_rank_recovery(self, rng):
        U = np.linalg.qr(rng.normal(size=(200, 5)))[0]
        V = np.linalg.qr(rng.normal(size=(50, 5)))[0]
        sig = np.array([10.0, 5.0, 2.0, 1.0, 0.5])
        A = (U * sig) @ V.T
        res = linalg.randomized_svd(A, 5, seed=42)
        np.testing.assert_allclose(res.sigma, sig, rtol=1e-10)
        err = np.linalg.norm(res.reconstruct() - A) / np.linalg.norm(A)
        assert err <= 1e-10

    def test_seed_determinism(self, rng):
        A = rng.normal(size=(60, 25))
        r1 = linalg.randomized_svd(A, 6, seed=9)
        r2 = linalg.randomized_svd(A, 6, seed=9)
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.sigma, r2.sigma)
        assert np.array_equal(r1.V, r2.V)

    def test_full_sketch_matches_exact(self, rng):
        A = rng.normal(size=(7, 4))
        res = linalg.randomized_svd(A, 4, oversample=0, power_iters=0, seed=1)
        exact = linalg.svd(A)
        np.testing.assert_allclose(res.sigma, exact.sigma, atol=1e-8)

    def test_dimension_guard(self, rng):
        A = rng.normal(size=(10, 6))
        with pytest.raises(InvalidArgumentError):
            linalg.randomized_svd(A, 5, oversample=10)

    @pytest.mark.parametrize("knobs", [{"oversample": -5},
                                       {"oversample": 0, "power_iters": -1}])
    def test_negative_knobs_rejected(self, rng, knobs):
        A = rng.normal(size=(10, 6))
        with pytest.raises(InvalidArgumentError):
            linalg.randomized_svd(A, 2, **knobs)

    def test_power_iters_ceiling(self, rng):
        A = rng.normal(size=(10, 6))
        ok = linalg.randomized_svd(A, 2, oversample=2,
                                   power_iters=linalg.MAX_POWER_ITERS, seed=1)
        assert ok.rank_kept == 2
        with pytest.raises(InvalidArgumentError, match="power_iters"):
            linalg.randomized_svd(A, 2, oversample=2,
                                  power_iters=linalg.MAX_POWER_ITERS + 1)

    def test_gaussian_matrix_moments(self):
        z = linalg.gaussian_matrix(2000, 10, seed=3)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02


class TestEig:
    def test_real_diagonal(self):
        lam, W = linalg.eig(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(lam, [2.0, -1.0], atol=1e-14)

    def test_rotation_quarter_pi(self):
        th = np.pi / 4
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        lam, W = linalg.eig(R)
        np.testing.assert_allclose(
            sorted(lam, key=lambda z: -z.imag),
            [np.exp(1j * th), np.exp(-1j * th)], atol=1e-12)

    def test_determinant_oracle(self, rng):
        A = rng.normal(size=(8, 8))
        lam, _ = linalg.eig(A)
        det = np.linalg.det(A)            # LU-based, independent of eig
        assert np.prod(lam).real == pytest.approx(det, rel=1e-8)
        assert abs(np.prod(lam).imag) <= 1e-8 * abs(det)

    def test_residuals(self, rng):
        A = rng.normal(size=(12, 12))
        lam, W = linalg.eig(A)
        scale = np.linalg.norm(A, 2)
        for j in range(12):
            r = np.linalg.norm(A @ W[:, j] - lam[j] * W[:, j])
            assert r <= 1e-9 * scale * np.linalg.norm(W[:, j])

    def test_ordering_by_modulus_and_conjugate_pairs(self, rng):
        A = rng.normal(size=(9, 9))
        lam, _ = linalg.eig(A)
        mods = np.abs(lam)
        assert np.all(np.diff(mods) <= 1e-12)
        j = 0
        while j < 9:
            if abs(lam[j].imag) > 1e-12:
                assert lam[j].imag > 0
                assert lam[j + 1] == pytest.approx(np.conj(lam[j]), abs=1e-12)
                j += 2
            else:
                j += 1

    def test_symmetric_real_eigenvalues(self, rng):
        G = rng.normal(size=(10, 10))
        A = G + G.T
        lam, _ = linalg.eig(A)
        assert np.max(np.abs(lam.imag)) <= 1e-10 * np.linalg.norm(A, 2)


class TestPinvApply:
    def test_orthonormal_columns(self, rng):
        Q = np.linalg.qr(rng.normal(size=(8, 3)))[0].astype(complex)
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        x = linalg.pinv_apply(Q, y)
        np.testing.assert_allclose(x, Q.conj().T @ y, atol=1e-12)

    def test_square_invertible_matches_direct_solve(self, rng):
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = linalg.pinv_apply(B, y)
        np.testing.assert_allclose(x, np.linalg.solve(B, y), atol=1e-11)

    def test_zero_column_gets_zero_coefficient(self, rng):
        B = np.zeros((5, 3), dtype=complex)
        B[:, 0] = rng.normal(size=5)
        B[:, 2] = rng.normal(size=5)
        y = rng.normal(size=5).astype(complex)
        x = linalg.pinv_apply(B, y)
        assert x[1] == 0.0


class TestAcceptanceScaleProperties:
    """Reduced-size versions of the batch factorization properties; the
    full 100-matrix sweeps run in the acceptance module."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_svd_reconstructs_random_matrices(self, seed):
        r = np.random.default_rng(seed)
        shape = r.choice([(9, 4), (4, 9), (6, 6)])
        A = r.normal(size=tuple(shape))
        res = linalg.svd(A)
        assert np.linalg.norm(res.reconstruct() - A) <= 1e-12 * max(
            np.linalg.norm(A), 1e-30)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_svd_vs_randomized_on_low_rank(self, seed):
        r = np.random.default_rng(seed)
        k = int(r.integers(1, 4))
        A = r.normal(size=(30, k)) @ r.normal(size=(k, 12))
        exact = linalg.svd(A)
        approx = linalg.randomized_svd(A, k, oversample=min(10, 12 - k), seed=seed)
        np.testing.assert_allclose(approx.sigma, exact.sigma[:k],
                                   rtol=1e-6, atol=1e-9)
