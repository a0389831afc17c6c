"""Dense numerical kernels: SVD, truncation, randomized SVD, eigendecomposition,
and a minimum-norm least-squares solve.

Factorizations are LAPACK-backed (via numpy) and wrapped so that ordering,
conjugate pairing, and eigenvector phase are deterministic. Sketches draw
from :func:`amrdmd.philox.philox_uniform`, so they are reproducible from one
integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .philox import philox_uniform

# randomized_svd refuses more power iterations: each costs two QR factorizations,
# and one or two usually suffice (Halko, Martinsson & Tropp, SIAM Rev. 2011)
MAX_POWER_ITERS = 100


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U @ diag(sigma) @ V.T with sigma nonincreasing."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def rank_kept(self) -> int:
        return self.sigma.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


def svd(A: np.ndarray) -> SvdResult:
    """Thin (economy) SVD of a real matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidArgumentError("svd expects a 2-d array")
    if not np.all(np.isfinite(A)):
        raise InvalidArgumentError("svd input has non-finite entries")
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return SvdResult(U=U, sigma=s, V=Vt.T)


def truncate(res: SvdResult, r: int) -> SvdResult:
    """Keep the first r singular triplets (Eckart-Young optimal)."""
    k = res.rank_kept
    if not 1 <= r <= k:
        raise InvalidArgumentError(f"truncation rank {r} outside [1, {k}]")
    return SvdResult(U=res.U[:, :r], sigma=res.sigma[:r], V=res.V[:, :r])


def gaussian_matrix(n_rows: int, n_cols: int, seed: int) -> np.ndarray:
    """Seeded standard-normal matrix, reproducible across platforms.

    Uniforms come from :func:`philox_uniform` keyed with ``seed``; normals
    are formed by Box-Muller, pairing consecutive uniforms (u1, u2) ->
    (r cos a, r sin a) with r = sqrt(-2 ln(1-u1)), a = 2 pi u2, and
    interleaving the cos/sin outputs row-major.
    """
    n = n_rows * n_cols
    n_pairs = (n + 1) // 2
    u1, u2 = philox_uniform(seed, 2 * n_pairs).reshape(2, n_pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], log is finite
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * n_pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n].reshape(n_rows, n_cols)


def randomized_svd(
    A: np.ndarray,
    r: int,
    oversample: int = 10,
    power_iters: int = 2,
    seed: int = 0,
) -> SvdResult:
    """Rank-r randomized SVD with Gaussian sketching and power iterations.

    Each power iteration re-orthogonalizes through a QR factorization to
    avoid losing digits on matrices with fast-decaying spectra. The result
    is deterministic for a fixed seed.
    """
    A = np.asarray(A, dtype=float)
    n, m = A.shape
    sketch = r + oversample
    if r < 1:
        raise InvalidArgumentError("rank must be >= 1")
    if oversample < 0 or not 0 <= power_iters <= MAX_POWER_ITERS:
        raise InvalidArgumentError(f"oversample must be >= 0 and power_iters "
                                   f"in [0, {MAX_POWER_ITERS}]")
    if sketch > min(n, m):
        raise InvalidArgumentError(
            f"rank + oversample = {sketch} exceeds min(n, m) = {min(n, m)}"
        )
    omega = gaussian_matrix(m, sketch, seed)
    Y = A @ omega
    Q, _ = np.linalg.qr(Y)
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = Q.T @ A
    small = svd(B)
    full = SvdResult(U=Q @ small.U, sigma=small.sigma, V=small.V)
    return truncate(full, r)


def _eig_order(lam: np.ndarray) -> np.ndarray:
    # |lambda| descending; ties broken by imag descending (puts the
    # nonnegative-imaginary member of a conjugate pair first), then real
    # descending for full determinism.
    return np.lexsort((-lam.real, -lam.imag, -np.abs(lam)))


def eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a square real matrix with deterministic output.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted by
    nonincreasing modulus; conjugate pairs of a real input stay adjacent
    with the +imag member first. Each eigenvector is unit-norm with its
    largest-magnitude component rotated to the positive real axis.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError("eig expects a square matrix")
    if not np.all(np.isfinite(A)):
        raise InvalidArgumentError("eig input has non-finite entries")
    try:
        lam, W = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc
    lam = lam.astype(complex)
    W = W.astype(complex)
    order = _eig_order(lam)
    lam = lam[order]
    W = W[:, order]
    for j in range(W.shape[1]):
        k = int(np.argmax(np.abs(W[:, j])))
        pivot = W[k, j]
        if pivot != 0:
            W[:, j] *= np.conj(pivot) / abs(pivot)
        nrm = np.linalg.norm(W[:, j])
        if nrm > 0:
            W[:, j] /= nrm
    return lam, W


def pinv_apply(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of B x ~= y via SVD.

    Singular values below 1e-12 * sigma_max are treated as exact zeros, so
    rank-deficient systems return the minimum-norm representative.
    """
    B = np.asarray(B)
    y = np.asarray(y)
    if B.ndim != 2 or B.shape[0] < 1:
        raise InvalidArgumentError("pinv_apply expects a matrix with >= 1 row")
    U, s, Vh = np.linalg.svd(B, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(B.shape[1], dtype=np.result_type(B.dtype, y.dtype))
    keep = s > 1e-12 * s[0]
    coeffs = (U[:, keep].conj().T @ y) / s[keep]
    return Vh[keep].conj().T @ coeffs
