"""Exact dynamic mode decomposition on snapshot matrices.

A model is fit by factoring the leading snapshot block, projecting the
one-step linear map onto the leading singular subspace, and taking its
eigendecomposition. Signals are reconstructed or extrapolated as
Psi @ exp(omega * (t - t0)) @ b.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import FitError, InvalidArgumentError
from .fem import unit_scale
from .linalg import SvdResult
from .mesh import _read_table

ZERO_EIGENVALUE_TOL = 1e-14
SIGMA_DROP_TOL = 1e-12


@dataclass
class SnapshotMatrix:
    """Column-stacked snapshots, uniformly sampled in time.

    data has shape (n, m + 1): column k is the state at t0 + k * dt_o.
    """

    data: np.ndarray
    t0: float = 0.0
    dt_o: float = 1.0
    field_name: str = "u"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise InvalidArgumentError("snapshot data must be 2-d")
        if self.data.shape[1] < 2:
            raise InvalidArgumentError("need at least two snapshots")
        if not self.dt_o > 0:
            raise InvalidArgumentError("dt_o must be positive")
        if not np.all(np.isfinite(self.data)):
            raise InvalidArgumentError("snapshot data has non-finite entries")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1] - 1

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt_o * np.arange(self.data.shape[1])


@dataclass
class DmdModel:
    rank: int
    lam: np.ndarray        # discrete eigenvalues, complex (rank,)
    omega: np.ndarray      # continuous eigenvalues ln(lam)/dt_o, complex
    modes: np.ndarray      # (n, rank) complex
    amplitudes: np.ndarray # (rank,) complex
    t0: float
    dt_o: float
    field_name: str = "u"
    aliased_modes: tuple = field(default=())  # negative-real lam: omega at Nyquist

    @property
    def n(self) -> int:
        return self.modes.shape[0]


@dataclass
class ErrorReport:
    """Per-snapshot relative errors and the overall Frobenius ratio."""

    eta_series: np.ndarray
    eta_F: float


def split(Y: SnapshotMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Leading and trailing snapshot blocks (columns 0..m-1 and 1..m)."""
    if Y.data.shape[1] < 2:
        raise InvalidArgumentError("cannot split a single-column snapshot matrix")
    return Y.data[:, :-1], Y.data[:, 1:]


def choose_rank(sigma, tau: float) -> int:
    """Smallest rank whose discarded spectral energy fraction is <= tau."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        raise InvalidArgumentError("empty singular value sequence")
    if not 0 <= tau < 1:
        raise InvalidArgumentError(f"tau must be in [0, 1), got {tau}")
    energy = (sigma * unit_scale(sigma[0])) ** 2   # no overflow near 1e308
    total = energy.sum()
    if total == 0.0:
        raise InvalidArgumentError("all singular values are zero")
    discarded = 1.0 - np.cumsum(energy) / total
    discarded[-1] = 0.0   # exactly zero in exact arithmetic; dodge roundoff
    return int(np.argmax(discarded <= tau)) + 1


def fit(Y: SnapshotMatrix, rank: int | None = None, tau: float | None = None,
        svd_method: str = "exact", seed: int = 0, oversample: int = 10,
        power_iters: int = 2) -> DmdModel:
    """Fit an exact-DMD model to the snapshot matrix.

    Exactly one of `rank` (fixed truncation) or `tau` (retained-variance
    threshold) selects the rank. svd_method "randomized" uses a seeded
    Gaussian sketch; threshold selection needs the full spectrum, so tau
    always goes through the exact SVD. Amplitudes come from the first
    snapshot.
    """
    if (rank is None) == (tau is None):
        raise InvalidArgumentError("specify exactly one of rank or tau")
    if Y.m < 2:
        raise InvalidArgumentError("fit needs at least three snapshots")
    Y1, Y2 = split(Y)
    m = Y1.shape[1]

    if tau is not None or svd_method == "exact":
        res = linalg.svd(Y1)
    elif svd_method == "randomized":
        sketch = min(rank + oversample, min(Y1.shape))
        res = linalg.randomized_svd(Y1, rank, oversample=sketch - rank,
                                    power_iters=power_iters, seed=seed)
    else:
        raise InvalidArgumentError(f"unknown svd_method {svd_method!r}")

    r = choose_rank(res.sigma, tau) if tau is not None else int(rank)
    if r < 1 or r > m:
        raise InvalidArgumentError(f"rank {r} outside [1, {m}]")
    r = min(r, res.rank_kept)
    usable = int(np.sum(res.sigma > SIGMA_DROP_TOL * res.sigma[0]))
    if usable == 0:
        raise FitError("snapshot matrix is numerically zero")
    if r > usable:
        warnings.warn(f"rank reduced from {r} to {usable}: "
                      "trailing singular values below drop tolerance")
        r = usable
    res = linalg.truncate(res, r)

    a_tilde = (res.U.T @ Y2 @ res.V) / res.sigma[None, :]
    lam, W = linalg.eig(a_tilde)
    modes = (Y2 @ res.V / res.sigma[None, :]) @ W

    degenerate = np.abs(lam) < ZERO_EIGENVALUE_TOL
    omega = np.full(r, np.nan, dtype=complex)
    omega[~degenerate] = np.log(lam[~degenerate]) / Y.dt_o
    aliased = tuple(int(i) for i in np.where((lam.real < 0) & (lam.imag == 0))[0])

    b = linalg.pinv_apply(modes, Y.data[:, 0].astype(complex))

    return DmdModel(rank=r, lam=lam, omega=omega, modes=modes, amplitudes=b,
                    t0=Y.t0, dt_o=Y.dt_o, field_name=Y.field_name,
                    aliased_modes=aliased)


def evaluate(model: DmdModel, t: float) -> np.ndarray:
    """Real part of the model signal at time t (see reconstruct)."""
    return reconstruct(model, [t])[:, 0]


def reconstruct(model: DmdModel, times) -> np.ndarray:
    """Real part of the model signal at the given times, one column per
    time point. Modes with |lambda| below 1e-14 have no defined growth rate
    and are dropped with a warning."""
    times = np.asarray(times, dtype=float)
    keep = ~np.isnan(model.omega.real)
    if not np.all(keep):
        warnings.warn(f"dropping {int(np.sum(~keep))} modes with |lambda| ~ 0")
    growth = np.exp(np.outer(model.omega[keep], times - model.t0))
    # einsum, not BLAS, so the bits do not depend on the thread count
    return np.einsum("nk,kt->nt", model.modes[:, keep],
                     growth * model.amplitudes[keep, None]).real


def errors(Y_truth: np.ndarray, Y_hat: np.ndarray) -> ErrorReport:
    """Per-column relative 2-norm errors and the Frobenius-norm ratio.

    Columns of Y_truth with zero norm get NaN in eta_series (the relative
    error is undefined there); they contribute nothing to either side of
    eta_F.
    """
    Y_truth = np.asarray(Y_truth, dtype=float)
    Y_hat = np.asarray(Y_hat, dtype=float)
    if Y_truth.shape != Y_hat.shape:
        raise InvalidArgumentError(
            f"shape mismatch: {Y_truth.shape} vs {Y_hat.shape}")
    # in units of the larger max, so no norm over- or underflows
    scale = unit_scale(max(np.abs(Y_truth).max(initial=0.0),
                           np.abs(Y_hat).max(initial=0.0)))
    Y_truth, Y_hat = Y_truth * scale, Y_hat * scale
    diff = Y_truth - Y_hat
    col_err = np.linalg.norm(diff, axis=0)
    col_ref = np.linalg.norm(Y_truth, axis=0)
    eta = np.full(Y_truth.shape[1], np.nan)
    nonzero = col_ref > 0
    eta[nonzero] = col_err[nonzero] / col_ref[nonzero]
    denom = np.linalg.norm(Y_truth)
    eta_F = float(np.linalg.norm(diff) / denom) if denom > 0 else float("nan")
    return ErrorReport(eta_series=eta, eta_F=eta_F)


# ---------------------------------------------------------------------------
# model file format (".dmd.txt"): one header line
#   "n r t0 dt_o field_name"
# then r lines of lambda (re im), r of omega (re im), r of b (re im), then
# n*r lines of Psi column-major (re im), all with 17 significant digits.
# Every value is finite but omega where |lambda| < ZERO_EIGENVALUE_TOL,
# which is nan 0.

def save_model(model: DmdModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{model.n} {model.rank} {model.t0:.17g} "
                 f"{model.dt_o:.17g} {model.field_name}\n")
        z = np.concatenate([model.lam, model.omega, model.amplitudes,
                            model.modes.T.reshape(-1)])
        fh.writelines("%.17g %.17g\n" % r
                      for r in zip(z.real.tolist(), z.imag.tolist()))


def load_model(path) -> DmdModel:
    def table(n, r, t0, dt_o, name):
        if n < 1 or r < 1 or not dt_o > 0:
            raise ValueError(f"n = {n}, r = {r} and dt_o = {dt_o} must be positive")
        return [(r, "ff"), (r, "gg"), ((1 + n) * r, "ff")]   # omega may be nan

    (n, r, t0, dt_o, name), table = _read_table(path, "model file", ["iiffn"], table,
                                                _model_fault)
    z = np.concatenate([re + 1j * im for re, im in table])
    lam = z[:r]
    aliased = tuple(int(i) for i in np.where((lam.real < 0) & (lam.imag == 0))[0])
    return DmdModel(rank=r, lam=lam, omega=z[r:2 * r], modes=z[3 * r:].reshape(r, n).T,
                    amplitudes=z[2 * r:3 * r], t0=t0, dt_o=dt_o, field_name=name,
                    aliased_modes=aliased)


def _model_fault(header, table):
    """The first omega row that is not nan 0, as fit writes it, exactly where
    |lambda| < ZERO_EIGENVALUE_TOL and finite elsewhere, and why."""
    (lam_re, lam_im), (re, im) = table[:2]
    zero = np.hypot(lam_re, lam_im)[:re.size] < ZERO_EIGENVALUE_TOL   # |lambda|, as in fit
    ok = np.where(zero, np.isnan(re) & (im == 0), np.isfinite(re) & np.isfinite(im))
    if ok.all():
        return None
    k = int(np.argmin(ok))
    return header[1] + k, (f"omega {re[k]:g} {im[k]:g} must be nan 0 exactly where "
                           f"|lambda| < {ZERO_EIGENVALUE_TOL:g}")
