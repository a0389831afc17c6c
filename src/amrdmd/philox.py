"""Uniform random doubles from one integer seed: numpy's Philox-4x64-10
counter stream, computed with array arithmetic alone so that numpy's random
package is never imported. The randomized SVD's sketches and the demo's mesh
jitter draw from it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

# Philox-4x64-10 (Salmon et al., SC 2011): round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from 32-bit
    halves; uint64 arrays wrap silently, so no step warns."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    mid = (lo_lo >> _SHIFT32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    hi = m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, np.uint64(m) * x


def philox_uniform(seed: int, n: int) -> np.ndarray:
    """The first n doubles of numpy's ``Generator(Philox(key=seed)).random()``,
    bit for bit.

    The key is (seed mod 2^64, seed >> 64); block k holds the four words of
    the counter (k, 0, 0, 0) after ten rounds, for k = 1, 2, ..., and the
    words are used in order. Each double is (word >> 11) * 2^-53, in [0, 1).
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 1 << 128:
        raise InvalidArgumentError(f"seed {seed} outside [0, 2^128)")
    # the key schedule runs on Python ints, so no numpy scalar overflows
    k0, k1 = int(seed) & _U64, int(seed) >> 64
    c0 = np.arange(1, (n + 3) // 4 + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for i in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        key0 = np.uint64((k0 + i * _PHILOX_W[0]) & _U64)
        key1 = np.uint64((k1 + i * _PHILOX_W[1]) & _U64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    words = np.stack([c0, c1, c2, c3], axis=1).ravel()[:n]
    return (words >> np.uint64(11)).astype(float) * 2.0 ** -53
