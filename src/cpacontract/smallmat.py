"""Extreme eigenvalues of batches of small symmetric blocks (..., k, k).

Sizes k <= 2 use closed forms; larger blocks go to LAPACK in fixed-size
chunks, so the temporaries stay small however long the batch. For the
generalized problem (A, M), M = L L^T reduces it to L^-1 A L^-T as LAPACK
`sygvd` does, and an M that is not positive definite raises
`np.linalg.LinAlgError`; the k <= 2 closed forms assume M spd unchecked.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 4096


def _chunked(fun, *mats):
    """fun over (N, k, k) chunks of the stacked blocks, shaped (...)."""
    k = mats[0].shape[-1]
    flat = [np.reshape(a, (-1, k, k)) for a in mats]
    out = np.empty(len(flat[0]))
    for i in range(0, len(out), _CHUNK):
        out[i:i + _CHUNK] = fun(*(a[i:i + _CHUNK] for a in flat))
    return out.reshape(mats[0].shape[:-2])


def eig_min(mats):
    """Smallest eigenvalue of each block."""
    mats = np.asarray(mats, dtype=float)
    k = mats.shape[-1]
    if k == 1:
        return mats[..., 0, 0].copy()
    if k == 2:
        half_tr = 0.5 * (mats[..., 0, 0] + mats[..., 1, 1])
        rad = np.hypot(0.5 * (mats[..., 0, 0] - mats[..., 1, 1]),
                       mats[..., 0, 1])
        return half_tr - rad
    return _chunked(lambda a: np.linalg.eigvalsh(a)[:, 0], mats)


def eig_max(mats):
    """Largest eigenvalue of each block."""
    return -eig_min(-np.asarray(mats, dtype=float))


def _gen_eig(A, M, sign):
    """Smallest (sign -1) or largest (sign +1) eigenvalue of each pair."""
    A, M = np.asarray(A, dtype=float), np.asarray(M, dtype=float)
    k = A.shape[-1]
    if k == 1:
        return A[..., 0, 0] / M[..., 0, 0]
    if k == 2:
        # roots of the quadratic det(A - g M) = a g^2 - b g + c
        a = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] ** 2
        b = (A[..., 0, 0] * M[..., 1, 1] + A[..., 1, 1] * M[..., 0, 0]
             - 2.0 * A[..., 0, 1] * M[..., 0, 1])
        c = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] ** 2
        disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        return (b + sign * disc) / (2.0 * a)

    def whitened(a, m):
        Li = np.linalg.inv(np.linalg.cholesky(m))
        w = np.linalg.eigvalsh(Li @ a @ np.swapaxes(Li, -1, -2))
        return w[:, 0] if sign < 0 else w[:, -1]

    return _chunked(whitened, A, M)


def gen_eig_min(A, M):
    """Smallest generalized eigenvalue of each pair (A, M), M spd."""
    return _gen_eig(A, M, -1.0)


def gen_eig_max(A, M):
    """Largest generalized eigenvalue of each pair (A, M), M spd."""
    return _gen_eig(A, M, 1.0)
