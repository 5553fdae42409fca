"""Batched kernels for stacks of small blocks (..., k, k): extreme
eigenvalues, the eigendecomposition, the Cholesky factor and its inverse,
and the congruence R X R^T.

Sizes k <= 2 use closed forms; larger blocks go to LAPACK, the eigenvalues
in fixed-size chunks so the temporaries stay small however long the batch.
The Cholesky factor and its inverse are column loops across the batch. For
the generalized problem (A, M), M = L L^T reduces it to L^-1 A L^-T as
LAPACK `sygvd` does, and an M that is not positive definite raises
`np.linalg.LinAlgError`; the k <= 2 closed forms assume M spd unchecked.
A block with a non-finite entry has NaN eigenvalues at every size.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 4096


def _finite(*mats):
    """True for each block whose entries are finite in every argument."""
    ok = np.ones(np.shape(mats[0])[:-2], dtype=bool)
    for a in mats:
        if not np.isfinite(a).all():
            ok &= np.isfinite(a).all(axis=(-2, -1))
    return ok


def _chunked(fun, *mats):
    """fun over (N, k, k) chunks of the stacked blocks, shaped (...); a
    block with a non-finite entry goes to LAPACK as the identity."""
    k = mats[0].shape[-1]
    flat = [np.reshape(a, (-1, k, k)) for a in mats]
    out = np.empty(len(flat[0]))
    for i in range(0, len(out), _CHUNK):
        part = [a[i:i + _CHUNK] for a in flat]
        bad = ~_finite(*part)
        part = [np.where(bad[:, None, None], np.eye(k), a) if bad.any()
                else a for a in part]
        out[i:i + _CHUNK] = np.where(bad, np.nan, fun(*part))
    return out.reshape(mats[0].shape[:-2])


def eig_min(mats):
    """Smallest eigenvalue of each block."""
    mats = np.asarray(mats, dtype=float)
    k = mats.shape[-1]
    if k > 2:
        return _chunked(lambda a: np.linalg.eigvalsh(a)[:, 0], mats)
    out = mats[..., 0, 0]
    if k == 2:
        half_tr = 0.5 * (mats[..., 0, 0] + mats[..., 1, 1])
        rad = np.hypot(0.5 * (mats[..., 0, 0] - mats[..., 1, 1]),
                       mats[..., 0, 1])
        with np.errstate(invalid="ignore"):  # inf - inf of a non-finite block
            out = half_tr - rad
    return np.where(_finite(mats), out, np.nan)


def eig_max(mats):
    """Largest eigenvalue of each block."""
    return -eig_min(-np.asarray(mats, dtype=float))


def _gen_eig(A, M, sign):
    """Smallest (sign -1) or largest (sign +1) eigenvalue of each pair."""
    A, M = np.asarray(A, dtype=float), np.asarray(M, dtype=float)
    k = A.shape[-1]
    if k > 2:
        def whitened(a, m):
            Li = np.linalg.inv(np.linalg.cholesky(m))
            w = np.linalg.eigvalsh(Li @ a @ np.swapaxes(Li, -1, -2))
            return w[:, 0] if sign < 0 else w[:, -1]

        return _chunked(whitened, A, M)
    with np.errstate(invalid="ignore"):  # as in eig_min
        if k == 1:
            out = A[..., 0, 0] / M[..., 0, 0]
        else:
            # roots of the quadratic det(A - g M) = a g^2 - b g + c
            a = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] ** 2
            b = (A[..., 0, 0] * M[..., 1, 1] + A[..., 1, 1] * M[..., 0, 0]
                 - 2.0 * A[..., 0, 1] * M[..., 0, 1])
            c = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] ** 2
            disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
            out = (b + sign * disc) / (2.0 * a)
    return np.where(_finite(A, M), out, np.nan)


def gen_eig_min(A, M):
    """Smallest generalized eigenvalue of each pair (A, M), M spd."""
    return _gen_eig(A, M, -1.0)


def gen_eig_max(A, M):
    """Largest generalized eigenvalue of each pair (A, M), M spd."""
    return _gen_eig(A, M, 1.0)


def eigh(mats):
    """Ascending eigenvalues (..., k) and orthonormal eigenvectors, in the
    columns of (..., k, k), of each block."""
    if mats.shape[-1] != 2:
        return np.linalg.eigh(mats)
    a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
    sm, rt = a + c, np.hypot(a - c, 2.0 * b)
    w, Q = np.empty(mats.shape[:-1]), np.empty(mats.shape)
    w[..., 0], w[..., 1] = 0.5 * (sm - rt), 0.5 * (sm + rt)
    # the eigenvalue of smaller modulus from the determinant, as LAPACK's
    # dlaev2 does
    with np.errstate(divide="ignore", invalid="ignore"):
        w[..., 0] = np.where(sm > 0.0, (a * c - b * b) / w[..., 1], w[..., 0])
        w[..., 1] = np.where(sm < 0.0, (a * c - b * b) / w[..., 0], w[..., 1])
    th = 0.5 * np.arctan2(2.0 * b, a - c)  # (cos, sin) belongs to w[1]
    Q[..., 0, 1] = Q[..., 1, 0] = np.cos(th)
    Q[..., 1, 1] = np.sin(th)
    Q[..., 0, 0] = -Q[..., 1, 1]
    return w, Q


def cholesky(mats):
    """Lower factor L with L L^T = block, column by column across the
    batch; a block that is not positive definite, or not finite, gets an
    all-NaN factor."""
    k = mats.shape[-1]
    L = np.zeros_like(mats)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(k):
            for i in range(j, k):
                t = mats[..., i, j]
                for m in range(j):
                    t = t - L[..., i, m] * L[..., j, m]
                L[..., i, j] = np.sqrt(t) if i == j else t / L[..., j, j]
    ok = _finite(L) & (np.diagonal(L, 0, -2, -1) > 0.0).all(axis=-1)
    if not ok.all():
        L[~ok] = np.nan
    return L


def inv_lower(L):
    """Inverse of each lower triangular block, by forward substitution
    across the batch."""
    Li = np.zeros_like(L)
    for i in range(L.shape[-1]):
        Li[..., i, i] = 1.0 / L[..., i, i]
        for j in range(i):
            t = L[..., i, j] * Li[..., j, j]
            for m in range(j + 1, i):
                t = t + L[..., i, m] * Li[..., m, j]
            Li[..., i, j] = -t * Li[..., i, i]
    return Li


def congruence(R, X, trans=False):
    """R X R^T of each block for symmetric X, or R^T X R when `trans`."""
    if R.shape[-1] != 2:
        Rt = np.swapaxes(R, -1, -2)
        return Rt @ X @ R if trans else R @ X @ Rt
    r00, r01, r10, r11 = R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1]
    if trans:
        r01, r10 = r10, r01
    x0, x1, x2 = X[..., 0, 0], X[..., 0, 1], X[..., 1, 1]
    t00, t01 = r00 * x0 + r01 * x1, r00 * x1 + r01 * x2
    t10, t11 = r10 * x0 + r11 * x1, r10 * x1 + r11 * x2
    out = np.empty(np.broadcast_shapes(R.shape, X.shape))
    out[..., 0, 0] = t00 * r00 + t01 * r01
    out[..., 0, 1] = out[..., 1, 0] = t00 * r10 + t01 * r11
    out[..., 1, 1] = t10 * r10 + t11 * r11
    return out
