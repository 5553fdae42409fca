"""Batched kernels for stacks of small blocks (..., k, k): eigenvalues,
the eigendecomposition, the Cholesky factor and its inverse, and the
congruence R X R^T.

Sizes k <= 3 use closed forms, so no block of size 3 or less reaches
LAPACK. At k = 3 the eigenvalues follow Eberly ("A Robust Eigensolver for
3 x 3 Symmetric Matrices", 2014): the block is scaled by a power of two
near its largest |entry| and shifted by trace/3, the isolated root comes
from the trigonometric formula, its eigenvector from the largest row of
the adjugate of A - lam I (the largest cross product of two of its rows),
and the other two from the 2 x 2 problem left on the orthogonal
complement, in the hypot form of k = 2. Larger blocks go to LAPACK. From
k = 3 up the blocks go in fixed-size chunks, so the temporaries stay small
however long the batch. These eigenvalues are accurate relative to the
largest one; `gram_eigh` refines an eigendecomposition of G^T G by a
one-sided Jacobi sweep on G Q so that each is accurate relative to itself.

The Cholesky factor and its inverse are column loops across the batch. For
the generalized problem (A, M), M = L L^T reduces it to L^-1 A L^-T as
LAPACK `sygvd` does, and an M that is not positive definite raises
`np.linalg.LinAlgError`; the k <= 2 closed forms assume M spd unchecked.
A block with a non-finite entry has NaN eigenvalues at every size, and at
k = 3 NaN eigenvectors too.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 4096
_LOWER3 = ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2))


def _finite(*mats):
    """True for each block whose entries are finite in every argument."""
    ok = np.ones(np.shape(mats[0])[:-2], dtype=bool)
    for a in mats:
        if not np.isfinite(a).all():
            ok &= np.isfinite(a).all(axis=(-2, -1))
    return ok


def _chunked(fun, shapes, *mats):
    """fun over (N, k, k) chunks of the stacked blocks. fun returns one
    array (N,) + shape per entry of `shapes`; each comes back shaped
    (...) + shape. A block with a non-finite entry goes to fun as the
    identity and gets NaN."""
    k = mats[0].shape[-1]
    flat = [np.reshape(a, (-1, k, k)) for a in mats]
    outs = [np.empty((len(flat[0]),) + shape) for shape in shapes]
    for i in range(0, len(flat[0]), _CHUNK):
        part = [a[i:i + _CHUNK] for a in flat]
        bad = ~_finite(*part)
        if bad.any():
            part = [np.where(bad[:, None, None], np.eye(k), a) for a in part]
        for out, res in zip(outs, fun(*part)):
            out[i:i + _CHUNK] = res
            out[i:i + _CHUNK][bad] = np.nan
    lead = mats[0].shape[:-2]
    return [out.reshape(lead + shape) for out, shape in zip(outs, shapes)]


def _pair(a, b, c):
    """Eigenvalues h - r <= h + r of the 2 x 2 blocks [[a, b], [b, c]]."""
    h = 0.5 * (a + c)
    r = np.hypot(0.5 * (a - c), b)
    return h - r, h + r


def _rotation(a, b, c):
    """(cos, sin) of the eigenvector of [[a, b], [b, c]] that belongs to
    the larger eigenvalue; (-sin, cos) belongs to the smaller."""
    th = 0.5 * np.arctan2(2.0 * b, a - c)
    return np.cos(th), np.sin(th)


def _adjugate(a00, a10, a20, a11, a21, a22):
    """Lower triangle of the adjugate of symmetric 3 x 3 blocks, in the
    order of the arguments; its rows are cross products of their rows."""
    return (a11 * a22 - a21 * a21, a21 * a20 - a10 * a22,
            a10 * a21 - a11 * a20, a00 * a22 - a20 * a20,
            a10 * a20 - a00 * a21, a00 * a11 - a10 * a10)


def _eig3(a, vectors=False):
    """Ascending eigenvalues (N, 3) of finite symmetric blocks (N, 3, 3),
    read from the lower triangle, and with `vectors` their orthonormal
    eigenvectors in the columns of (N, 3, 3); otherwise None."""
    # scaled by a power of two near the largest |entry|, so the scaling
    # and its undoing are exact
    lower = [a[:, i, j] for i, j in _LOWER3]
    top = np.abs(lower[0])
    for x in lower[1:]:
        top = np.maximum(top, np.abs(x))
    e = np.clip(np.frexp(top)[1], -1000, 1023)
    down = np.ldexp(1.0, -e)
    a00, a10, a20, a11, a21, a22 = (x * down for x in lower)
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (a10 * a10 + a20 * a20 + a21 * a21)) / 6.0)
    c00, c10, c20 = _adjugate(b00, a10, a20, b11, a21, b22)[:3]
    det = b00 * c00 + a10 * c10 + a20 * c20
    pp = np.where(p > 0.0, p, 1.0)  # p = 0 only for B = 0, where det = 0
    half = np.clip(0.5 * det / (pp * pp * pp), -1.0, 1.0)
    # (B/p)'s eigenvalues are the roots of x^3 - 3x - 2 half; the largest
    # when half >= 0, else the smallest, is at least sqrt(3) from the others
    iso = p * np.copysign(2.0 * np.cos(np.arccos(np.abs(half)) / 3.0), half)

    # adj(B - iso I) = (product of the other two) v v^T; its row with the
    # largest diagonal entry, divided by that entry, is the most accurate
    c = _adjugate(b00 - iso, a10, a20, b11 - iso, a21, b22 - iso)
    rows = ((c[0], c[1], c[2]), (c[1], c[3], c[4]), (c[2], c[4], c[5]))
    pivot = [c[0], c[3], c[5]]
    v, piv = rows[0], pivot[0]
    for row, d in zip(rows[1:], pivot[1:]):
        take = np.abs(d) > np.abs(piv)
        v = [np.where(take, x, y) for x, y in zip(row, v)]
        piv = np.where(take, d, piv)
    # an adjugate of zeros: B - iso I = 0 to rounding, any v will do
    none = piv == 0.0
    piv = np.where(none, 1.0, piv)
    v = [np.where(none, float(i == 0), x / piv) for i, x in enumerate(v)]
    nv = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    v0, v1, v2 = v[0] / nv, v[1] / nv, v[2] / nv

    # orthonormal U and W = v x U spanning the complement of v
    big = np.abs(v0) > np.abs(v1)
    u0, u1, u2 = (np.where(big, -v2, 0.0), np.where(big, 0.0, v2),
                  np.where(big, v0, -v1))
    nu = np.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
    u0, u1, u2 = u0 / nu, u1 / nu, u2 / nu
    w0, w1, w2 = v1 * u2 - v2 * u1, v2 * u0 - v0 * u2, v0 * u1 - v1 * u0

    def times_b(x0, x1, x2):
        return (b00 * x0 + a10 * x1 + a20 * x2,
                a10 * x0 + b11 * x1 + a21 * x2,
                a20 * x0 + a21 * x1 + b22 * x2)

    bu, bw = times_b(u0, u1, u2), times_b(w0, w1, w2)
    m00 = u0 * bu[0] + u1 * bu[1] + u2 * bu[2]
    m10 = w0 * bu[0] + w1 * bu[1] + w2 * bu[2]
    m11 = w0 * bw[0] + w1 * bw[1] + w2 * bw[2]
    m = _pair(m00, m10, m11)
    cols = None
    if vectors:
        cs, sn = _rotation(m00, m10, m11)
        cols = [(cs * w0 - sn * u0, cs * w1 - sn * u1, cs * w2 - sn * u2),
                (cs * u0 + sn * w0, cs * u1 + sn * w1, cs * u2 + sn * w2),
                (v0, v1, v2)]
    w, Q = _ascending([*m, iso], cols)
    return (w + q[:, None]) * np.ldexp(1.0, e)[:, None], Q


def _ascending(w, cols=None):
    """The eigenvalues w (k arrays) sorted by exchanges into (..., k), and
    with them the eigenvectors `cols` (k columns of k component arrays)
    into the columns of (..., k, k); otherwise None."""
    w = list(w)
    cols = None if cols is None else [list(c) for c in cols]
    for n in range(len(w) - 1, 0, -1):
        for i, j in zip(range(n), range(1, n + 1)):
            if cols is not None:
                swap, lo, hi = w[i] > w[j], cols[i], cols[j]
                cols[i] = [np.where(swap, y, x) for x, y in zip(lo, hi)]
                cols[j] = [np.where(swap, x, y) for x, y in zip(lo, hi)]
            w[i], w[j] = np.minimum(w[i], w[j]), np.maximum(w[i], w[j])
    if cols is None:
        return np.stack(w, axis=-1), None
    return (np.stack(w, axis=-1),
            np.stack([np.stack(c, axis=-1) for c in cols], axis=-1))


def _values(a):
    """Ascending eigenvalues (N, k) of a chunk of finite blocks, k >= 3."""
    return _eig3(a)[0] if a.shape[-1] == 3 else np.linalg.eigvalsh(a)


def eigvalsh(mats):
    """Ascending eigenvalues (..., k) of each block."""
    mats = np.asarray(mats, dtype=float)
    k = mats.shape[-1]
    if k > 2:
        return _chunked(lambda a: (_values(a),), ((k,),), mats)[0]
    out = np.empty(mats.shape[:-1])
    if k == 1:
        out[..., 0] = mats[..., 0, 0]
    else:
        with np.errstate(invalid="ignore"):  # inf - inf of a non-finite block
            out[..., 0], out[..., 1] = _pair(mats[..., 0, 0], mats[..., 0, 1],
                                             mats[..., 1, 1])
    out[~_finite(mats)] = np.nan
    return out


def eig_min(mats):
    """Smallest eigenvalue of each block."""
    return eigvalsh(mats)[..., 0]


def eig_max(mats):
    """Largest eigenvalue of each block."""
    return eigvalsh(mats)[..., -1]


def gen_eig_max(A, M):
    """Largest generalized eigenvalue of each pair (A, M), M spd."""
    A, M = np.asarray(A, dtype=float), np.asarray(M, dtype=float)
    k = A.shape[-1]
    if k > 2:
        def whitened(a, m):
            L = cholesky(m)
            if np.isnan(L[:, 0, 0]).any():
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            w = _values(congruence(inv_lower(L), a))
            return (w[:, -1],)

        return _chunked(whitened, ((),), A, M)[0]
    with np.errstate(invalid="ignore"):  # as in eigvalsh
        if k == 1:
            out = A[..., 0, 0] / M[..., 0, 0]
        else:
            # roots of the quadratic det(A - g M) = a g^2 - b g + c
            a = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] ** 2
            b = (A[..., 0, 0] * M[..., 1, 1] + A[..., 1, 1] * M[..., 0, 0]
                 - 2.0 * A[..., 0, 1] * M[..., 0, 1])
            c = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] ** 2
            disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
            out = (b + disc) / (2.0 * a)
    return np.where(_finite(A, M), out, np.nan)


def eigh(mats):
    """Ascending eigenvalues (..., k) and orthonormal eigenvectors, in the
    columns of (..., k, k), of each block."""
    k = mats.shape[-1]
    if k == 3:
        return tuple(_chunked(lambda a: _eig3(a, vectors=True),
                              ((3,), (3, 3)), mats))
    if k != 2:
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
    cs, sn = _rotation(a, b, c)  # belongs to w[1]
    Q[..., 0, 1] = Q[..., 1, 0] = cs
    Q[..., 1, 1] = sn
    Q[..., 0, 0] = -sn
    return w, Q


def gram_eigh(G, Q):
    """Ascending eigenvalues and orthonormal eigenvectors of each G^T G,
    refined from eigenvectors Q that are right to rounding by one cyclic
    one-sided Jacobi sweep (Hestenes) over the columns of G Q. Each
    eigenvalue is the squared norm of its column, so it keeps its relative
    accuracy however ill-conditioned G^T G is; an eigensolver on G^T G
    itself is accurate only relative to the largest."""
    k = Q.shape[-1]
    Y = G @ Q
    # column i of Y and of Q as k component arrays each
    y = [[Y[..., r, i] for r in range(k)] for i in range(k)]
    q = [[Q[..., r, i] for r in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a = sum(x * x for x in y[i])
            b = sum(x * x for x in y[j])
            g = sum(x * z for x, z in zip(y[i], y[j]))
            # the rotation that zeroes g (Golub and Van Loan, Alg. 8.5.1)
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                zeta = (b - a) / (2.0 * g)
                t = np.copysign(1.0, zeta) / (np.abs(zeta)
                                              + np.hypot(1.0, zeta))
            t = np.where(g == 0.0, 0.0, t)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            for z in (y, q):
                z[i], z[j] = ([c * u - s * v for u, v in zip(z[i], z[j])],
                              [s * u + c * v for u, v in zip(z[i], z[j])])
    return _ascending([sum(x * x for x in col) for col in y], q)


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
