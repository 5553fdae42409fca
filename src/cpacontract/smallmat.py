"""Batched kernels for small blocks in component layout: eigenvalues, the
eigendecomposition, the Cholesky factor and its inverse, and congruences.

A batch of symmetric or lower triangular k x k blocks is k(k+1)/2 arrays,
one per lower-triangle entry in `lower_pairs` order, the package's one
block-entry order: the columns of `assembly`'s svec rows and of `cpa`'s
metric values are components as they stand. Eigenvalues come back as k
arrays, ascending, and eigenvectors as k columns of k arrays.

Sizes k <= 3 use closed forms, and no block of size 3 or less reaches a
stacked matmul, nor LAPACK but in `eigh` at k = 1 (which only tests call
there). At k = 3 the eigenvalues follow Eberly ("A
Robust Eigensolver for 3 x 3 Symmetric Matrices", 2014): the block is
scaled by a power of two near its largest |entry| and shifted by trace/3,
the isolated root comes from the trigonometric formula, its eigenvector
from the largest row of the adjugate of A - lam I, and the other two from
the 2 x 2 problem left on the orthogonal complement. Larger sizes go to
LAPACK through one adapter, `_stacked`. From k = 3 up the eigen-solves run
over chunks of `_CHUNK` blocks, so the temporaries stay small. These
eigenvalues are accurate relative to the largest one; `gram_eigh` refines
them by a one-sided Jacobi sweep so that each is accurate relative to
itself. The factors and products sum their terms in a fixed order
(`_dot`), skipping structural zeros. For the generalized problem (A, M),
M = L L^T reduces it to L^-1 A L^-T as LAPACK `sygvd` does, and an M that
is not positive definite raises `np.linalg.LinAlgError`; the k <= 2 closed
forms assume M spd unchecked. A block with a non-finite entry has NaN
eigenvalues at every size, and at k = 3 NaN eigenvectors too.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 4096


def lower_pairs(k):
    """The entries (i, j), i >= j, of a block's components, by column."""
    return [(i, j) for j in range(k) for i in range(j, k)]


def _size(a):
    """k of the k(k+1)/2 components a."""
    return math.isqrt(2 * len(a))


def _at(a, i, j):
    """Entry (i, j) of symmetric or lower triangular components a; None
    above the diagonal of a triangular factor."""
    if i < j:
        return None
    k = _size(a)
    return a[j * k - j * (j - 1) // 2 + i - j]


def _dot(terms):
    """The sum of the products x * y of `terms` in their order, skipping a
    term whose factor is None."""
    out = None
    for x, y in terms:
        if x is not None and y is not None:
            out = x * y if out is None else out + x * y
    return out


def _stacked(a):
    """The adapter to LAPACK: symmetric components as (..., k, k)."""
    k = _size(a)
    out = np.empty(np.shape(a[0]) + (k, k))
    for (i, j), x in zip(lower_pairs(k), a):
        out[..., i, j] = out[..., j, i] = x
    return out


def _finite(*mats):
    """True for each block whose entries are finite in every argument."""
    ok = np.ones(np.shape(mats[0][0]), dtype=bool)
    for a in mats:
        for x in a:
            if not np.isfinite(x).all():
                ok &= np.isfinite(x)
    return ok


def _chunked(fun, count, *mats):
    """fun over chunks of at most `_CHUNK` blocks of the components `mats`;
    fun returns `count` arrays of one value per block. A block with a
    non-finite entry goes to fun as the identity and gets NaN."""
    k = _size(mats[0])
    lead = np.shape(mats[0][0])
    flat = [[np.reshape(x, -1) for x in a] for a in mats]
    n = math.prod(lead)
    outs = [np.empty(n) for _ in range(count)]
    for i in range(0, n, _CHUNK):
        part = [[x[i:i + _CHUNK] for x in a] for a in flat]
        bad = ~_finite(*part)
        if bad.any():
            part = [[np.where(bad, float(p == q), x)
                     for (p, q), x in zip(lower_pairs(k), a)] for a in part]
        for out, res in zip(outs, fun(*part)):
            out[i:i + _CHUNK] = res
            out[i:i + _CHUNK][bad] = np.nan
    return [out.reshape(lead) for out in outs]


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


def _eig3(lower3, vectors=False):
    """Ascending eigenvalues (3 arrays) of finite symmetric 3 x 3 blocks,
    and with `vectors` their orthonormal eigenvectors (3 columns of 3
    arrays); otherwise None."""
    # scaled by a power of two near the largest |entry|, so the scaling
    # and its undoing are exact
    top = np.abs(lower3[0])
    for x in lower3[1:]:
        top = np.maximum(top, np.abs(x))
    e = np.clip(np.frexp(top)[1], -1000, 1023)
    down = np.ldexp(1.0, -e)
    a00, a10, a20, a11, a21, a22 = (x * down for x in lower3)
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
    scale = np.ldexp(1.0, e)
    return [(x + q) * scale for x in w], Q


def _ascending(w, cols=None):
    """The eigenvalues w (k arrays) sorted by exchanges, and with them the
    eigenvectors `cols` (k columns of k arrays); otherwise None."""
    w = list(w)
    cols = None if cols is None else [list(c) for c in cols]
    for n in range(len(w) - 1, 0, -1):
        for i, j in zip(range(n), range(1, n + 1)):
            if cols is not None:
                swap, lo, hi = w[i] > w[j], cols[i], cols[j]
                cols[i] = [np.where(swap, y, x) for x, y in zip(lo, hi)]
                cols[j] = [np.where(swap, x, y) for x, y in zip(lo, hi)]
            w[i], w[j] = np.minimum(w[i], w[j]), np.maximum(w[i], w[j])
    return w, cols


def _values(a):
    """Ascending eigenvalues of a chunk of finite blocks, k >= 3."""
    if len(a) == 6:
        return _eig3(a)[0]
    return list(np.moveaxis(np.linalg.eigvalsh(_stacked(a)), -1, 0))


def eigvalsh(a):
    """Ascending eigenvalues of each block: k arrays."""
    k = _size(a)
    if k > 2:
        return _chunked(_values, k, a)
    with np.errstate(invalid="ignore"):  # inf - inf of a non-finite block
        w = [np.array(a[0], float)] if k == 1 else list(_pair(*a))
    ok = _finite(a)
    return w if ok.all() else [np.where(ok, x, np.nan) for x in w]


def eig_min(a):
    """Smallest eigenvalue of each block."""
    return eigvalsh(a)[0]


def eig_max(a):
    """Largest eigenvalue of each block."""
    return eigvalsh(a)[-1]


def gen_eig_max(A, M):
    """Largest generalized eigenvalue of each pair (A, M), M spd."""
    k = _size(A)
    if k > 2:
        def whitened(a, m):
            L = cholesky(m)
            if np.isnan(L[0]).any():
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return _values(congruence(inv_lower(L), a))[-1:]

        return _chunked(whitened, 1, A, M)[0]
    with np.errstate(invalid="ignore"):  # as in eigvalsh
        if k == 1:
            out = A[0] / M[0]
        else:
            # roots of the quadratic det(A - g M) = a g^2 - b g + c
            a = M[0] * M[2] - M[1] ** 2
            b = A[0] * M[2] + A[2] * M[0] - 2.0 * A[1] * M[1]
            c = A[0] * A[2] - A[1] ** 2
            disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
            out = (b + disc) / (2.0 * a)
    return np.where(_finite(A, M), out, np.nan)


def eigh(a):
    """Ascending eigenvalues (k arrays) and orthonormal eigenvectors (k
    columns of k arrays) of each block."""
    k = _size(a)
    if k == 3:
        def flat(x):
            w, Q = _eig3(x, vectors=True)
            return w + [y for col in Q for y in col]

        out = _chunked(flat, 12, a)
        return out[:3], [out[3:6], out[6:9], out[9:]]
    if k != 2:
        w, Q = np.linalg.eigh(_stacked(a))
        return ([w[..., i] for i in range(k)],
                [[Q[..., r, c] for r in range(k)] for c in range(k)])
    a, b, c = a
    sm, rt = a + c, np.hypot(a - c, 2.0 * b)
    w0, w1 = 0.5 * (sm - rt), 0.5 * (sm + rt)
    # the eigenvalue of smaller modulus from the determinant, as LAPACK's
    # dlaev2 does
    with np.errstate(divide="ignore", invalid="ignore"):
        w0 = np.where(sm > 0.0, (a * c - b * b) / w1, w0)
        w1 = np.where(sm < 0.0, (a * c - b * b) / w0, w1)
    cs, sn = _rotation(a, b, c)  # belongs to w1
    return [w0, w1], [[-sn, cs], [cs, sn]]


def gram_eigh(y, q):
    """Ascending eigenvalues and orthonormal eigenvectors of each G^T G,
    refined from its eigenvectors q (k columns of k arrays) that are right
    to rounding by one cyclic one-sided Jacobi sweep (Hestenes) over the
    columns y of G q. Each eigenvalue is the squared norm of its column,
    so it keeps its relative accuracy however ill-conditioned G^T G is; an
    eigensolver on G^T G itself is accurate only relative to the largest."""
    k = len(q)
    y, q = [list(c) for c in y], [list(c) for c in q]
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


def cholesky(a):
    """Lower factor L with L L^T = block, as components, column by column
    across the batch; a block that is not positive definite, or not
    finite, gets an all-NaN factor."""
    k = _size(a)
    L = [None] * len(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        for n, (i, j) in enumerate(lower_pairs(k)):
            t = a[n]
            for m in range(j):
                t = t - _at(L, i, m) * _at(L, j, m)
            L[n] = np.sqrt(t) if i == j else t / _at(L, j, j)
    # a non-finite entry of L below the diagonal makes a later diagonal
    # entry NaN or inf, so the diagonal decides
    ok = np.ones(np.shape(L[0]), dtype=bool)
    for i in range(k):
        d = _at(L, i, i)
        ok &= (d > 0.0) & (d < np.inf)
    if not ok.all():
        L = [np.where(ok, x, np.nan) for x in L]
    return L


def inv_lower(L):
    """Inverse of each lower triangular block, by forward substitution
    across the batch."""
    k = _size(L)
    Li = [None] * len(L)
    for i in range(k):
        Li[i * k - i * (i - 1) // 2] = 1.0 / _at(L, i, i)
        for j in range(i):
            t = _dot((_at(L, i, m), _at(Li, m, j)) for m in range(j, i))
            Li[j * k - j * (j - 1) // 2 + i - j] = -t * _at(Li, i, i)
    return Li


def times(R, x, trans=False):
    """R x of each block, or R^T x when `trans`, for lower triangular
    components R and a vector x of k arrays."""
    k = len(x)
    return [_dot(((_at(R, m, i) if trans else _at(R, i, m)), x[m])
                 for m in range(k)) for i in range(k)]


def congruence(R, X, trans=False):
    """R X R^T of each block, or R^T X R when `trans`, for lower
    triangular R and symmetric X, both as components."""
    k = _size(R)
    RX = [times(R, [_at(X, max(m, j), min(m, j)) for m in range(k)], trans)
          for j in range(k)]  # the columns of R X
    rows = [times(R, [c[j] for c in RX], trans) for j in range(k)]
    return [rows[j][i] for i, j in lower_pairs(k)]  # the upper triangle
