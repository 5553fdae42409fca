"""Primal-dual interior-point solver for block-diagonal SDPs with many
small blocks: minimize c.y subject to sum_i F_i y_i - F_0 >= 0.

The iteration is a Nesterov-Todd scaled path-following method that keeps
the slack S = sum F_i y_i - F_0 exactly primal-feasible and drives the
dual variable Z towards complementarity. One loop, `_ipm`, runs both
phases. Phase 1 adds tau, a last variable whose coefficient is the
identity in every block, starts from y = 0 with tau large enough for S to
be interior, and minimizes tau until it is negative; phase 2 minimizes c.y
from the strictly feasible point that gives. The phase is data (tau's
exit level and floor), and one helper backtracks both the primal and the
dual step. Each cone has its own kernels.
The size-1 blocks of every family form one linear (LP) cone, scaled by
d = z/s, with ratio-test step lengths. The blocks of each size k >= 2 form
a matrix cone, scaled from a factor: L = chol(S), one eigendecomposition
of L^T Z L, and F = lam^(1/4) Q^T L^-1 with W^-1 = F^T F; directions and
step lengths are taken in the scaled space F S F^T = diag(lam^(1/2)), so
the predictor and corrector reuse the factor. The small-block kernels,
with closed forms at k <= 3, come from `smallmat`; above k = 2 one Jacobi
sweep on R^T L Q, with Z = R R^T, keeps every lam accurate relative to
itself.

The Schur complement over the m variables is formed from a fixed scatter
pattern built once per solve: the matrix blocks are grouped per simplex,
each group's local Gram matrix is computed in one batch and one bincount
adds it into G, and the scalar blocks add a fixed sparse map of d. G is
factored by a banded Cholesky in the variable order that the assembly
reads off the mesh, at every size, with the few variables that touch every
simplex eliminated as a dense border (all of G without an order); both
parts take their ridge from the mean diagonal of the whole G.

`certify` re-checks a candidate y apart from the solver's iterates and
cones: it slices one product A y - F0 by the groups' row ranges and takes
the smallest eigenvalues with `smallmat.eig_min`, the one batched eigen
kernel, at every block size. `Solution.block_min_eigs` is its answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import row_entries, svec, svec_scale, unsvec
from .errors import DimensionMismatchError
from .smallmat import (cholesky, congruence, eig_min, eigh, gram_eigh,
                       inv_lower)

_MAX_BAND = 6000


@dataclass(frozen=True)
class SolverSettings:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if self.feas_tol <= 0 or self.gap_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max iterations must be at least 1")


@dataclass
class Solution:
    status: str
    y: np.ndarray
    objective: float
    block_min_eigs: np.ndarray
    iterations: int
    duality_gap: float
    dual_ray: dict | None = None
    notes: list = field(default_factory=list)
    schur: dict | None = None


@dataclass
class CertifyReport:
    min_eigs: np.ndarray
    flagged: list
    tol: float

    @property
    def clean(self):
        return not self.flagged


# ---------------------------------------------------------------------------
# cones: every scalar block in one linear cone, matrix blocks by size


def _max_step(g):
    """Largest alpha with 1 + alpha*g >= 0 for every g: g are the ratios
    dx/x of a linear cone or the eigenvalues of a whitened direction."""
    g = float(g.min(initial=0.0))
    return -1.0 / g if g < 0.0 else np.inf


class _LinearCone:
    """The size-1 blocks of every family as one vector (an LP cone, as in
    SDPA), scaled at the iterate (s, z). Its Nesterov-Todd scaling is
    d = z/s: W^-1 x W^-1 = d x."""

    def __init__(self, s, z, factors=None):
        self.s, self.z = s, z
        self.d = self.schur = self.w2 = z / s
        self.s_inv = 1.0 / s

    @staticmethod
    def factor(x):
        """x itself when it is interior, else None."""
        return x if np.isfinite(x).all() and x.min(initial=1.0) > 0.0 else None

    def direction(self, ds, mu):
        """(ds, dz) for the primal step ds, centred on mu."""
        return ds, mu * self.s_inv - self.z - self.d * ds

    def steps(self, dirn):
        return _max_step(dirn[0] / self.s), _max_step(dirn[1] / self.z)

    def gap(self, dirn, ap, ad):
        return float(((self.s + ap * dirn[0]) * (self.z + ad * dirn[1])).sum())

    def dz(self, dirn):
        return dirn[1]


class _MatrixCone:
    """Blocks of one size k >= 2, scaled at the iterate (S, Z). The
    Nesterov-Todd scaling is built from a factor (Todd, Toh and Tutuncu,
    SIAM J. Optim. 8, 1998): L = chol(S), L^T Z L = Q diag(lam) Q^T and
    F = lam^(1/4) Q^T L^-1. Then W^-1 = F^T F and F S F^T = F^-T Z F^-1 =
    diag(v), v = lam^(1/2), so directions and step lengths are taken in
    that scaled space, with no further factor. L^T Z L = G^T G for
    G = R^T L, so lam are the squared singular values of G. `factors` are
    chol(S) and chol(Z) when the interior tests already took them."""

    def __init__(self, S, Z, factors=(None, None)):
        L, LZ = factors
        L = cholesky(S) if L is None else L
        lam, Q = eigh(congruence(L, Z, trans=True))
        if L.shape[-1] > 2:
            # above k = 2 eigh is accurate only relative to the largest lam,
            # and S Z can be ill-conditioned far beyond 1/eps; the sweep on
            # G Q makes every lam accurate relative to itself
            LZ = cholesky(Z) if LZ is None else LZ
            lam, Q = gram_eigh(np.swapaxes(LZ, -1, -2) @ L, Q)
        self.v = np.sqrt(lam)
        R = np.swapaxes(Q, -1, -2) @ inv_lower(L)  # R S R^T = I
        self.F = self.schur = np.sqrt(self.v)[..., None] * R
        self.s_inv = congruence(R, np.eye(R.shape[-1]), trans=True)  # R^T R

    @staticmethod
    def factor(x):
        """chol(x), or None when a block is not positive definite."""
        L = cholesky(x)
        return L if np.isfinite(L).all() else None

    @property
    def w2(self):
        eye = np.eye(self.F.shape[-1])
        return congruence(congruence(self.F, eye, trans=True), eye)

    def direction(self, dS, mu):
        """(F dS F^T, F^-T dZ F^-1) for the primal step dS, centred on mu:
        the second is mu V^-1 - V - F dS F^T with V = diag(v)."""
        X = congruence(self.F, dS)
        dZ = -X
        np.einsum("...ii->...i", dZ)[...] += mu / self.v - self.v
        return X, dZ

    def steps(self, dirn):
        r = 1.0 / np.sqrt(self.v)
        g = eig_min(np.stack(dirn) * (r[..., :, None] * r[..., None, :]))
        return _max_step(g[0]), _max_step(g[1])

    def gap(self, dirn, ap, ad):
        """<V + ap X, V + ad dZ> for the scaled direction (X, dZ)."""
        X, dZ = dirn
        v = self.v
        return float((v * v).sum() + ap * np.einsum("nii,ni->", X, v)
                     + ad * np.einsum("nii,ni->", dZ, v)
                     + ap * ad * (X * dZ).sum())

    def dz(self, dirn):
        return congruence(self.F, dirn[1], trans=True)


def _svec_congruence(F):
    """P per block with P svec(X) = svec(F X F^T): U^T (F kron F) U for the
    isometry U with vec(X) = U svec(X), in closed form at k = 2."""
    N, k, _ = F.shape
    if k == 2:
        a, b, c, d = F[:, 0, 0], F[:, 0, 1], F[:, 1, 0], F[:, 1, 1]
        rt2 = np.sqrt(2.0)
        return np.stack([a * a, rt2 * a * b, b * b,
                         rt2 * a * c, a * d + b * c, rt2 * b * d,
                         c * c, rt2 * c * d, d * d], axis=1).reshape(N, 3, 3)
    U = unsvec(np.eye(k * (k + 1) // 2), k).reshape(-1, k * k).T
    kron = F[:, :, None, :, None] * F[:, None, :, None, :]
    return U.T @ kron.reshape(N, k * k, k * k) @ U


# ---------------------------------------------------------------------------
# Schur complement: fixed scatter pattern and factorization


class _FactorizationError(Exception):
    pass


def _frame_classes(A, cones, m):
    """Frames of the Schur plan, batched into classes.

    `cones` are the matrix cones as (cone index, rows of A, simplex, svdim).
    A frame is all their blocks of one simplex, or one block without a
    simplex; its local columns are the sorted distinct variables it touches.
    Frames with the same width and the same block count from each cone form
    a class. Per class: `cols` (frames, width) variables, and `parts`, one
    (cone index, block selection, dense local rows (blocks, svdim, width),
    blocks per frame, svdim) per cone with blocks in the class.
    """
    frame_of, nz = [], []
    lone = max((int(c[2].max()) + 1 for c in cones if len(c[2])), default=0)
    for _, rows, simplex, d in cones:
        f = np.array(simplex, dtype=np.int64)
        solo = f < 0
        f[solo] = lone + np.arange(solo.sum())
        lone += int(solo.sum())
        frame_of.append(f)
        row, col, val = row_entries(A, rows)
        nz.append((*np.divmod(row, d), col.astype(np.int64), val))
    if not cones:
        return []
    ukey, inv = np.unique(np.concatenate(
        [f[e[0]] * m + e[2] for f, e in zip(frame_of, nz)]), return_inverse=True)
    ufr, ucol = np.divmod(ukey, m)
    width = np.bincount(ufr, minlength=lone)
    start = np.cumsum(width) - width
    local = np.split((np.arange(len(ukey)) - start[ufr])[inv.ravel()],
                     np.cumsum([len(e[0]) for e in nz])[:-1])
    sig, cls_of = np.unique(np.stack(
        [width] + [np.bincount(f, minlength=lone) for f in frame_of], axis=1),
        axis=0, return_inverse=True)
    cls_of = cls_of.ravel()
    classes = []
    for c in np.nonzero(sig[:, 0])[0]:
        w, frames, parts = int(sig[c, 0]), np.nonzero(cls_of == c)[0], []
        for gi in np.nonzero(sig[c, 1:])[0]:
            (blk, q, _, data), d = nz[gi], cones[gi][3]
            b = np.nonzero(cls_of[frame_of[gi]] == c)[0]
            b = b[np.argsort(frame_of[gi][b], kind="stable")]
            slot = np.full(len(frame_of[gi]), -1)
            slot[b] = np.arange(len(b))
            on = slot[blk] >= 0
            A_loc = np.bincount((slot[blk[on]] * d + q[on]) * w + local[gi][on],
                                weights=data[on], minlength=len(b) * d * w)
            if np.array_equal(b, np.arange(b[0], b[0] + len(b))):
                b = slice(b[0], b[0] + len(b))
            parts.append((cones[gi][0], b, A_loc.reshape(-1, d, w),
                          int(sig[c, 1 + gi]), d))
        rows = sum(p[3] * p[4] for p in parts)
        classes.append({"cols": ucol[start[frames][:, None] + np.arange(w)],
                        "parts": parts, "C": np.empty((len(frames), rows, w)),
                        "G": np.empty((len(frames), w, w))})
    return classes


def _scalar_pairs(A, rows):
    """The terms a_i a_j, i <= j, of the outer product of each of A's rows
    `rows`, grouped by row: (columns i, columns j, a_i a_j, terms per row).
    `stack_problem` sorts each row's columns."""
    row, col, val = row_entries(A, rows)
    q = np.bincount(row, minlength=rows.stop - rows.start)
    e = np.arange(len(col), dtype=A.indptr.dtype)
    reps = np.repeat(np.cumsum(q), q) - e  # entries from e to its row's end
    first = np.repeat(e, reps)
    second = first + (np.arange(len(first), dtype=e.dtype)
                      - np.repeat(np.cumsum(reps) - reps, reps))
    return (col[first], col[second], val[first] * val[second],
            q * (q + 1) // 2)


class _SchurPlan:
    """Schur complement G = A^T blockdiag(W^-1 (x) W^-1) A from a fixed
    scatter pattern: the sparsity-exploiting formation of Fujisawa, Kojima
    and Nakata (Math. Program. 79, 1997).

    Matrix blocks: each iteration forms C = P A per block over its frame's
    local columns, with P svec(X) = svec(F X F^T) for the cone's factor F,
    C^T C per frame as one batch per class, and scatters the lower
    triangles with one `np.bincount` to precomputed targets. Scalar blocks
    store no rows: their part of G is sum_r d_r a_r a_r^T, a fixed linear
    map K of the scaling d onto the targets their rows' pairs reach.
    Variables go in the mesh's `order`. The leading `ns` form a band
    factored by `cholesky_banded`; the trailing `border` variables keep
    full rows of G and are eliminated densely. Without an order every
    variable is in the border, so G is one dense lower triangle. The
    phase-1 variable tau is the last border variable; its column
    A^T svec(W^{-2}) comes from the caller, so both phases share the plan.
    """

    def __init__(self, segs, order=None, border=0):
        self.m = m = segs.m
        self.classes = _frame_classes(
            segs.A, [(ci, sl, segs.simplex[ci], k * (k + 1) // 2)
                     for ci, k, _, sl in segs.seg_slices() if k > 1], m)
        if order is None:  # no band: every variable is in the border
            order, border = np.arange(m), m
        self.order = np.append(order, m).astype(np.int64)
        self.ns, self.nb = m - border, border + 1
        self.pos = np.empty(m + 1, dtype=np.int64)
        self.pos[self.order] = np.arange(m + 1)
        pairs = []  # (row, column) positions of the lower-triangle terms
        for cls in self.classes:
            w = cls["cols"].shape[1]
            il0, il1 = np.tril_indices(w)
            cls["lower"] = il0 * w + il1
            pairs.append((self.pos[cls["cols"][:, il0]].ravel(),
                          self.pos[cls["cols"][:, il1]].ravel()))
        if segs.sizes[0] == 1:
            ci, cj, coef, per_row = _scalar_pairs(segs.A, segs.rows[0])
            pos = self.pos.astype(np.int32)  # halves the temporaries
            pairs.append((pos[ci], pos[cj]))
            del ci, cj, pos

        def hi_lo(a, b):
            return (np.maximum(a, b).astype(np.int64),
                    np.minimum(a, b).astype(np.int64))

        self.bandwidth = 0
        for a, b in pairs:
            hi, lo = hi_lo(a, b)
            self.bandwidth = max(self.bandwidth,
                                 int((hi - lo)[hi < self.ns].max(initial=0)))
        if self.bandwidth > _MAX_BAND:
            raise _FactorizationError(
                f"Schur bandwidth {self.bandwidth} exceeds {_MAX_BAND}")
        self.row0 = (self.bandwidth + 1) * self.ns
        targets = []
        while pairs:  # one at a time, to keep the temporaries small
            hi, lo = hi_lo(*pairs.pop(0))
            targets.append(np.where(hi < self.ns,
                                    lo * (self.bandwidth + 1) + hi - lo,
                                    self.row0 + (hi - self.ns) * (m + 1) + lo))
        self.K = None
        if segs.sizes[0] == 1:
            # K maps d onto the distinct targets, one column per block
            t = targets.pop()
            hit = np.zeros(self.row0 + self.nb * (m + 1), dtype=bool)
            hit[t] = True
            self.lp_targets = np.flatnonzero(hit)
            rank = np.cumsum(hit, dtype=np.int32) - 1
            self.K = sp.csc_matrix(
                (coef, rank[t], np.append(0, np.cumsum(per_row))),
                shape=(len(self.lp_targets), segs.counts[0]))
            del t, hit, rank
        self.targets = np.concatenate([np.zeros(0, dtype=np.int64)] + targets)
        self.weights = np.empty(len(self.targets))
        self.info = ({"kind": "banded", "bandwidth": self.bandwidth,
                      "border": self.nb} if self.ns else
                     {"kind": "dense", "bandwidth": None, "border": 0})

    def form(self, weights, tau_col=None):
        """The stored lower triangle of G for the cones' scalings: d of the
        linear cone, F of each matrix cone; `tau_col` is G's tau column in
        phase 1."""
        P = [w if w.ndim == 1 else _svec_congruence(w) for w in weights]
        off = 0
        for cls in self.classes:
            nf, w = cls["cols"].shape
            C, G = cls["C"], cls["G"]
            r = 0
            for ci, sel, A_loc, cnt, d in cls["parts"]:
                np.matmul(P[ci][sel].reshape(nf, cnt, d, d),
                          A_loc.reshape(nf, cnt, d, w),
                          out=C[:, r:r + cnt * d].reshape(nf, cnt, d, w))
                r += cnt * d
            np.matmul(C.transpose(0, 2, 1), C, out=G)
            nl = len(cls["lower"])
            np.take(G.reshape(nf, w * w), cls["lower"], axis=1,
                    out=self.weights[off:off + nf * nl].reshape(nf, nl))
            off += nf * nl
        buf = np.bincount(self.targets, weights=self.weights,
                          minlength=self.row0 + self.nb * (self.m + 1)
                          ).astype(float, copy=False)
        if self.K is not None:
            buf[self.lp_targets] += self.K @ weights[0]
        if tau_col is not None:
            buf[self.row0 + (self.nb - 1) * (self.m + 1) + self.pos] = tau_col
        return buf

    def band(self, buf):
        """A view of G's band in LAPACK lower band storage; buf holds it
        column by column, the order in which LAPACK reads it."""
        return buf[:self.row0].reshape(self.ns, self.bandwidth + 1).T

    def factor(self, weights, tau_col=None):
        """A solver for G (with the tau row and column in phase 1) at the
        cones' scalings: banded Cholesky of the band, in place in the formed
        buffer, then the dense border's Schur complement. Both start from
        the ridge 1e-13 trace(G)/n of the whole G."""
        buf = self.form(weights, tau_col)
        if not np.isfinite(buf).all():
            raise _FactorizationError
        ns, nbt = self.ns, self.nb - 1 + (tau_col is not None)
        rows = buf[self.row0:].reshape(self.nb, self.m + 1)[:nbt, :ns + nbt]
        band = self.band(buf)
        ridge = 1e-13 * max(1.0, (float(band[0].sum()) + float(
            rows[:, ns:][np.diag_indices(nbt)].sum())) / (ns + nbt))
        Gsb = np.ascontiguousarray(rows[:, :ns].T)

        def reform():  # a failed factor overwrote the band
            band[...] = self.band(self.form(weights, tau_col))

        solve_ss = _cholesky(band, ridge, reform)
        X = solve_ss(Gsb)
        # only lower triangles are stored and read
        solve_bb = _cholesky(rows[:, ns:] - Gsb.T @ X if ns else rows[:, ns:],
                             ridge)
        perm = self.order[:ns + nbt]

        def solve(r):
            rp = r[perm]
            u = solve_ss(rp[:ns])
            yb = solve_bb(rp[ns:] - Gsb.T @ u)
            out = np.empty(len(perm))
            out[perm] = np.concatenate([u - X @ yb, yb])
            return out

        return solve


def _cholesky(G, ridge, reform=None):
    """Solver for the positive definite G from its lower triangle: dense,
    or, when `reform` restores G after a failed attempt, in band storage
    and factored in place. `ridge` is added to the diagonal in place and
    grown on failure."""
    n = G.shape[1]
    if n == 0:
        return lambda r: r
    diag = (0, slice(None)) if reform else np.diag_indices(n)
    added = 0.0
    for _ in range(4):
        G[diag] += ridge - added
        added = ridge
        try:
            if reform:
                kept = G[diag].copy()
                cb = scipy.linalg.cholesky_banded(
                    G, overwrite_ab=True, lower=True, check_finite=False)
                return lambda r: scipy.linalg.cho_solve_banded(
                    (cb, True), r, check_finite=False)
            cho = scipy.linalg.cho_factor(G, lower=True, check_finite=False)
            return lambda r: scipy.linalg.cho_solve(cho, r, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            ridge *= 1e4
            if reform:
                reform()
                G[diag] = kept
    raise _FactorizationError


# ---------------------------------------------------------------------------
# core iteration


class _Segments:
    """The blocks of all groups by size, in ascending order: the scalar
    blocks of every family as one linear cone, then one matrix cone per
    size. The problem's A and f0 hold their rows in that order, and are
    read as they are; a cone's `rows` span those of its groups. The phase-1
    variable tau follows the m variables; its column, svec(I) on every
    block, is kept apart from A as the 1-column `tau`, and `tau0` is its
    start."""

    def __init__(self, problem):
        groups = self.groups = problem.groups
        self.m, self.A, self.f0 = problem.m, problem.A, problem.f0
        self.sizes = sorted({g.size for g in groups})
        by_size = [[g for g in groups if g.size == k] for k in self.sizes]
        self.counts = [sum(g.count for g in gs) for gs in by_size]
        self.simplex = [np.concatenate([g.simplex for g in gs])
                        for gs in by_size]
        self.rows = [slice(gs[0].rows.start, gs[-1].rows.stop)
                     for gs in by_size]
        self.Ntot = sum(n * k for n, k in zip(self.counts, self.sizes))
        self.cones = [_LinearCone if k == 1 else _MatrixCone
                      for k in self.sizes]
        self.tau, self.tau0 = _augment_tau(self)
        # tau's column is 1 on the diagonal svec rows of every block: one
        # strided slice per cone and diagonal entry
        self.tau_rows = [
            slice(rows.start + q, rows.stop, k * (k + 1) // 2)
            for k, rows in zip(self.sizes, self.rows)
            for q in np.flatnonzero(svec_scale(k) == 1.0).tolist()]

    def apply(self, y):
        """A y, plus tau's column when y ends with tau."""
        out = self.A @ y[:self.m]
        if len(y) > self.m:
            for rows in self.tau_rows:
                out[rows] += y[-1]
        return out

    def apply_t(self, v, nv):
        """A^T v for the first nv variables: tau's entry when nv = m + 1."""
        out = self.A.T @ v
        return out if nv == self.m else np.append(out, self.tau.T @ v)

    def seg_slices(self):
        for ci, k in enumerate(self.sizes):
            yield ci, k, self.counts[ci], self.rows[ci]

    def unpack(self, vec):
        return [vec[sl] if k == 1 else unsvec(vec[sl].reshape(cnt, -1), k)
                for _, k, cnt, sl in self.seg_slices()]

    def pack(self, xs):
        return np.concatenate([x if x.ndim == 1 else svec(x).ravel()
                               for x in xs])

    def dot(self, xs, ys):
        # elementwise, not BLAS: a threaded dot of a long vector costs more
        return float(sum((x * y).sum() for x, y in zip(xs, ys)))

    def identity(self):
        return [np.ones(cnt) if k == 1 else np.tile(np.eye(k), (cnt, 1, 1))
                for _, k, cnt, _ in self.seg_slices()]

    def factors(self, xs):
        """Each cone's factor of xs, or None when a block is not positive
        definite."""
        out = []
        for cone, x in zip(self.cones, xs):
            out.append(cone.factor(x))
            if out[-1] is None:
                return None
        return out


@dataclass
class _CoreResult:
    converged: bool
    early_exit: bool
    y: np.ndarray
    Z: list
    iterations: int
    gap: float
    failure: str | None = None


def _backtrack(segs, alpha, trial):
    """(alpha, blocks, factors) at the first of alpha, alpha/2, ... (40
    tries) whose blocks trial(alpha) are strictly inside every cone; None
    when there is none."""
    for _ in range(40):
        blocks = trial(alpha)
        factors = segs.factors(blocks)
        if factors is not None:
            return alpha, blocks, factors
        alpha *= 0.5
    return None


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _ipm(segs, schur, c, settings, y0, phase1=None):
    """Path-following loop from the strictly feasible y0. With `phase1`,
    the pair (exit level, floor), y ends with tau: the loop exits as soon
    as tau < exit level (strict feasibility), and steps are capped so that
    tau does not overshoot far below the floor (the phase-1 objective is
    typically unbounded)."""
    y = np.asarray(y0, dtype=float).copy()
    nv = len(y)
    Z = segs.identity()
    S = segs.unpack(segs.apply(y) - segs.f0)
    fS = segs.factors(S)
    gap = np.inf

    def stop(iterations, failure=None, converged=False, early_exit=False):
        return _CoreResult(converged, early_exit, y, Z, iterations, gap,
                           failure)

    if fS is None:
        return stop(0, "initial point not strictly feasible")
    norm_c = max(1.0, float(np.abs(c).max()))
    # one factor per block per iteration: the interior tests of the accepted
    # step keep theirs for the next scaling, which factors the first Z
    fZ = [None] * len(fS)
    it = 0
    for it in range(1, settings.max_iterations + 1):
        svec_Z = segs.pack(Z)
        gap = segs.dot(S, Z)
        mu = gap / segs.Ntot
        dual_res = float(np.abs(c - segs.apply_t(svec_Z, nv)).max())
        obj = float(c @ y)

        if phase1 is not None and y[-1] < phase1[0]:
            return stop(it - 1, converged=True, early_exit=True)
        if (mu <= settings.gap_tol * (1.0 + abs(obj))
                and dual_res <= 100.0 * settings.gap_tol * norm_c):
            return stop(it - 1, converged=True)
        if phase1 is None and abs(obj) > 1e14:
            return stop(it - 1, "objective appears unbounded below")

        try:
            cones = [cone(s, z, f) for cone, s, z, f in
                     zip(segs.cones, S, Z, zip(fS, fZ))]
        except np.linalg.LinAlgError:
            return stop(it - 1, "scaling breakdown")
        # tau's coefficient is the identity in every block, so its column
        # of G is A^T svec(W^{-2})
        tau_col = (segs.apply_t(segs.pack([w.w2 for w in cones]), nv)
                   if phase1 is not None else None)
        # the last factor goes before the next is formed, so that the two
        # never hold memory at once
        solve = None
        try:
            solve = schur.factor([w.schur for w in cones], tau_col)
        except _FactorizationError:
            return stop(it - 1, "factorization failed")

        def direction(rhs, mu_c, frac):
            """dy, the cones' directions and the step lengths; None when
            the direction is not finite."""
            dy = solve(rhs)
            if not np.isfinite(dy).all():
                return None
            dirs = [w.direction(ds, mu_c)
                    for w, ds in zip(cones, segs.unpack(segs.apply(dy)))]
            steps = [w.steps(d) for w, d in zip(cones, dirs)]
            return (dy, dirs, min(1.0, frac * min(s[0] for s in steps)),
                    min(1.0, frac * min(s[1] for s in steps)))

        # predictor
        step = direction(-c, 0.0, 0.99)
        if step is not None:
            _, dirs, ap, ad = step
            gap_aff = sum(w.gap(d, ap, ad) for w, d in zip(cones, dirs))
            sigma = min(0.9, max(1e-6, (max(gap_aff, 0.0) / gap) ** 3))
            mu_t = sigma * mu
            # corrector
            asv = segs.apply_t(segs.pack([w.s_inv for w in cones]), nv)
            step = direction(mu_t * asv - c, mu_t, 0.98)
        if step is None:
            return stop(it, "step computation failed")
        dy, dirs, ap, ad = step
        if (phase1 is not None and dy[-1] < 0.0
                and y[-1] + ap * dy[-1] < phase1[1]):
            ap = (phase1[1] - y[-1]) / dy[-1]
        if not np.isfinite(ap) or not np.isfinite(ad) or ap <= 0 or ad <= 0:
            return stop(it, "step computation failed")
        # the fractional step can still graze the cone boundary; backtrack
        # until both iterates are strictly inside
        primal = _backtrack(segs, ap, lambda a: segs.unpack(
            segs.apply(y + a * dy) - segs.f0))
        if primal is None:
            return stop(it, "primal step stalled at the boundary")
        dZ = [w.dz(d) for w, d in zip(cones, dirs)]
        dual = _backtrack(segs, ad, lambda a: [Zb + a * d
                                               for Zb, d in zip(Z, dZ)])
        if dual is None:
            return stop(it, "dual step stalled at the boundary")
        (ap, S, fS), (_, Z, fZ) = primal, dual
        y = y + ap * dy
        if not np.isfinite(y).all():
            return stop(it, "non-finite iterate")
    return stop(it)


def _augment_tau(segs):
    """The tau column (identity on every block) as a 1-column sparse matrix,
    and the starting tau of the phase-1 problem
    min tau s.t. A(y) + tau I - F0 >= 0 at y = 0: the largest eigenvalue of
    F0 plus max(1, |that eigenvalue|)."""
    col = sp.csc_matrix(segs.pack(segs.identity())[:, None])
    tau0 = -float(np.concatenate([x if x.ndim == 1 else eig_min(x)
                                  for x in segs.unpack(-segs.f0)]).min())
    return col, tau0 + max(1.0, abs(tau0))


def solve(problem, settings=None):
    """Solve the assembled problem; feasibility when the objective is zero,
    otherwise phase-1 feasibility followed by objective minimization. The
    Solution records the Schur plan that both phases used, of kind
    "refused" when its band is wider than `_MAX_BAND`."""
    settings = settings or SolverSettings()
    segs = _Segments(problem)
    m = problem.m
    c = np.asarray(problem.c, dtype=float)
    has_objective = bool(np.any(c != 0.0))
    try:
        schur = _SchurPlan(segs, problem.schur_order, problem.schur_border)
    except _FactorizationError as exc:
        return Solution("NumericalFailure", np.zeros(m), 0.0,
                        certify(problem, np.zeros(m), 0.0).min_eigs, 0,
                        np.inf, notes=[str(exc)], schur={"kind": "refused"})

    def result(status, res, report=None, **kw):
        y = res.y[:m]
        if report is None:
            report = certify(problem, y, 0.0)
        return Solution(status, y, float(c @ y), report.min_eigs, iterations,
                        res.gap, schur=schur.info, **kw)

    # ---- phase 1: minimize tau, the last variable ----
    tau0 = segs.tau0
    exit_level = min(-10.0 * settings.feas_tol, -1e-4)
    if has_objective:
        exit_level = min(exit_level, -0.05 * max(1.0, abs(tau0)))
    res1 = _ipm(segs, schur, np.append(np.zeros(m), 1.0), settings,
                np.append(np.zeros(m), tau0),
                (exit_level, 3.0 * exit_level - 0.05 * max(1.0, abs(tau0))))
    iterations = res1.iterations
    if res1.failure is not None:
        return result("NumericalFailure", res1, notes=[res1.failure])
    tau_final = float(res1.y[m])
    if not res1.early_exit and tau_final >= -10.0 * settings.feas_tol:
        if res1.converged:
            return result("Infeasible", res1,
                          dual_ray=_extract_ray(segs, res1.Z),
                          notes=[f"phase-1 optimum tau = {tau_final:.3e}"])
        return result("IterationLimit", res1)
    if not has_objective:
        return result("Feasible", res1,
                      notes=[f"strict margin {-tau_final:.3e}"])

    # ---- phase 2: minimize the objective from the interior point ----
    res2 = _ipm(segs, schur, c, settings, res1.y[:m])
    iterations += res2.iterations
    report = (certify(problem, res2.y, settings.feas_tol)
              if res2.failure is None else None)
    if report is None or not report.clean:
        # fall back to the strictly feasible phase-1 point
        return result("Feasible", res1, notes=[
            res2.failure or "phase-2 left the cone; phase-1 point kept"])
    if res2.converged:
        return result("Optimal", res2, report)
    return result("Feasible", res2, report,
                  notes=["iteration limit before gap closure"])


def _extract_ray(segs, Z):
    svec_Z = segs.pack(Z)
    trace = float((segs.tau.T @ svec_Z)[0])
    if trace <= 0:
        trace = 1.0
    svec_Zn = svec_Z / trace
    eq = segs.A.T @ svec_Zn
    return {
        "objective": float(segs.f0 @ svec_Zn),
        "eq_residual": float(np.abs(eq).max()),
        "trace": 1.0,
        "svec": np.concatenate([svec_Zn[g.rows] for g in segs.groups]),
    }


# ---------------------------------------------------------------------------
# independent certification


def certify(problem, y, tol):
    """Recompute every block of sum F_i y_i - F_0 from the problem's A and
    F0 and report the blocks whose smallest eigenvalue falls below -tol; the
    smallest eigenvalues come in the groups' block order."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise DimensionMismatchError(f"y must have shape ({problem.m},)")
    res = problem.A @ y - problem.f0
    mins = np.concatenate([eig_min(unsvec(res[g.rows].reshape(g.count, -1),
                                          g.size)) for g in problem.groups])
    return CertifyReport(min_eigs=mins, tol=tol, flagged=[
        (int(i), float(mins[i])) for i in np.flatnonzero(mins < -tol)])
