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
dual step. Every iterate (S, Z, both directions and the trial points) is
one vector in A's row order, and each cone has its own kernels on its
part of it. The size-1 blocks of every family form one linear (LP) cone,
a vector scaled by d = z/s, with ratio-test step lengths. The blocks of
each size k >= 2 form a matrix cone of svec rows, scaled from a factor:
L = chol(S), one eigendecomposition of L^T Z L, and F = lam^(1/4) Q^T L^-1
with W^-1 = F^T F. The cone keeps F only as its svec map P,
P svec(X) = svec(F X F^T), its one scaling operator: directions and step
lengths are taken in the scaled space F S F^T = diag(lam^(1/2)), so the
predictor and corrector reuse the factor, and P^T maps back. The cone
reads its svec rows' columns as `smallmat` components and builds P entry
by entry, with no (N, k, k) stack, matmul or einsum. The small-block
kernels come from `smallmat`; above k = 2 one Jacobi sweep on R^T L Q,
with Z = R R^T, keeps every lam accurate relative to itself.

The Schur complement over the m variables is formed from a fixed scatter
pattern built once per solve: the matrix blocks are grouped per simplex,
the groups' local Gram matrices are computed in chunks of a fixed number
of groups from dense local rows that each chunk rebuilds from A's
entries, each chunk's lower triangles are added straight into G's buffer,
and the scalar blocks add a fixed sparse map of d. G is factored by a
banded Cholesky in the variable order that the assembly reads off the
mesh, at every size, with the few variables that touch every simplex
eliminated as a dense border (all of G without an order); both parts take
their ridge from the mean diagonal of the whole G.

`certify` re-checks a candidate y apart from the solver's iterates and
cones: it slices one product A y - F0 by the groups' row ranges and takes
the smallest eigenvalues with `smallmat.eig_min`, the one batched eigen
kernel, at every block size. `Solution.block_min_eigs` is its answer.

scipy is imported where it is called (the sparse K, the banded
and dense Cholesky factors), not at module level, so that a process that
imports the package but solves no SDP, a certificate check say, never
loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import index_dtype, row_entries, svec_scale
from .errors import DimensionMismatchError
from .smallmat import (cholesky, congruence, eig_min, eigh, gram_eigh,
                       inv_lower, lower_pairs, times)
from .triangulation import index_ranges

_MAX_BAND = 6000
_SQRT2 = math.sqrt(2.0)
# frames per batch of the Schur formation: each class's C and G buffers
# hold this many frames at most, and `form` runs a class chunk by chunk
_FRAME_CHUNK = 1024
# terms per batch of the set-up of the scalar blocks' part of the plan
_PAIR_CHUNK = 1 << 14


@dataclass(frozen=True)
class SolverSettings:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        for name in ("feas_tol", "gap_tol"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
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


def _times(P, x, trans=False):
    """P x, or P^T x, for each block's svec map P, (d, d, N) in component
    layout, and svec rows x (N, d): a sum over x's columns in their order,
    as svec rows."""
    P = np.swapaxes(P, 0, 1) if trans else P
    out = P[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        out += P[:, j] * x[:, j]
    return out.T.copy()


def _diagonal(k):
    """The svec positions of a k x k block's diagonal."""
    return [q for q, (i, j) in enumerate(lower_pairs(k)) if i == j]


def _components(x, k):
    """The lower-triangle components of each block of svec rows x: the
    columns, divided by sqrt(2) off the diagonal."""
    return [x[:, q] if i == j else x[:, q] / _SQRT2
            for q, (i, j) in enumerate(lower_pairs(k))]


class _MatrixCone:
    """Blocks of one size k >= 2 as svec rows (N, k(k+1)/2), scaled at the
    iterate (S, Z). The Nesterov-Todd scaling is built from a factor (Todd,
    Toh and Tutuncu, SIAM J. Optim. 8, 1998): L = chol(S),
    L^T Z L = Q diag(lam) Q^T and F = lam^(1/4) Q^T L^-1. Then W^-1 = F^T F
    and F S F^T = F^-T Z F^-1 = diag(v), v = lam^(1/2), so directions and
    step lengths are taken in that scaled space, with no further factor.
    The cone keeps F only as its svec map P, P svec(X) = svec(F X F^T),
    whose transpose is the svec map of F^T: P and P^T carry every scaling.
    L^T Z L = G^T G for G = R^T L, so lam are the squared singular values
    of G. The factors and the eigenvectors are `smallmat` components, read
    from the svec rows' columns; `factors` are chol(S) and chol(Z) as the
    interior tests took them; chol(Z) of the first Z, and chol(S) for a
    caller without one, are taken here."""

    def __init__(self, s, z, factors=(None, None)):
        self.k = k = math.isqrt(2 * s.shape[-1])
        self.diag = _diagonal(k)
        L, LZ = factors
        L = cholesky(_components(s, k)) if L is None else L
        Z = _components(z, k)
        lam, Q = eigh(congruence(L, Z, trans=True))
        if k > 2:
            # above k = 2 eigh is accurate only relative to the largest lam,
            # and S Z can be ill-conditioned far beyond 1/eps; the sweep on
            # G Q makes every lam accurate relative to itself
            LZ = cholesky(Z) if LZ is None else LZ
            lam, Q = gram_eigh([times(LZ, times(L, q), trans=True)
                                for q in Q], Q)
        self.v = np.sqrt(np.stack(lam, axis=1))
        rv = np.sqrt(self.v)
        self.r = 1.0 / rv  # V^(-1/2), which whitens the step directions
        # the rows of F = V^(1/2) R, R = Q^T L^-1, so that R S R^T = I
        Li = inv_lower(L)
        F = [[rv[:, i] * x for x in times(Li, q, trans=True)]
             for i, q in enumerate(Q)]
        self.P = _svec_congruence(F)
        self.schur = self.P.transpose(2, 0, 1)  # (N, d, d), as a view
        # svec(S^-1) = P^T svec(V^-1), as S^-1 = R^T R = F^T V^-1 F
        self.s_inv = _times(self.P[self.diag], 1.0 / self.v, True)

    @staticmethod
    def factor(x):
        """chol of x's blocks, or None when one is not positive definite."""
        L = cholesky(_components(x, math.isqrt(2 * x.shape[-1])))
        return None if np.isnan(L[0]).any() else L

    @property
    def w2(self):
        """svec(W^-2) = P^T P svec(I)."""
        return _times(self.P, self.P[:, self.diag].sum(axis=1).T, True)

    def direction(self, ds, mu):
        """(P svec(dS), P^-T svec(dZ)) for the primal step dS, centred on
        mu: the second is mu V^-1 - V - P svec(dS) with V = diag(v)."""
        X = _times(self.P, ds)
        dZ = -X
        dZ[:, self.diag] += mu / self.v - self.v
        return X, dZ

    def steps(self, dirn):
        """The step to the boundary of each scaled direction X, from the
        smallest eigenvalue of V^(-1/2) X V^(-1/2)."""
        r = [self.r[:, i] * self.r[:, j] for i, j in lower_pairs(self.k)]
        # both directions in one batch, (2, N) per component
        g = eig_min([np.stack(xs) * y for *xs, y in zip(
            *(_components(d, self.k) for d in dirn), r)])
        return _max_step(g[0]), _max_step(g[1])

    def gap(self, dirn, ap, ad):
        """<V + ap X, V + ad dZ> for the scaled direction (X, dZ)."""
        X, dZ = dirn
        v = self.v
        return float((v * v).sum() + ap * (X[:, self.diag] * v).sum()
                     + ad * (dZ[:, self.diag] * v).sum()
                     + ap * ad * (X * dZ).sum())

    def dz(self, dirn):
        return _times(self.P, dirn[1], True)


def _svec_congruence(F):
    """P per block with P svec(X) = svec(F X F^T), entry by entry from the
    rows F[r][c] of F, in component layout (d, d, N): entry (a, b) of the
    lower-triangle pairs a = (i, j) and b = (l, m) is F_jm F_il, plus
    F_jl F_im when both are off the diagonal, times sqrt(2) when one of
    them is."""
    pairs = lower_pairs(len(F))
    P = np.empty((len(pairs), len(pairs)) + np.shape(F[0][0]))
    for a, (i, j) in enumerate(pairs):
        for b, (l, m) in enumerate(pairs):
            if (i == j) != (l == m):
                P[a, b] = _SQRT2 * F[j][m] * F[i][l]
            elif i == j:
                P[a, b] = F[j][m] * F[i][l]
            else:
                P[a, b] = F[j][m] * F[i][l] + F[j][l] * F[i][m]
    return P


# ---------------------------------------------------------------------------
# Schur complement: fixed scatter pattern and factorization


class _FactorizationError(Exception):
    pass


def _frame_classes(A, cones, m):
    """Frames of the Schur plan, batched into classes.

    `cones` are the matrix cones as (cone index, rows of A, simplex, svdim).
    A frame is a cone's blocks of one simplex, or one block without a
    simplex; its local columns are the sorted distinct variables it touches.
    A cone's frames with the same width and block count form a class; the
    classes go by width, then cone (the last first), then block count. Per
    class: `cols` (frames, width) variables, which only the plan's set-up
    reads; the `cone` index and its first row `row0` in A; the block
    selection `sel`; `cnt` blocks per frame, `svdim` and `width`; `local`,
    the selected blocks' entries of A, block by block in storage order, as
    small ints q * width + c, the entry's place in its block's dense local
    rows (svdim, width); `spans`, the first of those entries of each chunk
    of at most `_FRAME_CHUNK` frames, and their end; and one chunk's
    buffers: `rows` for the dense local rows, with the chunk it `held`
    last, `C` and `G`. The per-entry work holds int32 arrays where they
    fit and drops each one when it is used up.
    """
    classes = []
    for ci, rows, simplex, d in cones:
        f = np.array(simplex, dtype=np.int64)
        solo = f < 0
        f[solo] = f.max(initial=-1) + 1 + np.arange(solo.sum())
        nfr = int(f.max(initial=-1)) + 1
        f = f.astype(index_dtype(nfr * m))  # the dtype of the frame keys
        row = row_entries(A, rows)[0]
        key = f[row // d]  # each entry's frame, then its key frame * m + col
        key *= m
        key += A.indices[A.indptr[rows.start]:A.indptr[rows.stop]]
        q = np.remainder(row, d, out=row)  # the entry's svec row in its block
        # the distinct keys, and each entry's rank among them
        order = np.argsort(key)
        key = key[order]
        new = np.empty(len(key), dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        ukey = key[new]
        del key
        rank = np.cumsum(new, dtype=index_dtype(len(new)))
        rank -= 1
        inv = np.empty_like(rank)
        inv[order] = rank
        del order, new, rank
        ufr, ucol = np.divmod(ukey, m)
        width = np.bincount(ufr, minlength=nfr)
        start = np.cumsum(width) - width
        # each entry's place q * width + c in its block's dense local rows
        place = (np.arange(len(ukey)) - start[ufr]).astype(inv.dtype)[inv]
        wq = width[ufr].astype(inv.dtype)[inv]
        del inv
        wq *= q
        place += wq
        del wq, q
        # a block's svdim rows are one run of A's storage
        ptr = A.indptr[rows.start:rows.stop + 1:d] - A.indptr[rows.start]
        sig, cls_of = np.unique(np.stack(
            [width, np.bincount(f, minlength=nfr)], axis=1),
            axis=0, return_inverse=True)
        cls_of = cls_of.ravel()
        for c in np.nonzero(sig[:, 0])[0]:
            (w, cnt), frames = sig[c].tolist(), np.nonzero(cls_of == c)[0]
            b = np.nonzero(cls_of[f] == c)[0]
            b = b[np.argsort(f[b], kind="stable")]
            size = ptr[b + 1] - ptr[b]
            chunk = min(len(frames), _FRAME_CHUNK)
            ends = np.append(0, np.cumsum(size))
            classes.append(((w, -ci, cnt), {
                "cols": ucol[start[frames][:, None] + np.arange(w)],
                "cone": ci, "row0": rows.start,
                "sel": b.astype(index_dtype(rows.stop)),
                "cnt": cnt, "svdim": d, "width": w,
                "local": place[index_ranges(ptr[b], ptr[b + 1])].astype(
                    np.min_scalar_type(d * w - 1)),
                "spans": np.append(ends[:-1:chunk * cnt], ends[-1]),
                "rows": np.empty((chunk * cnt, d, w)), "held": None,
                "C": np.empty((chunk, cnt * d, w)),
                "G": np.empty((chunk, w, w))}))
    return [cls for _, cls in sorted(classes, key=lambda kc: kc[0])]


def _scalar_pairs(A, rows, coef):
    """The terms a_i a_j, i <= j, of the outer product of each of A's rows
    `rows`, grouped by row: the products go into `coef`, and the columns
    i and j are returned. `stack_problem` sorts each row's columns. The
    entry positions are int32 when the terms' count fits it."""
    row, col, val = row_entries(A, rows)
    q = np.bincount(row, minlength=rows.stop - rows.start)
    dt = index_dtype(int((q * (q + 1) // 2).sum()))
    e = np.arange(len(col), dtype=dt)
    # entries from e to its row's end
    reps = np.repeat(np.cumsum(q, dtype=dt), q) - e
    first = np.repeat(e, reps)
    second = first + (np.arange(len(first), dtype=dt)
                      - np.repeat(np.cumsum(reps, dtype=dt) - reps, reps))
    np.take(val, first, out=coef)
    coef *= val[second]
    return col[first], col[second]


def _reach(p, starts, ns):
    """The band that the pairs within each run p[starts[i]:starts[i + 1]]
    of variable positions span: over the runs with a position below ns,
    the largest such position less the run's smallest; 0 without one."""
    if not len(starts):
        return 0
    hi = np.maximum.reduceat(np.where(p < ns, p, -1), starts)
    lo = np.minimum.reduceat(p, starts)
    return int((hi - lo)[hi >= 0].max(initial=0))


class _SchurPlan:
    """Schur complement G = A^T blockdiag(W^-1 (x) W^-1) A from a fixed
    scatter pattern: the sparsity-exploiting formation of Fujisawa, Kojima
    and Nakata (Math. Program. 79, 1997).

    Matrix blocks: each iteration forms C = P A per block over its frame's
    local columns, with the cone's svec map P, P svec(X) = svec(F X F^T),
    and C^T C per frame, class by class in chunks of at most
    `_FRAME_CHUNK` frames (each frame's product is its own, so a chunk
    keeps its bits). A chunk's dense local rows are rebuilt from A's CSR
    entries in one buffer per class, placed by a small-int map per entry
    (`_frame_classes`); a class of one chunk builds them once. Each
    chunk's lower triangles are added straight into G's buffer at their
    precomputed targets by `np.add.at`, which adds each target's terms in
    index order, so G has the bits of one `np.bincount` over all the
    terms. The plan holds the targets (int32 when they fit), per class the
    block selection, the entry map and one chunk's buffers, and K: no
    weights array and no dense copy of A's rows.
    Scalar blocks store no rows: their part of G is sum_r d_r a_r a_r^T, a
    fixed linear map K of the scaling d onto the targets their rows'
    pairs reach.
    Variables go in the mesh's `order`. The leading `ns` form a band
    factored by `cholesky_banded`; the trailing `border` variables keep
    full rows of G and are eliminated densely. Without an order every
    variable is in the border, so G is one dense lower triangle. The
    phase-1 variable tau is the last border variable; its column
    A^T svec(W^{-2}) comes from the caller, so both phases share the plan.
    """

    def __init__(self, segs, order=None, border=0):
        self.m = m = segs.m
        self.A = segs.A
        self.classes = _frame_classes(segs.A, [
            (ci, sl, np.concatenate([g.simplex for g in segs.groups
                                     if g.size == k]), k * (k + 1) // 2)
            for ci, k, _, sl in segs.seg_slices() if k > 1], m)
        if order is None:  # no band: every variable is in the border
            order, border = np.arange(m), m
        self.order = np.append(order, m).astype(np.int64)
        self.ns, self.nb = m - border, border + 1
        self.pos = np.empty(m + 1, dtype=np.int64)
        self.pos[self.order] = np.arange(m + 1)
        # the set-up's positions and targets in int32 when every target of
        # a band within _MAX_BAND fits it; wider bands are refused below
        pos = self.pos.astype(index_dtype(
            (_MAX_BAND + 1) * self.ns + self.nb * (m + 1)))
        ns = self.ns
        # the band: the widest reach of a frame's, or a scalar row's, pairs
        reach = [_reach(pos[cls["cols"]].ravel(),
                        np.arange(0, cls["cols"].size, cls["width"]), ns)
                 for cls in self.classes]
        if segs.sizes[0] == 1:
            rows = segs.rows[0]
            ptr = self.A.indptr[rows.start:rows.stop + 1]
            q = np.diff(ptr)
            reach.append(_reach(pos[self.A.indices[ptr[0]:ptr[-1]]],
                                (ptr[:-1] - ptr[0])[q > 0], ns))
        self.bandwidth = max(reach, default=0)
        if self.bandwidth > _MAX_BAND:
            raise _FactorizationError(
                f"Schur bandwidth {self.bandwidth} exceeds {_MAX_BAND}")
        self.row0 = (self.bandwidth + 1) * ns
        self.size = self.row0 + self.nb * (m + 1)  # of the formed buffer

        def targets(a, b):
            # the branch that np.where drops may wrap around; it is unused
            hi, lo = np.maximum(a, b), np.minimum(a, b)
            return np.where(hi < ns, lo * (self.bandwidth + 1) + hi - lo,
                            self.row0 + (hi - ns) * (m + 1) + lo)

        # each class's targets, chunk by chunk of its frames
        self.targets = np.empty(
            sum(len(cls["cols"]) * cls["width"] * (cls["width"] + 1) // 2
                for cls in self.classes), dtype=index_dtype(self.size))
        at = 0
        for cls in self.classes:
            w = cls["width"]
            il0, il1 = np.tril_indices(w)
            cls["lower"] = il0 * w + il1
            cols = cls.pop("cols")  # only the set-up reads the variables
            cls["frames"] = len(cols)
            for a in range(0, len(cols), _FRAME_CHUNK):
                p = pos[cols[a:a + _FRAME_CHUNK]]
                t = targets(p[:, il0].ravel(), p[:, il1].ravel())
                self.targets[at:at + len(t)] = t
                at += len(t)
        self.K = None
        if segs.sizes[0] == 1:
            # K maps d onto the distinct targets, one column per block: its
            # entries are the rows' pairs, built in chunks of whole rows
            indptr = np.append(0, np.cumsum(q * (q + 1) // 2))
            coef = np.empty(indptr[-1])
            t = np.empty(indptr[-1], dtype=index_dtype(self.size))
            hit = np.zeros(self.size, dtype=bool)
            cuts = np.unique(np.append(np.searchsorted(
                indptr, np.arange(0, indptr[-1], _PAIR_CHUNK),
                side="right") - 1, len(q)))
            for r0, r1 in zip(cuts[:-1], cuts[1:]):
                a, b = indptr[r0], indptr[r1]
                ci, cj = _scalar_pairs(self.A, slice(
                    rows.start + r0, rows.start + r1), coef[a:b])
                t[a:b] = targets(pos[ci], pos[cj])
                hit[t[a:b]] = True
            self.lp_targets = np.flatnonzero(hit)
            del hit
            # each target's rank among the distinct ones, in place
            for a in range(0, len(t), _PAIR_CHUNK):
                t[a:a + _PAIR_CHUNK] = np.searchsorted(
                    self.lp_targets, t[a:a + _PAIR_CHUNK])
            import scipy.sparse as sp  # loaded by the solve that needs it

            self.K = sp.csc_matrix((coef, t, indptr),
                                   shape=(len(self.lp_targets),
                                          segs.counts[0]))
        self.info = ({"kind": "banded", "bandwidth": self.bandwidth,
                      "border": self.nb} if self.ns else
                     {"kind": "dense", "bandwidth": None, "border": 0})

    def local_rows(self, cls, i):
        """The dense local rows (blocks, svdim, width) of chunk i of the
        class `cls`, rebuilt from A's entries in the class's buffer unless
        it holds them already, as it does for a class of one chunk."""
        cnt, d, w = cls["cnt"], cls["svdim"], cls["width"]
        per = len(cls["G"]) * cnt  # blocks per chunk
        sel = cls["sel"][i * per:(i + 1) * per]
        out = cls["rows"][:len(sel)]
        if cls["held"] == i:
            return out
        first = cls["row0"] + sel * d
        if (np.diff(sel) == 1).all():
            # consecutive blocks, the usual case: their entries are one run
            # of A's storage
            ptr = self.A.indptr[first[0]:first[-1] + d + 1:d]
            start, end = ptr[:-1], ptr[1:]
            vals = self.A.data[ptr[0]:ptr[-1]]
        else:
            start, end = self.A.indptr[first], self.A.indptr[first + d]
            vals = self.A.data[index_ranges(start, end)]
        at = np.repeat(np.arange(0, len(sel) * d * w, d * w), end - start)
        at += cls["local"][cls["spans"][i]:cls["spans"][i + 1]]
        out.fill(0.0)
        out.reshape(-1)[at] = vals
        cls["held"] = i
        return out

    def form(self, weights, tau_col=None):
        """The stored lower triangle of G for the cones' scalings: d of the
        linear cone, the svec map P of each matrix cone; `tau_col` is G's
        tau column in phase 1."""
        buf = np.zeros(self.size)
        at = 0
        for cls in self.classes:
            nf, w, cnt, d = (cls["frames"], cls["width"], cls["cnt"],
                             cls["svdim"])
            # the chunks' targets as intp, which np.add.at would otherwise
            # cast to on every call; the plan stores the smaller dtype
            idx = np.empty(len(cls["G"]) * len(cls["lower"]), dtype=np.intp)
            for i, a in enumerate(range(0, nf, len(cls["G"]))):
                k = min(nf - a, len(cls["G"]))
                C, G = cls["C"][:k], cls["G"][:k]
                np.matmul(weights[cls["cone"]][
                    cls["sel"][a * cnt:(a + k) * cnt]].reshape(k, cnt, d, d),
                    self.local_rows(cls, i).reshape(k, cnt, d, w),
                    out=C.reshape(k, cnt, d, w))
                np.matmul(C.transpose(0, 2, 1), C, out=G)
                lower = G.reshape(k, w * w)[:, cls["lower"]].ravel()
                t = idx[:len(lower)]
                t[...] = self.targets[at:at + len(lower)]
                # each target's terms go in index order, chunk after chunk:
                # the sums of one bincount over all chunks, bit for bit
                np.add.at(buf, t, lower)
                at += len(lower)
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
            # the predictor's right-hand side -c is zero on the band, and
            # the band's solves of a zero vector give +0.0 everywhere
            u = solve_ss(rp[:ns]) if rp[:ns].any() else np.zeros(ns)
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
    import scipy.linalg  # loaded by the solve that needs it

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
    read as they are; a cone's `rows` span those of its groups. Every
    iterate is one vector in that row order, and `views` gives each cone
    its part. The phase-1 variable tau follows the m variables; its column
    is svec(I) on every block, which `identity` builds and `apply` and
    `trace` read per cone from the diagonal svec entries, so the segments
    hold no vector of A's rows of their own; `tau0` is tau's start."""

    def __init__(self, problem):
        groups = self.groups = problem.groups
        self.m, self.A, self.f0 = problem.m, problem.A, problem.f0
        self.sizes = sorted({g.size for g in groups})
        by_size = [[g for g in groups if g.size == k] for k in self.sizes]
        self.counts = [sum(g.count for g in gs) for gs in by_size]
        self.rows = [slice(gs[0].rows.start, gs[-1].rows.stop)
                     for gs in by_size]
        self.Ntot = sum(n * k for n, k in zip(self.counts, self.sizes))
        self.cones = [_LinearCone if k == 1 else _MatrixCone
                      for k in self.sizes]
        # the transpose shares A's arrays: built once, not per product
        self.A_t = self.A.T
        # phase 1, min tau s.t. A y + tau I - F0 >= 0, starts at y = 0 from
        # F0's largest eigenvalue plus max(1, |that eigenvalue|)
        top = -float(np.concatenate([
            x if k == 1 else eig_min(_components(x, k))
            for k, x in zip(self.sizes, self.views(-self.f0))]).min())
        self.tau0 = top + max(1.0, abs(top))

    def identity(self):
        """svec(I) on every block: tau's column, and phase 1's first Z."""
        return np.concatenate([
            np.tile((svec_scale(k) == 1.0).astype(float), cnt)
            for k, cnt in zip(self.sizes, self.counts)])

    def trace(self, v):
        """tau's entry of A^T v, the sum of v's diagonal svec entries: one
        by one in A's row order from +0.0, the sum that a sparse product
        with the column svec(I) takes, bit for bit."""
        total = 0.0
        for k, x in zip(self.sizes, self.views(v)):
            # a copy of the cone's diagonal entries, summed in place
            part = x.copy() if k == 1 else x[:, _diagonal(k)].ravel()
            if len(part):
                part[0] += total
                total = np.add.accumulate(part, out=part)[-1]
        return float(total)

    def apply(self, y):
        """A y, plus tau's column when y ends with tau."""
        out = self.A @ y[:self.m]
        if len(y) > self.m:
            # tau's column svec(I), per cone on the diagonal columns' views
            for k, x in zip(self.sizes, self.views(out)):
                for q in _diagonal(k):
                    x.reshape(len(x), -1)[:, q] += y[-1]
        return out

    def slack(self, y):
        """A y - f0, with tau's column when y ends with tau: in place in the
        product."""
        out = self.apply(y)
        out -= self.f0
        return out

    def apply_t(self, v, nv):
        """A^T v for the first nv variables: tau's entry when nv = m + 1."""
        out = self.A_t @ v
        return out if nv == self.m else np.append(out, self.trace(v))

    def seg_slices(self):
        for ci, k in enumerate(self.sizes):
            yield ci, k, self.counts[ci], self.rows[ci]

    def views(self, vec):
        """Each cone's part of vec: the linear cone's entries, a matrix
        cone's svec rows (blocks, k(k+1)/2)."""
        return [vec[rows] if k == 1 else vec[rows].reshape(cnt, -1)
                for _, k, cnt, rows in self.seg_slices()]

    def factors(self, vec):
        """Each cone's factor of vec, or None when a block is not positive
        definite."""
        out = []
        for cone, x in zip(self.cones, self.views(vec)):
            out.append(cone.factor(x))
            if out[-1] is None:
                return None
        return out


@dataclass
class _CoreResult:
    converged: bool
    early_exit: bool
    y: np.ndarray
    Z: np.ndarray
    iterations: int
    gap: float
    failure: str | None = None


def _backtrack(segs, alpha, trial):
    """(alpha, point, factors) at the first of alpha, alpha/2, ... (40
    tries) whose point trial(alpha) is strictly inside every cone; None
    when there is none."""
    for _ in range(40):
        point = trial(alpha)
        factors = segs.factors(point)
        if factors is not None:
            return alpha, point, factors
        alpha *= 0.5
    return None


def _whole(parts):
    """The cones' parts of a vector joined in A's row order."""
    return np.concatenate([p.ravel() for p in parts])


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
    S = segs.slack(y)
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
    # the loop holds one iterate: each array is dropped once it is used up,
    # so that no direction, factor or cone outlives its iteration
    for it in range(1, settings.max_iterations + 1):
        # elementwise, not BLAS: a threaded dot of a long vector costs more
        gap = float((S * Z).sum())
        mu = gap / segs.Ntot
        dual_res = float(np.abs(c - segs.apply_t(Z, nv)).max())
        obj = float(c @ y)

        if phase1 is not None and y[-1] < phase1[0]:
            return stop(it - 1, converged=True, early_exit=True)
        if (mu <= settings.gap_tol * (1.0 + abs(obj))
                and dual_res <= 100.0 * settings.gap_tol * norm_c):
            return stop(it - 1, converged=True)
        if phase1 is None and abs(obj) > 1e14:
            return stop(it - 1, "objective appears unbounded below")

        try:
            cones = [cone(s, z, f) for cone, s, z, f in zip(
                segs.cones, segs.views(S), segs.views(Z), zip(fS, fZ))]
        except np.linalg.LinAlgError:
            return stop(it - 1, "scaling breakdown")
        fS = fZ = None  # the scalings have used the factors up
        # tau's coefficient is the identity in every block, so its column
        # of G is A^T svec(W^{-2})
        tau_col = (segs.apply_t(_whole([w.w2 for w in cones]), nv)
                   if phase1 is not None else None)
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
                    for w, ds in zip(cones, segs.views(segs.apply(dy)))]
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
            step = dirs = None  # the predictor's directions go first
            # corrector
            asv = segs.apply_t(_whole([w.s_inv for w in cones]), nv)
            step = direction(mu_t * asv - c, mu_t, 0.98)
        solve = None  # the factor is not held through the backtracks
        if step is None:
            return stop(it, "step computation failed")
        dy, dirs, ap, ad = step
        step = None
        if (phase1 is not None and dy[-1] < 0.0
                and y[-1] + ap * dy[-1] < phase1[1]):
            ap = (phase1[1] - y[-1]) / dy[-1]
        if not np.isfinite(ap) or not np.isfinite(ad) or ap <= 0 or ad <= 0:
            return stop(it, "step computation failed")
        dZ = _whole([w.dz(d) for w, d in zip(cones, dirs)])
        cones = dirs = None  # the backtracks read only dy and dZ
        # the fractional step can still graze the cone boundary; backtrack
        # until both iterates are strictly inside
        found = _backtrack(segs, ap, lambda a: segs.slack(y + a * dy))
        if found is None:
            return stop(it, "primal step stalled at the boundary")
        ap, S, fS = found
        found = _backtrack(segs, ad, lambda a: Z + a * dZ)
        if found is None:
            return stop(it, "dual step stalled at the boundary")
        _, Z, fZ = found
        found = dZ = None
        y = y + ap * dy
        if not np.isfinite(y).all():
            return stop(it, "non-finite iterate")
    return stop(it)


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


def _extract_ray(segs, svec_Z):
    trace = segs.trace(svec_Z)
    if trace <= 0:
        trace = 1.0
    svec_Zn = svec_Z / trace
    eq = segs.A_t @ svec_Zn
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
    F0 and report the blocks whose smallest eigenvalue is not >= -tol (a
    NaN too); the smallest eigenvalues come in the groups' block order."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise DimensionMismatchError(f"y must have shape ({problem.m},)")
    res = problem.A @ y - problem.f0
    mins = np.concatenate([eig_min(_components(
        res[g.rows].reshape(g.count, -1), g.size)) for g in problem.groups])
    return CertifyReport(min_eigs=mins, tol=tol, flagged=[
        (int(i), float(mins[i])) for i in np.flatnonzero(~(mins >= -tol))])
