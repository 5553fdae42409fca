"""Primal-dual interior-point solver for block-diagonal SDPs with many
small blocks: minimize c.y subject to sum_i F_i y_i - F_0 >= 0.

The iteration is a Nesterov-Todd scaled path-following method that keeps
the slack S = sum F_i y_i - F_0 exactly primal-feasible (feasibility of
the start is arranged by an auxiliary minimize-tau phase) and drives the
dual variable Z towards complementarity. The Schur complement over the m
variables is formed from a fixed scatter pattern built once per solve:
blocks are grouped per simplex, each group's local Gram matrix is computed
in one batch, and one bincount adds it into G. G is factored by a dense
Cholesky at desk scale, and for the large meshes by a banded Cholesky in
the variable order that the assembly reads off the mesh, with the few
variables that touch every simplex eliminated as a dense border. Block
eigenvalues for step lengths and interior checks come from `smallmat`.

`certify` re-checks a candidate y independently of the solver internals:
blocks are recomputed by plain sparse summation and, above size 2, their
eigenvalues by a local Householder tridiagonalization + QL routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import svec, svec_scale, unsvec
from .cpa import sym_basis, triu_layout
from .errors import DimensionMismatchError
from .smallmat import eig_min, gen_eig_min

_DENSE_LIMIT = 2500
_MAX_BAND = 6000


@dataclass(frozen=True)
class SolverSettings:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iterations: int = 200
    inflation: float = 1.0

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
# batched small-matrix helpers


def _interior(blocks):
    """True when every block of every size group is positive definite."""
    return all(b.size == 0 or eig_min(b).min() > 0.0 for b in blocks)


def _inv_spd(mats):
    k = mats.shape[-1]
    if k == 1:
        return 1.0 / mats
    if k == 2:
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] ** 2
        out = np.empty_like(mats)
        out[:, 0, 0] = mats[:, 1, 1]
        out[:, 1, 1] = mats[:, 0, 0]
        out[:, 0, 1] = -mats[:, 0, 1]
        out[:, 1, 0] = -mats[:, 1, 0]
        return out / det[:, None, None]
    return np.linalg.inv(mats)


def _sqrtm_spd(mats):
    k = mats.shape[-1]
    if k == 1:
        return np.sqrt(mats)
    if k == 2:
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] ** 2
        s = np.sqrt(np.maximum(det, 0.0))
        t = np.sqrt(np.maximum(mats[:, 0, 0] + mats[:, 1, 1] + 2.0 * s, 1e-300))
        out = mats.copy()
        out[:, 0, 0] += s
        out[:, 1, 1] += s
        return out / t[:, None, None]
    w, q = np.linalg.eigh(mats)
    w = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("nij,nj,nkj->nik", q, w, q)


def _mul(a, b):
    """Batched a @ b; an elementwise product (the same bits) for 1x1."""
    return a * b if a.shape[-1] == 1 else a @ b


def _nt_inverse_scaling(S, Z):
    """W^{-1} and W^{-1/2} of the Nesterov-Todd scaling point (WZW = S)."""
    Zs = _sqrtm_spd(Z)
    T = _mul(_mul(Zs, S), Zs)
    Ti = _inv_spd(_sqrtm_spd(T))
    Wi = _mul(_mul(Zs, Ti), Zs)
    return Wi, _sqrtm_spd(Wi)


def _symkron(A):
    """Symmetric Kronecker matrix P with P svec(X) = svec(A X A)."""
    N, k, _ = A.shape
    if k == 1:
        return (A[:, 0, 0] ** 2)[:, None, None]
    if k == 2:
        p, q, r = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
        out = np.empty((N, 3, 3))
        rt2 = np.sqrt(2.0)
        out[:, 0, 0] = p * p
        out[:, 0, 1] = rt2 * p * q
        out[:, 0, 2] = q * q
        out[:, 1, 0] = rt2 * p * q
        out[:, 1, 1] = p * r + q * q
        out[:, 1, 2] = rt2 * q * r
        out[:, 2, 0] = q * q
        out[:, 2, 1] = rt2 * q * r
        out[:, 2, 2] = r * r
        return out
    iu = triu_layout(k)
    U = sym_basis(k)
    U *= (svec_scale(k) / np.where(iu[0] == iu[1], 1.0, 2.0))[:, None, None]
    AUA = np.einsum("nij,rjk,nkl->nril", A, U, A)
    return np.einsum("qil,nril->nrq", U, AUA).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# Schur complement: fixed scatter pattern and factorization


class _FactorizationError(Exception):
    pass


def _frame_classes(groups, m):
    """Frames of the Schur plan, batched into classes.

    A frame is all blocks of one simplex, or one block without a simplex;
    its local columns are the sorted distinct variables its rows of A
    touch. Frames with the same width and the same block count from each
    group form a class. Per class: `cols` (frames, width) variables, and
    `parts`, one (group, block selection, dense local rows (blocks, svdim,
    width), blocks per frame, svdim) per group with blocks in the class.
    """
    frame_of, nz = [], []
    lone = max((int(g.simplex.max()) + 1 for g in groups if g.count), default=0)
    for g in groups:
        f = np.array(g.simplex, dtype=np.int64)
        solo = f < 0
        f[solo] = lone + np.arange(solo.sum())
        lone += int(solo.sum())
        frame_of.append(f)
        coo = g.A.tocoo()
        k = coo.data != 0.0
        nz.append((*np.divmod(coo.row[k].astype(np.int64), g.svdim),
                   coo.col[k].astype(np.int64), coo.data[k]))
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
            (blk, q, _, data), d = nz[gi], groups[gi].svdim
            b = np.nonzero(cls_of[frame_of[gi]] == c)[0]
            b = b[np.argsort(frame_of[gi][b], kind="stable")]
            slot = np.full(groups[gi].count, -1)
            slot[b] = np.arange(len(b))
            on = slot[blk] >= 0
            A_loc = np.bincount((slot[blk[on]] * d + q[on]) * w + local[gi][on],
                                weights=data[on], minlength=len(b) * d * w)
            if np.array_equal(b, np.arange(b[0], b[0] + len(b))):
                b = slice(b[0], b[0] + len(b))
            parts.append((gi, b, A_loc.reshape(-1, d, w), int(sig[c, 1 + gi]), d))
        rows = sum(p[3] * p[4] for p in parts)
        classes.append({"cols": ucol[start[frames][:, None] + np.arange(w)],
                        "parts": parts, "C": np.empty((len(frames), rows, w)),
                        "G": np.empty((len(frames), w, w))})
    return classes


class _SchurPlan:
    """Schur complement G = A^T blockdiag(symkron(W^{-1})) A from a fixed
    scatter pattern: the sparsity-exploiting formation of Fujisawa, Kojima
    and Nakata (Math. Program. 79, 1997).

    Each iteration forms C = symkron(W^{-1/2}) A per block over its frame's
    local columns, C^T C per frame as one batch per class, and scatters
    the lower triangles with one `np.bincount` to precomputed targets.
    Variables go in `order` (identity without one). The leading `ns` form
    a band factored by `cholesky_banded`; the trailing border variables
    keep full rows of G and are eliminated densely. Up to `_DENSE_LIMIT`
    variables there is no band, so G is one dense lower triangle. The
    phase-1 variable tau is the last border variable; its column
    A^T svec(W^{-2}) comes from the caller, so both phases share the plan.
    """

    def __init__(self, groups, m, order=None, border=0):
        self.m = m
        self.classes = _frame_classes(groups, m)
        if m <= _DENSE_LIMIT:  # no band: every variable is in the border
            order, border = None, m
        self.order = np.append(np.arange(m) if order is None else order,
                               m).astype(np.int64)
        self.ns, self.nb = m - border, border + 1
        self.pos = np.empty(m + 1, dtype=np.int64)
        self.pos[self.order] = np.arange(m + 1)
        hi, lo = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for cls in self.classes:
            w = cls["cols"].shape[1]
            il0, il1 = np.tril_indices(w)
            cls["lower"] = il0 * w + il1
            p = self.pos[cls["cols"]]
            hi.append(np.maximum(p[:, il0], p[:, il1]).ravel())
            lo.append(np.minimum(p[:, il0], p[:, il1]).ravel())
        hi, lo = np.concatenate(hi), np.concatenate(lo)
        band = hi < self.ns
        self.bandwidth = int((hi - lo)[band].max(initial=0))
        if self.bandwidth > _MAX_BAND:
            raise _FactorizationError(
                f"Schur bandwidth {self.bandwidth} exceeds {_MAX_BAND}")
        self.row0 = (self.bandwidth + 1) * self.ns
        self.targets = np.where(band, lo * (self.bandwidth + 1) + hi - lo,
                                self.row0 + (hi - self.ns) * (m + 1) + lo)
        self.weights = np.empty(len(self.targets))
        self.info = ({"kind": "banded", "bandwidth": self.bandwidth,
                      "border": self.nb} if self.ns else
                     {"kind": "dense", "bandwidth": None, "border": 0})

    def form(self, Wh, tau_col=None):
        """The stored lower triangle of G for the block scalings Wh
        (W^{-1/2} per group); `tau_col` is G's tau column in phase 1."""
        symk = [_symkron(w) for w in Wh]
        off = 0
        for cls in self.classes:
            nf, w = cls["cols"].shape
            C, G = cls["C"], cls["G"]
            r = 0
            for gi, sel, A_loc, cnt, d in cls["parts"]:
                P = symk[gi][sel].reshape(nf, cnt, d, d)
                out = C[:, r:r + cnt * d].reshape(nf, cnt, d, w)
                (np.multiply if d == 1 else np.matmul)(
                    P, A_loc.reshape(nf, cnt, d, w), out=out)
                r += cnt * d
            np.matmul(C.transpose(0, 2, 1), C, out=G)
            nl = len(cls["lower"])
            np.take(G.reshape(nf, w * w), cls["lower"], axis=1,
                    out=self.weights[off:off + nf * nl].reshape(nf, nl))
            off += nf * nl
        buf = np.bincount(self.targets, weights=self.weights,
                          minlength=self.row0 + self.nb * (self.m + 1)
                          ).astype(float, copy=False)
        if tau_col is not None:
            buf[self.row0 + (self.nb - 1) * (self.m + 1) + self.pos] = tau_col
        return buf

    def band(self, buf):
        """A view of G's band in LAPACK lower band storage; buf holds it
        column by column, the order in which LAPACK reads it."""
        return buf[:self.row0].reshape(self.ns, self.bandwidth + 1).T

    def factor(self, buf, tau):
        """A solver for G (with the tau row and column when `tau`): banded
        Cholesky of the band, then the dense border's Schur complement."""
        if not np.isfinite(buf).all():
            raise _FactorizationError
        ns, nbt = self.ns, self.nb - 1 + tau
        rows = buf[self.row0:].reshape(self.nb, self.m + 1)[:nbt, :ns + nbt]
        solve_ss = _cholesky(self.band(buf), banded=True)
        Gsb = np.ascontiguousarray(rows[:, :ns].T)
        X = solve_ss(Gsb)
        # only lower triangles are stored and read
        solve_bb = _cholesky(rows[:, ns:] - Gsb.T @ X if ns else rows[:, ns:])
        perm = self.order[:ns + nbt]

        def solve(r):
            rp = r[perm]
            u = solve_ss(rp[:ns])
            yb = solve_bb(rp[ns:] - Gsb.T @ u)
            out = np.empty(len(perm))
            out[perm] = np.concatenate([u - X @ yb, yb])
            return out

        return solve


def _cholesky(G, banded=False):
    """Solver for the positive definite G from its lower triangle, dense
    or (when `banded`) in band storage. A ridge of 1e-13 times the mean
    diagonal is added in place, and grown on failure."""
    n = G.shape[1]
    if n == 0:
        return lambda r: r
    diag = (0, slice(None)) if banded else np.diag_indices(n)
    ridge = 1e-13 * max(1.0, float(G[diag].sum()) / n)
    added = 0.0
    for _ in range(4):
        G[diag] += ridge - added
        added = ridge
        try:
            if banded:
                cb = scipy.linalg.cholesky_banded(G, lower=True,
                                                  check_finite=False)
                return lambda r: scipy.linalg.cho_solve_banded(
                    (cb, True), r, check_finite=False)
            cho = scipy.linalg.cho_factor(G, lower=True, check_finite=False)
            return lambda r: scipy.linalg.cho_solve(cho, r, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            ridge *= 1e4
    raise _FactorizationError


# ---------------------------------------------------------------------------
# core iteration


class _Segments:
    """Static per-size-group structure of the stacked svec system."""

    def __init__(self, groups, m):
        self.m = m
        self.A = sp.vstack([g.A for g in groups], format="csr")
        self.f0 = np.concatenate([g.f0 for g in groups])
        self.sizes = [g.size for g in groups]
        self.counts = [g.count for g in groups]
        self.row_starts = np.cumsum([0] + [g.count * g.svdim for g in groups])
        self.Ntot = sum(g.count * g.size for g in groups)

    def seg_slices(self):
        for gi, k in enumerate(self.sizes):
            yield gi, k, self.counts[gi], slice(self.row_starts[gi],
                                                self.row_starts[gi + 1])

    def unsvec_all(self, vec):
        return [
            unsvec(vec[sl].reshape(cnt, -1), k)
            for _, k, cnt, sl in self.seg_slices()
        ]

    def svec_all(self, mats_list):
        return np.concatenate([svec(mats).ravel() for mats in mats_list])

    def dot(self, mats_a, mats_b):
        return float(sum(np.einsum("nij,nij->", a, b)
                         for a, b in zip(mats_a, mats_b)))

    def identity(self, scale=1.0):
        return [np.tile(scale * np.eye(k), (cnt, 1, 1))
                for _, k, cnt, _ in self.seg_slices()]

    def max_step(self, mats, dmats):
        """Largest alpha with mats + alpha*dmats psd, blockwise."""
        alpha = np.inf
        for Mb, Db in zip(mats, dmats):
            g = gen_eig_min(Db, Mb)
            gmin = float(g.min()) if g.size else 0.0
            if gmin < 0.0:
                alpha = min(alpha, -1.0 / gmin)
        return alpha

    def min_eigs(self, vec):
        return np.concatenate([
            eig_min(unsvec(vec[sl].reshape(cnt, -1), k))
            for _, k, cnt, sl in self.seg_slices()
        ])


@dataclass
class _CoreResult:
    converged: bool
    early_exit: bool
    y: np.ndarray
    Z: list
    iterations: int
    gap: float
    dual_res: float
    failure: str | None = None


def _ipm_core(segs, schur, c, settings, y0, mode, tau_index=None,
              tau_exit=None, tau_floor=None):
    """Path-following loop. `mode` is 'objective' or 'tau'; in tau mode the
    loop exits as soon as y[tau_index] < tau_exit (strict feasibility) and
    steps are capped so tau does not overshoot far below tau_floor (the
    phase-1 objective is typically unbounded)."""
    y = np.asarray(y0, dtype=float).copy()
    A = segs.A
    svec_S = A @ y - segs.f0
    S = segs.unsvec_all(svec_S)
    if not _interior(S):
        return _CoreResult(False, False, y, segs.identity(), 0, np.inf, np.inf,
                           failure="initial point not strictly feasible")
    Z = segs.identity()
    norm_c = max(1.0, float(np.abs(c).max()))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _ipm_loop(segs, c, settings, y, S, Z, schur, norm_c, mode,
                         tau_index, tau_exit, tau_floor)


def _ipm_loop(segs, c, settings, y, S, Z, schur, norm_c, mode, tau_index,
              tau_exit, tau_floor):
    A = segs.A
    gap = segs.dot(S, Z)
    dual_res = np.inf
    it = 0
    for it in range(1, settings.max_iterations + 1):
        svec_Z = segs.svec_all(Z)
        gap = segs.dot(S, Z)
        mu = gap / segs.Ntot
        dual_res = float(np.abs(c - A.T @ svec_Z).max())
        obj = float(c @ y)

        if mode == "tau" and y[tau_index] < tau_exit:
            return _CoreResult(True, True, y, Z, it - 1, gap, dual_res)
        if (mu <= settings.gap_tol * (1.0 + abs(obj))
                and dual_res <= 100.0 * settings.gap_tol * norm_c):
            return _CoreResult(True, False, y, Z, it - 1, gap, dual_res)
        if mode == "objective" and abs(obj) > 1e14:
            return _CoreResult(False, False, y, Z, it - 1, gap, dual_res,
                               failure="objective appears unbounded below")

        try:
            Wi, Wh = zip(*(_nt_inverse_scaling(Sb, Zb) for Sb, Zb in zip(S, Z)))
        except np.linalg.LinAlgError:
            return _CoreResult(False, False, y, Z, it - 1, gap, dual_res,
                               failure="scaling breakdown")
        tau = tau_index is not None
        # tau's coefficient is the identity in every block, so its column
        # of G is A^T svec(W^{-2})
        tau_col = A.T @ segs.svec_all([_mul(w, w) for w in Wi]) if tau else None
        try:
            solve = schur.factor(schur.form(Wh, tau_col), tau)
        except _FactorizationError:
            return _CoreResult(False, False, y, Z, it - 1, gap, dual_res,
                               failure="factorization failed")

        Sinv = [_inv_spd(b) for b in S]
        asv = A.T @ segs.svec_all(Sinv)

        # predictor
        dy_aff = solve(-c)
        dS_aff = segs.unsvec_all(A @ dy_aff)
        dZ_aff = [-(Zb + _mul(_mul(wi, ds), wi))
                  for Zb, wi, ds in zip(Z, Wi, dS_aff)]
        ap = min(1.0, 0.99 * segs.max_step(S, dS_aff))
        ad = min(1.0, 0.99 * segs.max_step(Z, dZ_aff))
        gap_aff = segs.dot([s + ap * d for s, d in zip(S, dS_aff)],
                           [z + ad * d for z, d in zip(Z, dZ_aff)])
        sigma = min(0.9, max(1e-6, (max(gap_aff, 0.0) / gap) ** 3))
        mu_t = sigma * mu

        # corrector
        dy = solve(mu_t * asv - c)
        dS = segs.unsvec_all(A @ dy)
        dZ = [mu_t * si - Zb - _mul(_mul(wi, ds), wi)
              for si, Zb, wi, ds in zip(Sinv, Z, Wi, dS)]
        ap = min(1.0, 0.98 * segs.max_step(S, dS))
        ad = min(1.0, 0.98 * segs.max_step(Z, dZ))
        if (mode == "tau" and tau_floor is not None and dy[tau_index] < 0.0
                and y[tau_index] + ap * dy[tau_index] < tau_floor):
            ap = (tau_floor - y[tau_index]) / dy[tau_index]
        if not np.isfinite(ap) or not np.isfinite(ad) or ap <= 0 or ad <= 0:
            return _CoreResult(False, False, y, Z, it, gap, dual_res,
                               failure="step computation failed")
        # the fractional step can still graze the cone boundary; backtrack
        # until both iterates are strictly inside
        for _ in range(40):
            y_try = y + ap * dy
            S_try = segs.unsvec_all(A @ y_try - segs.f0)
            if _interior(S_try):
                break
            ap *= 0.5
        else:
            return _CoreResult(False, False, y, Z, it, gap, dual_res,
                               failure="primal step stalled at the boundary")
        for _ in range(40):
            Z_try = [Zb + ad * d for Zb, d in zip(Z, dZ)]
            if _interior(Z_try):
                break
            ad *= 0.5
        else:
            return _CoreResult(False, False, y, Z, it, gap, dual_res,
                               failure="dual step stalled at the boundary")
        y = y_try
        S = S_try
        Z = Z_try
        if not np.isfinite(y).all():
            return _CoreResult(False, False, y, Z, it, gap, dual_res,
                               failure="non-finite iterate")
    return _CoreResult(False, False, y, Z, it, gap, dual_res)


def _augment_tau(segs, settings):
    """Append the tau column (identity on every block) and the starting
    point of the phase-1 problem min tau s.t. A(y) + tau I - F0 >= 0."""
    ident = segs.svec_all(segs.identity())
    A_aug = sp.hstack([segs.A, sp.csr_matrix(ident[:, None])], format="csr")
    f0_eigs = segs.min_eigs(-segs.f0)
    tau0 = float(-f0_eigs.min())
    tau0 = tau0 + max(1.0, abs(tau0)) * max(settings.inflation, 0.1)
    return A_aug, tau0


def solve(problem, settings=None):
    """Solve the assembled problem; feasibility when the objective is zero,
    otherwise phase-1 feasibility followed by objective minimization. The
    Solution records the Schur plan that both phases used."""
    settings = settings or SolverSettings()
    segs = _Segments(problem.groups, problem.m)
    m = problem.m
    c = np.asarray(problem.c, dtype=float)
    has_objective = bool(np.any(c != 0.0))
    try:
        schur = _SchurPlan(problem.groups, m, problem.schur_order,
                           problem.schur_border)
    except _FactorizationError as exc:
        return Solution("NumericalFailure", np.zeros(m), 0.0,
                        segs.min_eigs(-segs.f0), 0, np.inf, notes=[str(exc)])

    def result(status, y, gap, **kw):
        return Solution(status, y, float(c @ y),
                        segs.min_eigs(segs.A @ y - segs.f0), iterations, gap,
                        schur=schur.info, **kw)

    # ---- phase 1: minimize tau ----
    aug = _Segments.__new__(_Segments)
    aug.__dict__.update(segs.__dict__)
    aug.m = m + 1
    aug.A, tau0 = _augment_tau(segs, settings)
    c_tau = np.zeros(m + 1)
    c_tau[m] = 1.0
    y0 = np.zeros(m + 1)
    y0[m] = tau0
    exit_level = min(-10.0 * settings.feas_tol, -1e-4)
    if has_objective:
        exit_level = min(exit_level, -0.05 * max(1.0, abs(tau0)))
    res1 = _ipm_core(aug, schur, c_tau, settings, y0, "tau", tau_index=m,
                     tau_exit=exit_level,
                     tau_floor=3.0 * exit_level - 0.05 * max(1.0, abs(tau0)))
    iterations = res1.iterations

    if res1.failure is not None:
        return result("NumericalFailure", res1.y[:m], res1.gap,
                      notes=[res1.failure])
    tau_final = float(res1.y[m])
    if not res1.early_exit and tau_final >= -10.0 * settings.feas_tol:
        if res1.converged:
            return result("Infeasible", res1.y[:m], res1.gap,
                          dual_ray=_extract_ray(segs, aug, res1.Z),
                          notes=[f"phase-1 optimum tau = {tau_final:.3e}"])
        return result("IterationLimit", res1.y[:m], res1.gap)

    y_feas = res1.y[:m]
    if not has_objective:
        return result("Feasible", y_feas, res1.gap,
                      notes=[f"strict margin {-tau_final:.3e}"])

    # ---- phase 2: minimize the objective from the interior point ----
    res2 = _ipm_core(segs, schur, c, settings, y_feas, "objective")
    iterations += res2.iterations
    y = res2.y
    eigs = segs.min_eigs(segs.A @ y - segs.f0)
    if res2.failure is not None or float(eigs.min()) < -settings.feas_tol:
        # fall back to the strictly feasible phase-1 point
        return result("Feasible", y_feas, res1.gap, notes=[
            res2.failure or "phase-2 left the cone; phase-1 point kept"])
    if res2.converged:
        return result("Optimal", y, res2.gap)
    return result("Feasible", y, res2.gap,
                  notes=["iteration limit before gap closure"])


def _extract_ray(segs, aug, Z):
    svec_Z = segs.svec_all(Z)
    trace = float(np.asarray(aug.A[:, -1].T @ svec_Z).ravel()[0])
    if trace <= 0:
        trace = 1.0
    svec_Zn = svec_Z / trace
    eq = segs.A.T @ svec_Zn
    return {
        "objective": float(segs.f0 @ svec_Zn),
        "eq_residual": float(np.abs(eq).max()),
        "trace": 1.0,
        "svec": svec_Zn,
    }


# ---------------------------------------------------------------------------
# independent certification


def tridiagonal_ql_eigenvalues(mat):
    """Eigenvalues of a dense symmetric matrix by Householder
    tridiagonalization followed by implicit-shift QL."""
    a = np.array(mat, dtype=float)
    k = a.shape[0]
    if k == 1:
        return a[0, :1].copy()
    # Householder reduction to tridiagonal form
    d = np.zeros(k)
    e = np.zeros(k)
    for i in range(k - 1, 0, -1):
        l = i - 1
        h = 0.0
        if l > 0:
            scale = np.sum(np.abs(a[i, :l + 1]))
            if scale == 0.0:
                e[i] = a[i, l]
            else:
                row = a[i, :l + 1] / scale
                h = float(row @ row)
                f = row[l]
                g = -np.sqrt(h) if f >= 0 else np.sqrt(h)
                e[i] = scale * g
                h -= f * g
                row[l] = f - g
                a[i, :l + 1] = row
                p = (a[:l + 1, :l + 1] @ row) / h
                K = float(row @ p) / (2.0 * h)
                p -= K * row
                a[:l + 1, :l + 1] -= (np.outer(row, p) + np.outer(p, row))
        else:
            e[i] = a[i, l]
        d[i] = h
    d[0] = 0.0
    e[0] = 0.0
    for i in range(k):
        d[i] = a[i, i]

    # implicit-shift QL on the tridiagonal (d, e)
    e[:-1] = e[1:]
    e[-1] = 0.0
    for l in range(k):
        for _ in range(50):
            mtop = k - 1
            for mm in range(l, k - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= np.finfo(float).eps * dd:
                    mtop = mm
                    break
            if mtop == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, 1.0)
            g = d[mtop] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s_, c_ = 1.0, 1.0
            p = 0.0
            for i in range(mtop - 1, l - 1, -1):
                f = s_ * e[i]
                b = c_ * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[mtop] = 0.0
                    break
                s_ = f / r
                c_ = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s_ + 2.0 * c_ * b
                p = s_ * r
                d[i + 1] = g + p
                g = c_ * r - b
            else:
                d[l] -= p
                e[l] = g
                e[mtop] = 0.0
    return np.sort(d)


def certify(problem, y, tol):
    """Recompute every block of sum F_i y_i - F_0 by plain summation and
    report the blocks whose smallest eigenvalue falls below -tol."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise DimensionMismatchError(f"y must have shape ({problem.m},)")
    mins = []
    flagged = []
    base = 0
    for g in problem.groups:
        mats = unsvec((g.A @ y - g.f0).reshape(g.count, -1), g.size)
        if g.size <= 2:
            vals = eig_min(mats)
        else:
            vals = np.array([tridiagonal_ql_eigenvalues(mm)[0] for mm in mats])
        mins.append(vals)
        for idx in np.nonzero(vals < -tol)[0]:
            flagged.append((base + int(idx), float(vals[idx])))
        base += g.count
    return CertifyReport(min_eigs=np.concatenate(mins), flagged=flagged,
                         tol=tol)
