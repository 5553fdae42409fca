"""Primal-dual interior-point solver for block-diagonal SDPs with many
small blocks: minimize c.y subject to sum_i F_i y_i - F_0 >= 0.

The iteration is a Nesterov-Todd scaled path-following method that keeps
the slack S = sum F_i y_i - F_0 exactly primal-feasible (feasibility of
the start is arranged by an auxiliary minimize-tau phase) and drives the
dual variable Z towards complementarity. The Schur complement over the m
variables is solved by a dense Cholesky factorization at desk scale and
by a bandwidth-reduced blocked factorization with a dense border for the
large meshes, where the dense m x m matrix would not fit. Block
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
from scipy.sparse.csgraph import reverse_cuthill_mckee

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


def _nt_inverse_scaling(S, Z):
    """W^{-1} and W^{-1/2} of the Nesterov-Todd scaling point (WZW = S)."""
    Zs = _sqrtm_spd(Z)
    T = Zs @ S @ Zs
    Ti = _inv_spd(_sqrtm_spd(T))
    Wi = Zs @ Ti @ Zs
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
# linear-system plans for the Schur complement


class _DensePlan:
    def __init__(self, m):
        self.m = m

    def factor(self, G):
        Gd = G.toarray() if sp.issparse(G) else np.asarray(G)
        if not np.isfinite(Gd).all():
            raise _FactorizationError
        ridge = 1e-13 * max(1.0, float(np.trace(Gd)) / self.m)
        for _ in range(4):
            try:
                cho = scipy.linalg.cho_factor(
                    Gd + ridge * np.eye(self.m), lower=True)
                return lambda r: scipy.linalg.cho_solve(cho, r)
            except (np.linalg.LinAlgError, ValueError):
                ridge *= 1e4
        raise _FactorizationError


class _FactorizationError(Exception):
    pass


class _BandedPlan:
    """Permute the sparse part to small bandwidth (reverse Cuthill-McKee),
    factor it with a banded Cholesky, and eliminate the handful of dense
    columns (uniform bound variables, auxiliary tau) as a border."""

    def __init__(self, G_struct):
        m = G_struct.shape[0]
        nnz_col = np.diff(G_struct.tocsc().indptr)
        thresh = max(200.0, 8.0 * float(np.median(nnz_col)))
        self.border = np.nonzero(nnz_col > thresh)[0]
        if len(self.border) > 40:
            raise _FactorizationError
        mask = np.ones(m, dtype=bool)
        mask[self.border] = False
        self.sparse_idx = np.nonzero(mask)[0]
        Gss = G_struct[self.sparse_idx][:, self.sparse_idx].tocsr()
        perm = reverse_cuthill_mckee(Gss, symmetric_mode=True)
        self.perm = np.asarray(perm)
        coo = Gss[self.perm][:, self.perm].tocoo()
        self.bandwidth = int(np.abs(coo.row - coo.col).max()) if coo.nnz else 0
        if self.bandwidth > _MAX_BAND:
            raise _FactorizationError
        self.ns = len(self.sparse_idx)
        self.inv_perm = np.empty(self.ns, dtype=np.int64)
        self.inv_perm[self.perm] = np.arange(self.ns)

    def factor(self, G):
        s_idx = self.sparse_idx
        b_idx = self.border
        Gss = G[s_idx][:, s_idx].tocsr()[self.perm][:, self.perm].tocoo()
        w = self.bandwidth
        ab = np.zeros((w + 1, self.ns))
        lowmask = Gss.row >= Gss.col
        ab[Gss.row[lowmask] - Gss.col[lowmask], Gss.col[lowmask]] = \
            Gss.data[lowmask]
        if not np.isfinite(ab).all():
            raise _FactorizationError
        ridge = 1e-13 * max(1.0, float(ab[0].sum()) / max(self.ns, 1))
        for _ in range(4):
            try:
                abr = ab.copy()
                abr[0] += ridge
                cb = scipy.linalg.cholesky_banded(abr, lower=True)
                break
            except (np.linalg.LinAlgError, ValueError):
                ridge *= 1e4
        else:
            raise _FactorizationError

        def solve_ss(r):
            return scipy.linalg.cho_solve_banded((cb, True), r)

        if len(b_idx):
            Gsb = np.asarray(G[s_idx][:, b_idx].todense())[self.perm]
            Gbb = np.asarray(G[b_idx][:, b_idx].todense())
            X = solve_ss(Gsb)
            Sbb = Gbb - Gsb.T @ X
            Sbb += 1e-13 * max(1.0, np.trace(Sbb) / max(len(b_idx), 1)) * \
                np.eye(len(b_idx))
            cho_b = scipy.linalg.cho_factor(Sbb, lower=True)
        m = G.shape[0]

        def solve(r):
            out = np.empty(m)
            rs = r[s_idx][self.perm]
            if len(b_idx):
                rb = r[b_idx]
                u = solve_ss(rs)
                yb = scipy.linalg.cho_solve(cho_b, rb - Gsb.T @ u)
                ys = u - X @ yb
                out[b_idx] = yb
            else:
                ys = solve_ss(rs)
            out[s_idx] = ys[self.inv_perm]
            return out

        return solve


class _SpluPlan:
    def factor(self, G):
        import scipy.sparse.linalg as spl
        m = G.shape[0]
        ridge = 1e-13 * max(1.0, float(G.diagonal().sum()) / m)
        Gr = (G + ridge * sp.eye(m, format="csc")).tocsc()
        try:
            lu = spl.splu(Gr, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError:
            raise _FactorizationError from None
        return lu.solve


def _make_plan(segs, m):
    """Choose the Schur-complement strategy from the structural sparsity
    pattern (all-positive data, so no entry of any iteration's G can fall
    outside it)."""
    if m <= _DENSE_LIMIT:
        return _DensePlan(m)
    A_abs = segs.A.copy()
    A_abs.data = np.abs(A_abs.data)
    ones = sp.csr_matrix((np.ones(len(segs._p_rows)),
                          (segs._p_rows, segs._p_cols)),
                         shape=(segs._nrows, segs._nrows))
    C_s = ones @ A_abs
    G_s = (C_s.T @ C_s).tocsc()
    try:
        return _BandedPlan(G_s)
    except _FactorizationError:
        return _SpluPlan()


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
        # static sparsity of the block-diagonal scaling matrix
        rows, cols = [], []
        for gi, g in enumerate(groups):
            svd = g.svdim
            base = self.row_starts[gi] + np.arange(g.count)[:, None, None] * svd
            rows.append((base + np.arange(svd)[None, :, None]
                         + np.zeros((1, 1, svd), dtype=np.int64)).ravel())
            cols.append((base + np.zeros((1, svd, 1), dtype=np.int64)
                         + np.arange(svd)[None, None, :]).ravel())
        self._p_rows = np.concatenate(rows)
        self._p_cols = np.concatenate(cols)
        self._nrows = self.A.shape[0]

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

    def scaling_matrix(self, blocks_list):
        data = np.concatenate([b.ravel() for b in blocks_list])
        return sp.csr_matrix((data, (self._p_rows, self._p_cols)),
                             shape=(self._nrows, self._nrows))

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


def _ipm_core(segs, c, settings, y0, mode, tau_index=None, tau_exit=None,
              tau_floor=None):
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
        return _ipm_loop(segs, c, settings, y, S, Z, None, norm_c, mode,
                         tau_index, tau_exit, tau_floor)


def _ipm_loop(segs, c, settings, y, S, Z, plan, norm_c, mode, tau_index,
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
        Pm = segs.scaling_matrix([_symkron(w) for w in Wh])
        C_mat = Pm @ A
        G = (C_mat.T @ C_mat).tocsc()
        if plan is None:
            plan = _make_plan(segs, segs.m)
        try:
            solve = plan.factor(G)
        except _FactorizationError:
            if not isinstance(plan, _SpluPlan):
                plan = _SpluPlan()
                try:
                    solve = plan.factor(G)
                except _FactorizationError:
                    return _CoreResult(False, False, y, Z, it - 1, gap,
                                       dual_res, failure="factorization failed")
            else:
                return _CoreResult(False, False, y, Z, it - 1, gap, dual_res,
                                   failure="factorization failed")

        Sinv = [_inv_spd(b) for b in S]
        asv = A.T @ segs.svec_all(Sinv)

        # predictor
        dy_aff = solve(-c)
        dS_aff = segs.unsvec_all(A @ dy_aff)
        dZ_aff = [-(Zb + wi @ ds @ wi)
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
        dZ = [mu_t * si - Zb - wi @ ds @ wi
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
    otherwise phase-1 feasibility followed by objective minimization."""
    settings = settings or SolverSettings()
    segs = _Segments(problem.groups, problem.m)
    m = problem.m
    c = np.asarray(problem.c, dtype=float)
    has_objective = bool(np.any(c != 0.0))

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
    res1 = _ipm_core(aug, c_tau, settings, y0, "tau", tau_index=m,
                     tau_exit=exit_level,
                     tau_floor=3.0 * exit_level - 0.05 * max(1.0, abs(tau0)))
    iterations = res1.iterations

    if res1.failure is not None:
        return Solution("NumericalFailure", res1.y[:m], float(c @ res1.y[:m]),
                        segs.min_eigs(segs.A @ res1.y[:m] - segs.f0),
                        iterations, res1.gap, notes=[res1.failure])
    tau_final = float(res1.y[m])
    if not res1.early_exit and tau_final >= -10.0 * settings.feas_tol:
        if res1.converged:
            ray = _extract_ray(segs, aug, res1.Z)
            return Solution("Infeasible", res1.y[:m], float(c @ res1.y[:m]),
                            segs.min_eigs(segs.A @ res1.y[:m] - segs.f0),
                            iterations, res1.gap, dual_ray=ray,
                            notes=[f"phase-1 optimum tau = {tau_final:.3e}"])
        return Solution("IterationLimit", res1.y[:m], float(c @ res1.y[:m]),
                        segs.min_eigs(segs.A @ res1.y[:m] - segs.f0),
                        iterations, res1.gap)

    y_feas = res1.y[:m]
    eigs = segs.min_eigs(segs.A @ y_feas - segs.f0)
    if not has_objective:
        return Solution("Feasible", y_feas, float(c @ y_feas), eigs,
                        iterations, res1.gap,
                        notes=[f"strict margin {-tau_final:.3e}"])

    # ---- phase 2: minimize the objective from the interior point ----
    res2 = _ipm_core(segs, c, settings, y_feas, "objective")
    iterations += res2.iterations
    y = res2.y
    eigs = segs.min_eigs(segs.A @ y - segs.f0)
    if res2.failure is not None or float(eigs.min()) < -settings.feas_tol:
        # fall back to the strictly feasible phase-1 point
        notes = [res2.failure or "phase-2 left the cone; phase-1 point kept"]
        return Solution("Feasible", y_feas, float(c @ y_feas),
                        segs.min_eigs(segs.A @ y_feas - segs.f0),
                        iterations, res1.gap, notes=notes)
    if res2.converged:
        return Solution("Optimal", y, float(c @ y), eigs, iterations, res2.gap)
    return Solution("Feasible", y, float(c @ y), eigs, iterations, res2.gap,
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
