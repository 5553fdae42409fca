"""Translation of the vertex constraints into a block-diagonal SDP in the
standard form  sum_i F_i y_i - F_0 = X >= 0.

Variable layout: the metric entries come first, slot-major (P = n(n+1)/2
entries per periodic vertex slot), followed by the simplex bound variables
(either one uniform C and one uniform D, or per-simplex arrays), and an
optional auxiliary C_max.

Blocks are stored group-wise as sparse "svec" matrices: each block of size
k contributes k(k+1)/2 rows holding the upper triangle of its coefficient
matrices, off-diagonal entries scaled by sqrt(2) so that row-dot-row equals
the matrix inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .cpa import sym_basis, triu_layout, unpack_symmetric
from .errors import DimensionMismatchError, EmptyComplexError, MissingBoundsError
from .systems import simplex_bounding_boxes

_SQRT2 = np.sqrt(2.0)


def svec_scale(n):
    """Row scaling of the upper-triangle representation (1 diag, √2 off)."""
    iu = triu_layout(n)
    return np.where(iu[0] == iu[1], 1.0, _SQRT2)


def svec(mat):
    """Symmetric (..., n, n) -> scaled upper triangle (..., P)."""
    n = mat.shape[-1]
    iu = triu_layout(n)
    return mat[..., iu[0], iu[1]] * svec_scale(n)


def unsvec(vec, n):
    """Scaled upper triangle (..., P) -> symmetric (..., n, n)."""
    return unpack_symmetric(np.asarray(vec) / svec_scale(n), n)


def _system_cache_key(sys):
    return (tuple(str(f) for f in sys.rhs), sys.smoothness,
            None if sys.user_bounds is None else (sys.user_bounds.B,
                                                  sys.user_bounds.B3))


def fill_derivative_bounds(cx, sys):
    """Cache the per-simplex bounds B (order 2) and, for C3 systems, B3,
    over the axis-aligned bounding box of each simplex."""
    lo, hi = simplex_bounding_boxes(cx.vert_xyz[cx.simp_verts])
    cx.B2 = sys.derivative_bound_boxes(lo, hi, 2)
    cx.B3 = (sys.derivative_bound_boxes(lo, hi, 3)
             if sys.smoothness == "C3" else None)
    cx._bound_key = _system_cache_key(sys)


def ensure_derivative_bounds(cx, sys):
    """Fill the caches unless they already belong to this system."""
    if cx.B2 is None or getattr(cx, "_bound_key", None) != _system_cache_key(sys):
        fill_derivative_bounds(cx, sys)


def enu_coefficient_arrays(cx, smoothness):
    """(a_C, a_D) arrays over all simplices for the given smoothness mode:
    the linear margin E = a_C * C + a_D * D of the contraction blocks."""
    if cx.B2 is None:
        raise MissingBoundsError("order-2 bounds are not cached on the complex")
    n = cx.n
    h = cx.h
    if smoothness == "C2":
        a_D = h**2 * n * np.sqrt(n + 1.0) * cx.B2
        a_C = 2.0 * h * n**2 * (n + 1.0) * cx.B2
    else:
        if cx.B3 is None:
            raise MissingBoundsError("order-3 bounds are not cached on the complex")
        a_D = h**2 * n * np.sqrt(n + 1.0) * (1.0 + 4.0 * n) * cx.B2
        a_C = 2.0 * h**2 * n**2 * (n + 1.0) * cx.B3
    return a_C, a_D


@dataclass(frozen=True)
class VariableMap:
    """Bijective, gap-free indexing of the SDP variables."""

    n: int
    n_slots: int
    n_simplices: int
    uniform: bool
    objective: str

    @property
    def P(self):
        return self.n * (self.n + 1) // 2

    @property
    def metric_count(self):
        return self.P * self.n_slots

    @property
    def m(self):
        base = self.metric_count
        if self.uniform:
            base += 2
        else:
            base += 2 * self.n_simplices
            if self.objective == "min_c":
                base += 1
        return base

    def c_index(self, nu=0):
        if self.uniform:
            return self.metric_count
        return self.metric_count + nu

    def d_index(self, nu=0):
        if self.uniform:
            return self.metric_count + 1
        return self.metric_count + self.n_simplices + nu

    @property
    def cmax_index(self):
        if self.uniform or self.objective != "min_c":
            raise ValueError("no auxiliary C_max in this mode")
        return self.metric_count + 2 * self.n_simplices

    def metric_values(self, y):
        return np.asarray(y)[: self.metric_count].reshape(self.n_slots, self.P)

    def bound_constants(self, y):
        """(C, D) with C = max over simplices in per-simplex mode."""
        y = np.asarray(y)
        if self.uniform:
            return float(y[self.c_index()]), float(y[self.d_index()])
        s = self.n_simplices
        return (float(y[self.metric_count: self.metric_count + s].max()),
                float(y[self.metric_count + s: self.metric_count + 2 * s].max()))


@dataclass
class BlockGroup:
    """Homogeneous family of SDP blocks in svec row storage."""

    family: str
    size: int
    count: int
    A: sp.csr_matrix
    f0: np.ndarray
    simplex: np.ndarray
    vertex: np.ndarray

    @property
    def svdim(self):
        return self.size * (self.size + 1) // 2


@dataclass
class SDPProblem:
    """Assembled SDP. `schur_order`, when set, is the variable order for a
    banded Schur complement; its last `schur_border` entries are the
    variables that touch every simplex."""

    m: int
    c: np.ndarray
    groups: list
    n: int
    meta: dict = field(default_factory=dict)
    schur_order: np.ndarray | None = None
    schur_border: int = 0

    @property
    def n_blocks(self):
        return sum(g.count for g in self.groups)

    def census(self):
        """family -> (block size, block count)."""
        return {g.family: (g.size, g.count) for g in self.groups}

    def block_location(self, index):
        for gi, g in enumerate(self.groups):
            if index < g.count:
                return gi, index
            index -= g.count
        raise IndexError("block index out of range")

    def residual(self, y, block_index):
        """Sum F_i y_i - F_0 restricted to one block, as a dense matrix."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.m,):
            raise DimensionMismatchError(f"y must have shape ({self.m},)")
        gi, bi = self.block_location(block_index)
        g = self.groups[gi]
        rows = slice(bi * g.svdim, (bi + 1) * g.svdim)
        vec = g.A[rows] @ y - g.f0[rows]
        return unsvec(vec, g.size)


def assemble(cx, sys, eps0, uniform_cd=True, objective="min_c"):
    """Assemble the constraint blocks over the complex.

    Returns (SDPProblem, VariableMap). The periodicity constraint is
    structural: paired vertices read the same storage slot.
    """
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    if objective not in ("none", "min_c"):
        raise ValueError("objective must be 'none' or 'min_c'")
    if cx.n_simplices == 0:
        raise EmptyComplexError("complex has no simplices")
    ensure_derivative_bounds(cx, sys)

    n = cx.n
    P = n * (n + 1) // 2
    S = cx.n_simplices
    v = cx.n_slots
    vmap = VariableMap(n=n, n_slots=v, n_simplices=S,
                       uniform=uniform_cd, objective=objective)
    m = vmap.m

    a_C, a_D = enu_coefficient_arrays(cx, sys.smoothness)
    scale = svec_scale(n)
    iu = triu_layout(n)
    diag_p = np.nonzero(iu[0] == iu[1])[0]

    slots_sv = cx.vert_slot[cx.simp_verts]              # (S, n+2)
    vxyz = cx.vert_xyz
    f_geo = sys.f_tilde_many(vxyz)                      # (Nv, n+1)
    J_geo = sys.jacobian_many(vxyz)                     # (Nv, n, n)
    Jv = J_geo[cx.simp_verts]                           # (S, n+2, n, n)
    ftv = f_geo[cx.simp_verts]                          # (S, n+2, n+1)

    groups = []

    # ---- bound on M (Constraint 2) ----
    if uniform_cd:
        cnt = v
        rows_m = np.arange(v * P, dtype=np.int64)
        cols_m = np.arange(v * P, dtype=np.int64)
        data_m = -np.tile(scale, v)
        rows_c = (np.arange(v, dtype=np.int64)[:, None] * P + diag_p).ravel()
        cols_c = np.full(rows_c.shape, vmap.c_index(), dtype=np.int64)
        data_c = np.ones(rows_c.shape)
        A2 = sp.csr_matrix(
            (np.concatenate([data_m, data_c]),
             (np.concatenate([rows_m, rows_c]), np.concatenate([cols_m, cols_c]))),
            shape=(v * P, m))
        groups.append(BlockGroup("bound_M", n, cnt, A2, np.zeros(v * P),
                                 np.full(v, -1, dtype=np.int64),
                                 np.arange(v, dtype=np.int64)))
    else:
        cnt = (n + 2) * S
        blk = np.arange(cnt, dtype=np.int64)
        rows_m = (blk[:, None] * P + np.arange(P)).ravel()
        cols_m = (slots_sv.reshape(-1)[:, None] * P + np.arange(P)).ravel()
        data_m = -np.tile(scale, cnt)
        nus = np.repeat(np.arange(S, dtype=np.int64), n + 2)
        rows_c = (blk[:, None] * P + diag_p).ravel()
        cols_c = np.repeat(vmap.c_index(0) + nus, len(diag_p))
        data_c = np.ones(rows_c.shape)
        A2 = sp.csr_matrix(
            (np.concatenate([data_m, data_c]),
             (np.concatenate([rows_m, rows_c]), np.concatenate([cols_m, cols_c]))),
            shape=(cnt * P, m))
        groups.append(BlockGroup("bound_M", n, cnt, A2, np.zeros(cnt * P),
                                 nus, cx.simp_verts.reshape(-1).astype(np.int64)))

    # ---- gradient bound (Constraint 3): D/(n+1) +- (w_ij)_l >= 0 ----
    # block order: (simplex, entry p, component l, sign +/-)
    cnt3 = 2 * P * (n + 1) * S
    beta = np.concatenate([-cx.Xinv.sum(axis=2, keepdims=True), cx.Xinv],
                          axis=2)                        # (S, n+1 l, n+2 k)
    signs = np.array([1.0, -1.0])
    # row index r(s,p,l,sigma) = ((s*P + p)*(n+1) + l)*2 + sigma
    s_idx = np.arange(S, dtype=np.int64)
    base = (((s_idx[:, None, None, None] * P
              + np.arange(P)[None, :, None, None]) * (n + 1)
             + np.arange(n + 1)[None, None, :, None]) * 2
            + np.arange(2)[None, None, None, :])         # (S,P,n+1,2)
    rows_w = np.broadcast_to(base[..., None], base.shape + (n + 2,))
    cols_w = np.broadcast_to(
        slots_sv[:, None, None, None, :] * P
        + np.arange(P)[None, :, None, None, None], rows_w.shape)
    data_w = np.broadcast_to(
        signs[None, None, None, :, None] * beta[:, None, :, None, :],
        rows_w.shape)
    rows_d = base
    cols_d = vmap.d_index(0) + (np.zeros_like(base) if uniform_cd
                                else s_idx[:, None, None, None])
    data_d = np.full(base.shape, 1.0 / (n + 1))
    A3 = sp.csr_matrix(
        (np.concatenate([data_w.ravel(), data_d.ravel()]),
         (np.concatenate([rows_w.ravel(), rows_d.ravel()]),
          np.concatenate([cols_w.ravel(),
                          np.broadcast_to(cols_d, base.shape).ravel()]))),
        shape=(cnt3, m))
    groups.append(BlockGroup("grad_bound", 1, cnt3, A3, np.zeros(cnt3),
                             np.repeat(np.arange(S, dtype=np.int64), 2 * P * (n + 1)),
                             np.full(cnt3, -1, dtype=np.int64)))

    # ---- positive definiteness (Constraint 4): M(slot) - eps0 I >= 0 ----
    rows4 = np.arange(v * P, dtype=np.int64)
    data4 = np.tile(scale, v)
    f04 = np.zeros(v * P)
    f04[(np.arange(v, dtype=np.int64)[:, None] * P + diag_p).ravel()] = eps0
    A4 = sp.csr_matrix((data4, (rows4, rows4)), shape=(v * P, m))
    groups.append(BlockGroup("pos_def", n, v, A4, f04,
                             np.full(v, -1, dtype=np.int64),
                             np.arange(v, dtype=np.int64)))

    # ---- contraction (Constraint 5) ----
    cnt5 = (n + 2) * S
    blk5 = np.arange(cnt5, dtype=np.int64).reshape(S, n + 2)
    SymP = sym_basis(n)
    # coefficient of M_p(slot of vertex k): -(Sym_p J + J^T Sym_p)
    SJ = np.einsum("pab,skbc->skpac", SymP, Jv)
    T1 = -(SJ + np.swapaxes(SJ, -1, -2))
    sv1 = T1[..., iu[0], iu[1]] * scale                 # (S, n+2, P, P_rows)
    rows1 = (blk5[:, :, None, None] * P + np.arange(P)[None, None, None, :])
    cols1 = (slots_sv[:, :, None, None] * P + np.arange(P)[None, None, :, None])
    rows1 = np.broadcast_to(rows1, sv1.shape)
    cols1 = np.broadcast_to(cols1, sv1.shape)

    # coefficient from the orbital-derivative term: variable M_p(slot of
    # vertex k') enters entry p of block (s, k) with weight gamma[s,k,k']
    g = np.einsum("skl,slc->skc", ftv, cx.Xinv)          # (S, n+2, n+1)
    gamma = np.concatenate([-g.sum(axis=2, keepdims=True), g], axis=2)
    rows2 = np.broadcast_to(
        (blk5[:, :, None, None] * P + np.arange(P)[None, None, None, :]),
        (S, n + 2, n + 2, P))
    cols2 = np.broadcast_to(
        slots_sv[:, None, :, None] * P + np.arange(P)[None, None, None, :],
        (S, n + 2, n + 2, P))
    data2 = np.broadcast_to((-gamma[..., None]) * scale[None, None, None, :],
                            (S, n + 2, n + 2, P))

    # C and D columns: -(a_C C + a_D D) I ; F0 block is +I
    rows_cd = (blk5[:, :, None] * P + diag_p[None, None, :])
    cols_c5 = vmap.c_index(0) + (np.zeros((S, 1, 1), dtype=np.int64) if uniform_cd
                                 else s_idx[:, None, None])
    cols_d5 = vmap.d_index(0) + (np.zeros((S, 1, 1), dtype=np.int64) if uniform_cd
                                 else s_idx[:, None, None])
    data_c5 = np.broadcast_to(-a_C[:, None, None], rows_cd.shape)
    data_d5 = np.broadcast_to(-a_D[:, None, None], rows_cd.shape)

    A5 = sp.csr_matrix(
        (np.concatenate([sv1.ravel(), data2.ravel(),
                         data_c5.ravel(), data_d5.ravel()]),
         (np.concatenate([rows1.ravel(), rows2.ravel(),
                          rows_cd.ravel(), rows_cd.ravel()]),
          np.concatenate([cols1.ravel(), cols2.ravel(),
                          np.broadcast_to(cols_c5, rows_cd.shape).ravel(),
                          np.broadcast_to(cols_d5, rows_cd.shape).ravel()]))),
        shape=(cnt5 * P, m))
    f05 = np.zeros(cnt5 * P)
    f05[rows_cd.ravel()] = 1.0
    groups.append(BlockGroup("contraction", n, cnt5, A5, f05,
                             np.repeat(np.arange(S, dtype=np.int64), n + 2),
                             cx.simp_verts.reshape(-1).astype(np.int64)))

    # ---- auxiliary C_max linking blocks (per-simplex min_c only) ----
    if not uniform_cd and objective == "min_c":
        rows6 = np.arange(S, dtype=np.int64)
        A6 = sp.csr_matrix(
            (np.concatenate([np.ones(S), -np.ones(S)]),
             (np.concatenate([rows6, rows6]),
              np.concatenate([np.full(S, vmap.cmax_index, dtype=np.int64),
                              vmap.c_index(0) + rows6]))),
            shape=(S, m))
        groups.append(BlockGroup("cmax_link", 1, S, A6, np.zeros(S),
                                 rows6, np.full(S, -1, dtype=np.int64)))

    c = np.zeros(m)
    if objective == "min_c":
        c[vmap.cmax_index if not uniform_cd else vmap.c_index()] = 1.0

    order, border = schur_order(cx, vmap)
    problem = SDPProblem(m=m, c=c, groups=groups, n=n,
                         meta={"eps0": eps0, "uniform": uniform_cd,
                               "objective": objective,
                               "a_C": a_C, "a_D": a_D},
                         schur_order=order, schur_border=border)
    return problem, vmap


def schur_order(cx, vmap):
    """Variable order that gives the Schur complement a narrow band, and
    the size of its trailing border.

    Simplices only link adjacent t-slabs, and slab 2^K - 1 links back to
    slab 0. Taking the slabs in the folded order 0, 2^K - 1, 1, 2^K - 2, ...
    puts every pair of linked slabs at most two places apart without
    cutting the ring. Metric slots go slab by slab in that order, sorted
    by x within a slab (the slot numbering already is). Per-simplex C and
    D follow the slots of their simplex's lower slab. The uniform C and D,
    or C_max, touch every simplex and form the border.
    """
    N = cx.n_slabs

    def fold(s):
        return np.where(s < N - 1 - s, 2 * s, 2 * (N - 1 - s) + 1)

    var = [np.arange(vmap.metric_count)]
    key = [np.repeat(fold(cx.vert_q[cx.slot_rep, 0]), vmap.P)]
    if vmap.uniform:
        border = [vmap.c_index(), vmap.d_index()]
    else:
        nus = np.arange(vmap.n_simplices)
        var.append(np.stack([vmap.c_index(0) + nus, vmap.d_index(0) + nus],
                            axis=1).ravel())
        key.append(np.repeat(fold(cx.simp_gen[:, 0]), 2))
        border = [vmap.cmax_index] if vmap.objective == "min_c" else []
    var, key = np.concatenate(var), np.concatenate(key)
    order = np.concatenate([var[np.argsort(key, kind="stable")], border])
    return order.astype(np.int64), len(border)


# ---------------------------------------------------------------------------
# Sparse SDPA text format


def export_sdpa(problem, vmap=None):
    """Sparse SDPA (.dat-s) text for the assembled problem.

    Size-n blocks are written individually in group order; all size-1
    blocks are merged into one trailing diagonal block (negative size).
    Entry lines are sorted by (variable, block, row, col) and values are
    printed with 17 significant digits.
    """
    if problem.n_blocks == 0:
        raise EmptyComplexError("problem has no blocks")
    matrix_groups = [g for g in problem.groups if g.size > 1]
    diag_groups = [g for g in problem.groups if g.size == 1]

    block_sizes = []
    block_of = {}
    for g in matrix_groups:
        start = len(block_sizes)
        block_sizes.extend([g.size] * g.count)
        block_of[g.family] = start
    diag_total = sum(g.count for g in diag_groups)
    diag_block = None
    if diag_total:
        diag_block = len(block_sizes)
        block_sizes.append(-diag_total)

    entries = []  # (var, block+1, row+1, col+1, value)

    def emit(g, base_block, diag_offset=0):
        iu = triu_layout(g.size)
        scale = svec_scale(g.size)
        coo = g.A.tocoo()
        nz = np.nonzero(g.f0)[0]
        # coefficient matrices first (variable = column + 1), then F0
        for var, rows, data in ((coo.col + 1, coo.row, coo.data),
                                (np.zeros_like(nz), nz, g.f0[nz])):
            blk, q = np.divmod(rows, g.svdim)
            if g.size == 1:
                b = np.full(blk.shape, diag_block)
                r = cidx = diag_offset + blk
            else:
                b, r, cidx = base_block + blk, iu[0][q], iu[1][q]
            vals = data / scale[q]
            for i in range(len(vals)):
                entries.append((int(var[i]), int(b[i]) + 1, int(r[i]) + 1,
                                int(cidx[i]) + 1, vals[i]))

    for g in matrix_groups:
        emit(g, block_of[g.family])
    off = 0
    for g in diag_groups:
        emit(g, 0, diag_offset=off)
        off += g.count

    entries.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
    lines = [str(problem.m), str(len(block_sizes)),
             " ".join(str(s) for s in block_sizes),
             " ".join(repr(float(x)) for x in problem.c)]
    for var, b, r, cidx, val in entries:
        if val != 0.0:
            lines.append(f"{var} {b} {r} {cidx} {repr(float(val))}")
    return "\n".join(lines) + "\n"


def parse_sdpa(text):
    """Parse sparse SDPA text; returns a dict with m, block sizes, the
    objective vector, and the entry list (value strings preserved)."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith(("*", '"'))]
    m = int(lines[0].split()[0])
    nblocks = int(lines[1].split()[0])
    sizes = [int(tok) for tok in lines[2].replace(",", " ").split()]
    if len(sizes) != nblocks:
        raise ValueError("block size line does not match block count")
    c = np.array([float(tok) for tok in lines[3].replace(",", " ").split()])
    if len(c) != m:
        raise ValueError("objective line does not match variable count")
    entries = []
    for ln in lines[4:]:
        toks = ln.split()
        entries.append((int(toks[0]), int(toks[1]), int(toks[2]),
                        int(toks[3]), toks[4]))
    return {"m": m, "block_sizes": sizes, "c": c, "entries": entries}
