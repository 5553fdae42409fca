"""Translation of the vertex constraints into a block-diagonal SDP in the
standard form  sum_i F_i y_i - F_0 = X >= 0.

Variable layout: the metric entries come first, slot-major (P = n(n+1)/2
entries per periodic vertex slot), followed by the simplex bound variables
(either one uniform C and one uniform D, or per-simplex arrays), and an
optional auxiliary C_max.

All blocks share one sparse "svec" matrix A (and F0): each block of size k
contributes k(k+1)/2 rows, its components in `smallmat.lower_pairs` order,
off-diagonal entries scaled by sqrt(2) so that row-dot-row equals the
matrix inner product. Each family of blocks is a range of rows.

The contraction blocks' coefficients come from `cpa`'s definition of the
contraction matrix, which the verifier reads too; this module only builds
the SDP. `scipy.sparse` is imported in `stack_problem`, which builds A, and
not at module level, so importing the package costs no scipy (~0.3 s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpa import (
    barycentric_derivatives,
    contraction_table,
    ensure_derivative_bounds,
    enu_coefficient_arrays,
    orbital_weights,
)
from .errors import EmptyComplexError
from .smallmat import lower_pairs

_SQRT2 = np.sqrt(2.0)


def svec_scale(n):
    """Scaling of a size-n block's svec rows: 1 diagonal, sqrt(2) off."""
    return np.array([1.0 if i == j else _SQRT2 for i, j in lower_pairs(n)])


@dataclass(frozen=True)
class VariableMap:
    """Bijective, gap-free indexing of the SDP variables. The constants
    come in `n_cd` pairs: one uniform (C, D), or one per simplex."""

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
    def n_cd(self):
        return 1 if self.uniform else self.n_simplices

    @property
    def has_cmax(self):
        """Whether an auxiliary C_max carries the min_c objective."""
        return not self.uniform and self.objective == "min_c"

    @property
    def m(self):
        return self.metric_count + 2 * self.n_cd + int(self.has_cmax)

    def c_index(self, nu=0):
        """Column of the C that bounds simplex nu (an int or an array)."""
        return self.metric_count + nu % self.n_cd

    def d_index(self, nu=0):
        return self.metric_count + self.n_cd + nu % self.n_cd

    @property
    def cmax_index(self):
        if not self.has_cmax:
            raise ValueError("no auxiliary C_max in this mode")
        return self.metric_count + 2 * self.n_cd

    def metric_values(self, y):
        return np.asarray(y)[: self.metric_count].reshape(self.n_slots, self.P)

    def bound_constants(self, y):
        """(C, D), each the largest over its pairs."""
        y = np.asarray(y)
        c, d = self.c_index(), self.d_index()
        return (float(y[c:c + self.n_cd].max()),
                float(y[d:d + self.n_cd].max()))


@dataclass
class BlockGroup:
    """Homogeneous family of SDP blocks: the row range `rows` of the
    problem's A and f0, `svdim` rows per block."""

    family: str
    size: int
    count: int
    rows: slice
    simplex: np.ndarray
    vertex: np.ndarray

    @property
    def svdim(self):
        return self.size * (self.size + 1) // 2


@dataclass
class SDPProblem:
    """Assembled SDP, built by `stack_problem`: the svec rows A and f0 of
    all `groups`. `schur_order`, when set, is the variable order for a
    banded Schur complement; its last `schur_border` entries are the
    variables that touch every simplex."""

    m: int
    c: np.ndarray
    groups: list
    A: scipy.sparse.csr_matrix
    f0: np.ndarray
    n: int
    schur_order: np.ndarray | None = None
    schur_border: int = 0

    @property
    def n_blocks(self):
        return sum(g.count for g in self.groups)


def index_dtype(*sizes):
    """int32 when every size is below 2^31, so that the indices below them
    fit it, else int64."""
    return np.int32 if max(sizes) < 2**31 else np.int64


def stack_problem(parts, c, n, **kw):
    """The SDPProblem of the families `parts`, (family, size, count,
    (data, rows, cols), f0, simplex, vertex) each, rows counted from the
    family's first. The triplets are offset into the solver's cone order
    (blocks by ascending size, family order kept within a size) and summed
    into one CSR A, with one f0 in that order. Each family's triplets
    leave `parts` once copied, so that no entry is held three times. Each
    row's columns are sorted, as the solver's scalar pairs need, and A
    stores no explicit zeros, which every product with it would read."""
    import scipy.sparse as sp  # here, so that only a built SDP loads it

    order = sorted(range(len(parts)), key=lambda i: parts[i][1])
    start = dict(zip(order, np.cumsum(
        [0] + [len(parts[i][4]) for i in order]).tolist()))
    f0 = np.concatenate([parts[i][4] for i in order])
    nnz = sum(len(p[3][0]) for p in parts)
    idx = index_dtype(len(f0), len(c), nnz)
    data, rows, cols = np.empty(nnz), np.empty(nnz, idx), np.empty(nnz, idx)
    at = 0
    for i in order:
        span = slice(at, at + len(parts[i][3][0]))
        data[span], rows[span], cols[span] = parts[i][3]
        rows[span] += start[i]
        parts[i], at = (*parts[i][:3], None, *parts[i][4:]), span.stop
    # summing the duplicates sorts each row's columns
    A = sp.csr_matrix((data, (rows, cols)), shape=(len(f0), len(c)))
    del data, rows, cols
    A.eliminate_zeros()
    # both leave views of buffers of the triplet count; keep nnz entries
    A.data, A.indices = A.data.copy(), A.indices.copy()
    groups = [BlockGroup(fam, k, cnt, slice(start[i], start[i] + len(b0)),
                         simplex, vertex)
              for i, (fam, k, cnt, _, b0, simplex, vertex) in enumerate(parts)]
    return SDPProblem(m=len(c), c=c, groups=groups, A=A, n=n, f0=f0, **kw)


def row_entries(A, rows):
    """(row - rows.start, column, value) of the entries that the CSR A
    stores in the row range `rows`, in storage order; the rows in A's
    index dtype."""
    ptr = A.indptr[rows.start:rows.stop + 1]
    span = slice(ptr[0], ptr[-1])
    return (np.repeat(np.arange(len(ptr) - 1, dtype=A.indices.dtype),
                      np.diff(ptr)),
            A.indices[span], A.data[span])


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

    n = cx.n
    P = n * (n + 1) // 2
    S = cx.n_simplices
    v = cx.n_slots
    vmap = VariableMap(n=n, n_slots=v, n_simplices=S,
                       uniform=uniform_cd, objective=objective)
    m = vmap.m

    a_C, a_D = enu_coefficient_arrays(cx, *ensure_derivative_bounds(cx, sys))
    scale = svec_scale(n)
    # the triplets' rows and columns in int32 when they fit: no family has
    # 2 P (n+2) S rows
    idx = index_dtype(m, 2 * P * (n + 2) * S)
    diag_p = np.nonzero(scale == 1.0)[0].astype(idx)
    p_idx = np.arange(P, dtype=idx)

    slots_sv = cx.vert_slot[cx.simp_verts].astype(idx)  # (S, n+2)
    vxyz = cx.vert_xyz
    f_geo = sys.f_tilde_many(vxyz)                      # (Nv, n+1)
    J_geo = sys.jacobian_many(vxyz)                     # (Nv, n, n)
    ftv = f_geo[cx.simp_verts]                          # (S, n+2, n+1)

    # per family: (family, size, count, (data, rows, cols), f0, simplex,
    # vertex)
    parts = []

    # ---- bound on M (Constraint 2): C I - M >= 0 ----
    # a block per slot under the uniform C, else per simplex vertex
    if uniform_cd:
        slot2, simp2, vert2 = (np.arange(v, dtype=idx), np.full(v, -1),
                               np.arange(v))
    else:
        simp2 = np.repeat(np.arange(S, dtype=np.int64), n + 2)
        slot2, vert2 = slots_sv.reshape(-1), cx.simp_verts.reshape(-1)
    cnt = len(slot2)
    blk = np.arange(cnt, dtype=idx)[:, None] * P
    rows_c = (blk + diag_p).ravel()
    trip = (np.concatenate([-np.tile(scale, cnt), np.ones(rows_c.shape)]),
            np.concatenate([(blk + p_idx).ravel(), rows_c]),
            np.concatenate([(slot2[:, None] * P + p_idx).ravel(),
                            np.repeat(vmap.c_index(
                                np.maximum(simp2, 0).astype(idx)),
                                len(diag_p))]))
    parts.append(("bound_M", n, cnt, trip, np.zeros(cnt * P),
                  simp2.astype(np.int64), vert2.astype(np.int64)))

    # ---- gradient bound (Constraint 3): D/(n+1) +- (w_ij)_l >= 0 ----
    # block order: (simplex, entry p, component l, sign +/-)
    cnt3 = 2 * P * (n + 1) * S
    beta = barycentric_derivatives(cx.Xinv)             # (S, n+1 l, n+2 k)
    signs = np.array([1.0, -1.0])
    # row index r(s,p,l,sigma) = ((s*P + p)*(n+1) + l)*2 + sigma
    s_idx = np.arange(S, dtype=idx)
    base = (((s_idx[:, None, None, None] * P
              + p_idx[None, :, None, None]) * (n + 1)
             + np.arange(n + 1, dtype=idx)[None, None, :, None]) * 2
            + np.arange(2, dtype=idx)[None, None, None, :])  # (S,P,n+1,2)
    rows_w = np.broadcast_to(base[..., None], base.shape + (n + 2,))
    cols_w = np.broadcast_to(
        slots_sv[:, None, None, None, :] * P
        + p_idx[None, :, None, None, None], rows_w.shape)
    data_w = np.broadcast_to(
        signs[None, None, None, :, None] * beta[:, None, :, None, :],
        rows_w.shape)
    cols_d = np.broadcast_to(vmap.d_index(s_idx)[:, None, None, None],
                             base.shape)
    data_d = np.full(base.shape, 1.0 / (n + 1))
    trip = (np.concatenate([data_w.ravel(), data_d.ravel()]),
            np.concatenate([rows_w.ravel(), base.ravel()]),
            np.concatenate([cols_w.ravel(), cols_d.ravel()]))
    parts.append(("grad_bound", 1, cnt3, trip, np.zeros(cnt3),
                  np.repeat(np.arange(S, dtype=np.int64), 2 * P * (n + 1)),
                  np.full(cnt3, -1, dtype=np.int64)))

    # ---- positive definiteness (Constraint 4): M(slot) - eps0 I >= 0 ----
    rows4 = np.arange(v * P, dtype=idx)
    data4 = np.tile(scale, v)
    f04 = np.zeros(v * P)
    f04[(np.arange(v, dtype=np.int64)[:, None] * P + diag_p).ravel()] = eps0
    trip = (data4, rows4, rows4)
    parts.append(("pos_def", n, v, trip, f04,
                  np.full(v, -1, dtype=np.int64), np.arange(v, dtype=np.int64)))

    # ---- contraction (Constraint 5) ----
    cnt5 = (n + 2) * S
    blk5 = np.arange(cnt5, dtype=idx).reshape(S, n + 2)
    rows5 = blk5[:, :, None, None] * P + p_idx          # (S, n+2, 1, P)
    # coefficient of M_p(slot of vertex k) in row q: minus the sum of the
    # Dxf entries that multiply M_p in component q of M Dxf + Dxf^T M
    coef = np.zeros((len(vxyz), P, P))
    for q, p, entries in contraction_table(n):
        coef[:, p, q] = -sum(J_geo[:, r, c] for r, c in entries) * scale[q]
    sv1 = coef[cx.simp_verts]                           # (S, n+2, P, P_rows)
    rows1 = np.broadcast_to(rows5, sv1.shape)
    cols1 = np.broadcast_to(slots_sv[:, :, None, None] * P + p_idx[:, None],
                            sv1.shape)

    # coefficient from the orbital-derivative term: variable M_p(slot of
    # vertex k') enters entry p of block (s, k) with weight gamma[s,k,k']
    gamma = orbital_weights(cx.Xinv, ftv)               # (S, n+2, n+2)
    shape2 = (S, n + 2, n + 2, P)
    rows2 = np.broadcast_to(rows5, shape2)
    cols2 = np.broadcast_to(slots_sv[:, None, :, None] * P + p_idx, shape2)
    data2 = np.broadcast_to(-gamma[..., None] * scale, shape2)

    # C and D columns: -(a_C C + a_D D) I ; F0 block is +I
    rows_cd = (blk5[:, :, None] * P + diag_p[None, None, :])
    cols_c5 = vmap.c_index(s_idx)[:, None, None]
    cols_d5 = vmap.d_index(s_idx)[:, None, None]
    data_c5 = np.broadcast_to(-a_C[:, None, None], rows_cd.shape)
    data_d5 = np.broadcast_to(-a_D[:, None, None], rows_cd.shape)

    trip = (np.concatenate([sv1.ravel(), data2.ravel(),
                            data_c5.ravel(), data_d5.ravel()]),
            np.concatenate([rows1.ravel(), rows2.ravel(),
                            rows_cd.ravel(), rows_cd.ravel()]),
            np.concatenate([cols1.ravel(), cols2.ravel(),
                            np.broadcast_to(cols_c5, rows_cd.shape).ravel(),
                            np.broadcast_to(cols_d5, rows_cd.shape).ravel()]))
    f05 = np.zeros(cnt5 * P)
    f05[rows_cd.ravel()] = 1.0
    parts.append(("contraction", n, cnt5, trip, f05,
                  np.repeat(np.arange(S, dtype=np.int64), n + 2),
                  cx.simp_verts.reshape(-1).astype(np.int64)))

    # ---- auxiliary C_max linking blocks (per-simplex min_c only) ----
    if vmap.has_cmax:
        rows6 = np.arange(S, dtype=idx)
        trip = (np.concatenate([np.ones(S), -np.ones(S)]),
                np.concatenate([rows6, rows6]),
                np.concatenate([np.full(S, vmap.cmax_index, dtype=idx),
                                vmap.c_index(rows6)]))
        parts.append(("cmax_link", 1, S, trip, np.zeros(S),
                      np.arange(S, dtype=np.int64),
                      np.full(S, -1, dtype=np.int64)))

    c = np.zeros(m)
    if objective == "min_c":
        c[vmap.cmax_index if vmap.has_cmax else vmap.c_index()] = 1.0

    order, border = schur_order(cx, vmap)
    del trip  # stack_problem frees each family's triplets as it copies them
    problem = stack_problem(parts, c, n, schur_order=order,
                            schur_border=border)
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
        var.append(np.stack([vmap.c_index(nus), vmap.d_index(nus)],
                            axis=1).ravel())
        key.append(np.repeat(fold(cx.simp_gen[:, 0]), 2))
        border = [vmap.cmax_index] if vmap.has_cmax else []
    var, key = np.concatenate(var), np.concatenate(key)
    order = np.concatenate([var[np.argsort(key, kind="stable")], border])
    return order.astype(np.int64), len(border)


# ---------------------------------------------------------------------------
# Sparse SDPA text format


def export_sdpa(problem):
    """Sparse SDPA (.dat-s) text for the assembled problem.

    Size-n blocks are written individually in group order; all size-1
    blocks are merged into one trailing diagonal block (negative size).
    Entry lines are sorted by (variable, block, row, col) and values are
    printed with 17 significant digits.
    """
    if problem.n_blocks == 0:
        raise EmptyComplexError("problem has no blocks")
    # per svec row: its block, its (row, col) in the block and its scale;
    # the diagonal block follows the matrix blocks
    at = np.empty((4, len(problem.f0)))
    block_sizes, diag = [], 0
    n_matrix = sum(g.count for g in problem.groups if g.size > 1)
    for g in problem.groups:
        blk, q = np.divmod(np.arange(g.count * g.svdim), g.svdim)
        if g.size == 1:
            at[:, g.rows] = np.broadcast_arrays(n_matrix, diag + blk,
                                                diag + blk, 1.0)
            diag += g.count
        else:
            i, j = np.array(lower_pairs(g.size)).T  # written as (j, i)
            at[:, g.rows] = (len(block_sizes) + blk, j[q], i[q],
                             svec_scale(g.size)[q])
            block_sizes.extend([g.size] * g.count)
    block_sizes += [-diag] if diag else []
    # coefficient matrices (variable = column + 1), then F0 (variable 0)
    row, col, val = row_entries(problem.A, slice(0, len(problem.f0)))
    nz = np.flatnonzero(problem.f0)
    pos = np.concatenate([row, nz])
    var = np.concatenate([col + 1, np.zeros(len(nz), dtype=col.dtype)])
    val = np.concatenate([val, problem.f0[nz]]) / at[3, pos]
    b, r, c = at[:3, pos].astype(np.int64) + 1
    keep = np.lexsort((c, r, b, var))  # every value is nonzero
    lines = [str(problem.m), str(len(block_sizes)),
             " ".join(str(s) for s in block_sizes),
             " ".join(repr(float(x)) for x in problem.c)]
    lines += [f"{e[0]} {e[1]} {e[2]} {e[3]} {e[4]!r}" for e in zip(
        *(x[keep].tolist() for x in (var, b, r, c, val)))]
    return "\n".join(lines) + "\n"

