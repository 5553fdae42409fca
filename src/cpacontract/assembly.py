"""Translation of the vertex constraints into a block-diagonal SDP in the
standard form  sum_i F_i y_i - F_0 = X >= 0.

Variable layout: the metric entries come first, slot-major (P = n(n+1)/2
entries per periodic vertex slot), followed by the simplex bound variables
(either one uniform C and one uniform D, or per-simplex arrays), and an
optional auxiliary C_max.

All blocks share one sparse "svec" matrix A (and F0): each block of size k
contributes k(k+1)/2 rows holding the upper triangle of its coefficient
matrices, off-diagonal entries scaled by sqrt(2) so that row-dot-row equals
the matrix inner product. Each family of blocks is a range of rows.
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
    A: sp.csr_matrix
    f0: np.ndarray
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
        rows = g.rows.start + bi * g.svdim + np.arange(g.svdim)
        vec = self.A[rows] @ y - self.f0[rows]
        return unsvec(vec, g.size)


def stack_problem(parts, c, n, **kw):
    """The SDPProblem of the families `parts`, (family, size, count, A, f0,
    simplex, vertex) each, with one CSR A and one f0 in the solver's cone
    order: blocks by ascending size, family order kept within a size. Each
    row's columns are sorted, as the solver's scalar pairs need, and A
    stores no explicit zeros, which every product with it would read."""
    order = sorted(range(len(parts)), key=lambda i: parts[i][1])
    start = dict(zip(order, np.cumsum(
        [0] + [len(parts[i][4]) for i in order]).tolist()))
    A = sp.vstack([parts[i][3] for i in order], format="csr")
    A.sort_indices()
    A.eliminate_zeros()
    groups = [BlockGroup(fam, k, cnt, slice(start[i], start[i] + len(f0)),
                         simplex, vertex)
              for i, (fam, k, cnt, _, f0, simplex, vertex) in enumerate(parts)]
    return SDPProblem(m=A.shape[1], c=c, groups=groups, A=A, n=n, f0=(
        np.concatenate([parts[i][4] for i in order])), **kw)


def row_entries(A, rows):
    """(row - rows.start, column, value) of the entries that the CSR A
    stores in the row range `rows`, in storage order."""
    ptr = A.indptr[rows.start:rows.stop + 1]
    span = slice(ptr[0], ptr[-1])
    return (np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)),
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

    parts = []  # per family: (family, size, count, A, f0, simplex, vertex)

    # ---- bound on M (Constraint 2): C I - M >= 0 ----
    # a block per slot under the uniform C, else per simplex vertex
    if uniform_cd:
        slot2, simp2, vert2 = np.arange(v), np.full(v, -1), np.arange(v)
    else:
        simp2 = np.repeat(np.arange(S, dtype=np.int64), n + 2)
        slot2, vert2 = slots_sv.reshape(-1), cx.simp_verts.reshape(-1)
    cnt = len(slot2)
    blk = np.arange(cnt, dtype=np.int64)[:, None] * P
    rows_c = (blk + diag_p).ravel()
    A2 = sp.csr_matrix(
        (np.concatenate([-np.tile(scale, cnt), np.ones(rows_c.shape)]),
         (np.concatenate([(blk + np.arange(P)).ravel(), rows_c]),
          np.concatenate([(slot2[:, None] * P + np.arange(P)).ravel(),
                          np.repeat(vmap.c_index(np.maximum(simp2, 0)),
                                    len(diag_p))]))),
        shape=(cnt * P, m))
    parts.append(("bound_M", n, cnt, A2, np.zeros(cnt * P),
                  simp2.astype(np.int64), vert2.astype(np.int64)))

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
    cols_d = np.broadcast_to(vmap.d_index(s_idx)[:, None, None, None],
                             base.shape)
    data_d = np.full(base.shape, 1.0 / (n + 1))
    A3 = sp.csr_matrix(
        (np.concatenate([data_w.ravel(), data_d.ravel()]),
         (np.concatenate([rows_w.ravel(), base.ravel()]),
          np.concatenate([cols_w.ravel(), cols_d.ravel()]))),
        shape=(cnt3, m))
    parts.append(("grad_bound", 1, cnt3, A3, np.zeros(cnt3),
                  np.repeat(np.arange(S, dtype=np.int64), 2 * P * (n + 1)),
                  np.full(cnt3, -1, dtype=np.int64)))

    # ---- positive definiteness (Constraint 4): M(slot) - eps0 I >= 0 ----
    rows4 = np.arange(v * P, dtype=np.int64)
    data4 = np.tile(scale, v)
    f04 = np.zeros(v * P)
    f04[(np.arange(v, dtype=np.int64)[:, None] * P + diag_p).ravel()] = eps0
    A4 = sp.csr_matrix((data4, (rows4, rows4)), shape=(v * P, m))
    parts.append(("pos_def", n, v, A4, f04, np.full(v, -1, dtype=np.int64),
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
    cols_c5 = vmap.c_index(s_idx)[:, None, None]
    cols_d5 = vmap.d_index(s_idx)[:, None, None]
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
    parts.append(("contraction", n, cnt5, A5, f05,
                  np.repeat(np.arange(S, dtype=np.int64), n + 2),
                  cx.simp_verts.reshape(-1).astype(np.int64)))

    # ---- auxiliary C_max linking blocks (per-simplex min_c only) ----
    if vmap.has_cmax:
        rows6 = np.arange(S, dtype=np.int64)
        A6 = sp.csr_matrix(
            (np.concatenate([np.ones(S), -np.ones(S)]),
             (np.concatenate([rows6, rows6]),
              np.concatenate([np.full(S, vmap.cmax_index, dtype=np.int64),
                              vmap.c_index(rows6)]))),
            shape=(S, m))
        parts.append(("cmax_link", 1, S, A6, np.zeros(S), rows6,
                      np.full(S, -1, dtype=np.int64)))

    c = np.zeros(m)
    if objective == "min_c":
        c[vmap.cmax_index if vmap.has_cmax else vmap.c_index()] = 1.0

    order, border = schur_order(cx, vmap)
    problem = stack_problem(parts, c, n,
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
            iu = triu_layout(g.size)
            at[:, g.rows] = (len(block_sizes) + blk, iu[0][q], iu[1][q],
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
