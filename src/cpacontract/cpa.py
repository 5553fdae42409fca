"""Continuous piecewise-affine symmetric-matrix fields on a complex.

The field is determined by one symmetric n x n value per periodic vertex
slot (upper-triangle storage) and interpolated barycentrically inside each
simplex. Per-simplex entry gradients are cached; a simplex's orbital
derivative M' contracts its gradient table with (1, f). The contraction
matrix M Dxf + Dxf^T M + M' is formed in one place, `CPAMetric.contraction`,
which the verifier uses. The margin E = a_C C + a_D D of the vertex
conditions is likewise formed in one place, `enu_coefficient_arrays`, from
the bounds that `ensure_derivative_bounds` computes from the system on
every call; nothing caches them.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=None)
def triu_layout(n):
    """Row-major upper-triangle index pairs; defines the entry order.

    Cached, so the arrays are shared and read-only."""
    iu = np.triu_indices(n)
    for a in iu:
        a.flags.writeable = False
    return iu


def unpack_symmetric(vals, n):
    """(..., P) upper triangle -> (..., n, n) symmetric."""
    vals = np.asarray(vals, dtype=float)
    iu = triu_layout(n)
    out = np.zeros(vals.shape[:-1] + (n, n))
    out[..., iu[0], iu[1]] = vals
    out[..., iu[1], iu[0]] = vals
    return out


def sym_basis(n):
    """Stacked basis matrices for the upper-triangle entries: E_ii on the
    diagonal, E_ij + E_ji off it."""
    iu = triu_layout(n)
    P = len(iu[0])
    out = np.zeros((P, n, n))
    out[np.arange(P), iu[0], iu[1]] = 1.0
    out[np.arange(P), iu[1], iu[0]] = 1.0
    return out


def ensure_derivative_bounds(cx, sys):
    """Bounds (B2, B3), each (S,), on the system's second and third partials
    over each simplex's bounding box; B3 is None for a C2 system. The name
    stays because the benchmark's tracer times `assembly`'s import of it as
    the `assembly.bounds` span, which then covers `verify`'s calls too."""
    verts = cx.vert_xyz[cx.simp_verts]
    lo, hi = verts.min(axis=1).T, verts.max(axis=1).T
    B3 = (sys.derivative_bound_boxes(lo, hi, 3) if sys.smoothness == "C3"
          else None)
    return sys.derivative_bound_boxes(lo, hi, 2), B3


def enu_coefficient_arrays(cx, B2, B3=None):
    """(a_C, a_D) arrays over all simplices: the linear margin
    E = a_C * C + a_D * D of the contraction blocks, in the C3 form
    exactly when the order-3 bounds B3 are given, else in the C2 form."""
    n, h = cx.n, cx.h
    if B3 is None:
        a_D = h**2 * n * np.sqrt(n + 1.0) * B2
        a_C = 2.0 * h * n**2 * (n + 1.0) * B2
    else:
        a_D = h**2 * n * np.sqrt(n + 1.0) * (1.0 + 4.0 * n) * B2
        a_C = 2.0 * h**2 * n**2 * (n + 1.0) * B3
    return a_C, a_D


class CPAMetric:
    """CPA matrix field over a simplicial complex.

    Attributes:
        values        (n_slots, P) upper-triangle vertex values
        vertex_values (S, n+2, P) values gathered per simplex vertex
        W             (S, P, n+1) per-simplex entry gradients
    """

    def __init__(self, cx, slot_values):
        values = np.asarray(slot_values, dtype=float)
        if values.shape != (cx.n_slots, cx.n * (cx.n + 1) // 2):
            raise ValueError(
                f"slot values must have shape ({cx.n_slots}, "
                f"{cx.n * (cx.n + 1) // 2})")
        self.complex = cx
        self.n = cx.n
        self.values = values
        self.vertex_values = values[cx.vert_slot[cx.simp_verts]]
        dM = self.vertex_values[:, 1:, :] - self.vertex_values[:, :1, :]
        # W[s, p, l] = sum_j Xinv[s, l, j] * dM[s, j, p]
        self.W = np.einsum("slj,sjp->spl", cx.Xinv, dM)

    @classmethod
    def from_solution(cls, cx, y, varmap):
        return cls(cx, varmap.metric_values(y))

    def contraction(self, sys, sids, lam):
        """The contraction matrix M Dxf + Dxf^T M + M' at barycentric
        weights `lam` (S, k, n+2) in the simplices `sids` (S,), with M'
        the simplex's orbital derivative W (1, f).

        Returns the points (S, k, n+1), M and the matrix (S, k, n, n).
        """
        cx = self.complex
        n = self.n
        lam = np.asarray(lam, dtype=float)
        S, k = lam.shape[:2]
        verts = cx.vert_xyz[cx.simp_verts[sids]]               # (S, n+2, n+1)
        pts = np.einsum("skj,sjd->skd", lam, verts)
        flat = pts.reshape(-1, n + 1)
        ft = sys.f_tilde_many(flat).reshape(S, k, n + 1)
        J = sys.jacobian_many(flat).reshape(S, k, n, n)
        M = unpack_symmetric(
            np.einsum("skj,sjp->skp", lam, self.vertex_values[sids]), n)
        Mdot = unpack_symmetric(np.einsum("spl,skl->skp", self.W[sids], ft), n)
        return pts, M, M @ J + np.swapaxes(J, -1, -2) @ M + Mdot

    def interpolate_batch(self, simplex_ids, lam):
        """Metric entries for batched (simplex, weights) pairs.

        `lam` has shape (N, n+2) aligned with `simplex_ids` (N,);
        returns (N, P).
        """
        lam = np.asarray(lam, dtype=float)
        return (lam[:, None, :] @ self.vertex_values[simplex_ids])[:, 0]
