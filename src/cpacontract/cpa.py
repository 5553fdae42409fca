"""Continuous piecewise-affine symmetric-matrix fields on a complex.

The field is one symmetric n x n value per periodic vertex slot, stored
as its n(n+1)/2 components in `smallmat.lower_pairs` order, interpolated
barycentrically inside each simplex; entry gradients are cached. The
contraction matrix M Dxf + Dxf^T M + M' is defined here once, for the
SDP's coefficients (`assembly.assemble`) and the verifier's values
(`CPAMetric.contraction`) alike, by `contraction_table` and
`orbital_weights`. So is the margin E = a_C C + a_D D of the vertex
conditions, `enu_coefficient_arrays`, from the bounds that
`ensure_derivative_bounds` computes from the system on every call;
nothing caches them.
"""

from __future__ import annotations

import functools

import numpy as np

from .smallmat import lower_pairs


@functools.lru_cache(maxsize=None)
def contraction_table(n):
    """The map M -> M J + J^T M of symmetric n x n M, in components: a
    (q, p, entries) for each component p of M that component q of the
    product reads, q and p in `lower_pairs` order, with `entries` the
    (row, column) of the one or two entries of J whose sum multiplies it.
    On the diagonal q = (i, i) both terms are J's entry (m, i)."""
    index = {pair: p for p, (i, j) in enumerate(lower_pairs(n))
             for pair in ((i, j), (j, i))}
    terms = {}
    for q, (i, j) in enumerate(lower_pairs(n)):
        for m in range(n):
            # (M J)_ij = sum_m M_im J_mj and (J^T M)_ij = sum_m J_mi M_mj
            terms.setdefault((q, index[i, m]), []).append((m, j))
            terms.setdefault((q, index[m, j]), []).append((m, i))
    return tuple((q, p, tuple(e)) for (q, p), e in sorted(terms.items()))


def barycentric_derivatives(d):
    """[-sum d, d] on the last axis: the derivatives of a simplex's n+2
    barycentric coordinates from those, d, of the last n+1, as all n+2 sum
    to 1; for d = X^-1 (..., n+1, n+1), the coordinates' gradients."""
    # summed column by column, ~2x as fast as d.sum(axis=-1) and alike
    return np.concatenate(
        [-sum(d[..., c] for c in range(d.shape[-1]))[..., None], d], axis=-1)


def orbital_weights(Xinv, ft):
    """gamma (S, k, n+2), the barycentric coordinates' derivatives along
    (1, f) = ft (S, k, n+1) in the simplices of Xinv (S, n+1, n+1): a CPA
    field's orbital derivative is M' = sum_k gamma_k M(v_k)."""
    n1 = ft.shape[-1]
    # sum_l ft_l Xinv_lc term by term, in order, on (S, k) arrays:
    # einsum("skl,slc->skc") rounds alike but loops ~8x as long
    return barycentric_derivatives(np.stack(
        [sum(ft[..., l] * Xinv[:, None, l, c] for l in range(n1))
         for c in range(n1)], axis=-1))


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
        values        (n_slots, P) vertex values as components
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
        """The points (S, k, n+1) at barycentric weights `lam` (S, k, n+2)
        in the simplices `sids` (S,), and there M and the contraction
        matrix M Dxf + Dxf^T M + M' as `smallmat` components, P arrays
        (S, k) each."""
        cx = self.complex
        n = self.n
        lam = np.asarray(lam, dtype=float)
        S, k = lam.shape[:2]
        verts = cx.vert_xyz[cx.simp_verts[sids]]               # (S, n+2, n+1)
        pts = np.einsum("skj,sjd->skd", lam, verts)
        flat = pts.reshape(-1, n + 1)
        ft = sys.f_tilde_many(flat).reshape(S, k, n + 1)
        vals = self.vertex_values[sids]
        # A from M' = sum_k gamma_k M(v_k), and M at lam, as components
        A, M = (list(np.ascontiguousarray(np.moveaxis(x, -1, 0))) for x in (
            orbital_weights(cx.Xinv[sids], ft) @ vals,
            np.einsum("skj,sjp->skp", lam, vals)))
        del ft
        J = sys.jacobian_many(flat).reshape(S, k, n, n)
        term = np.empty((S, k))
        for q, p, entries in contraction_table(n):
            K = sum(J[..., r, c] for r, c in entries)
            A[q] += np.multiply(K, M[p], out=term)
        return pts, M, A

    def interpolate_batch(self, simplex_ids, lam):
        """Metric components for batched (simplex, weights) pairs.

        `lam` has shape (N, n+2) aligned with `simplex_ids` (N,);
        returns (N, P), by the rule of `contraction`'s M and with its bits.
        """
        lam = np.asarray(lam, dtype=float)
        return np.einsum("skj,sjp->skp", lam[:, None, :],
                         self.vertex_values[simplex_ids])[:, 0]
