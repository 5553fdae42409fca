"""Continuous piecewise-affine symmetric-matrix fields on a complex.

The field is determined by one symmetric n x n value per periodic vertex
slot (upper-triangle storage) and interpolated barycentrically inside each
simplex. Per-simplex entry gradients are cached; the forward orbital
derivative picks a simplex that contains a short segment of the flow
direction and contracts its gradient table with (1, f). The contraction
matrix M Dxf + Dxf^T M + M' is formed in one place, `CPAMetric.contraction`,
which the verifier and the contraction functional share.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    NoForwardSimplexError,
    NotPositiveDefiniteError,
    OutsideDomainError,
    OutsideSimplexError,
)
from .smallmat import eig_min, gen_eig_max
from .triangulation import FACE_TOL, barycentric_weights


@functools.lru_cache(maxsize=None)
def triu_layout(n):
    """Row-major upper-triangle index pairs; defines the entry order.

    Cached, so the arrays are shared and read-only."""
    iu = np.triu_indices(n)
    for a in iu:
        a.flags.writeable = False
    return iu


def pack_symmetric(mat):
    """(..., n, n) symmetric -> (..., P) upper triangle, row-major."""
    n = mat.shape[-1]
    iu = triu_layout(n)
    return mat[..., iu[0], iu[1]]


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


def barycentric(simplex, point):
    """Barycentric weights of `point` in `simplex` (weight 0 first).

    Raises OutsideSimplexError when any weight is below -FACE_TOL.
    """
    lam = barycentric_weights(simplex.Xinv, simplex.vertices[0], point)
    if lam.min() < -FACE_TOL:
        raise OutsideSimplexError(
            f"point {point} outside simplex {simplex.index} "
            f"(min weight {lam.min():.3e})")
    return lam


def shape_gradient(simplex, entry_values):
    """Gradient of the affine interpolant of scalar vertex values.

    Independent of which vertex is taken as the base point.
    """
    vals = np.asarray(entry_values, dtype=float)
    return simplex.Xinv @ (vals[1:] - vals[0])


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

    @classmethod
    def constant(cls, cx, matrix):
        vals = pack_symmetric(np.asarray(matrix, dtype=float))
        return cls(cx, np.tile(vals, (cx.n_slots, 1)))

    def eval_metric(self, point):
        """Interpolated metric at a point of the domain; exact at vertices."""
        sid, lam = self.complex.locate(point)
        return unpack_symmetric(self.interpolate_batch([sid], [lam])[0], self.n)

    def _forward_simplex(self, sys, point):
        """(simplex id, barycentric weights, (1, f)) of the first simplex,
        by index, among those containing the point that the flow
        direction (1, f) enters: every active zero weight must be
        nondecreasing along the direction."""
        cx = self.complex
        p = np.asarray(point, dtype=float)
        pw = np.concatenate(([cx.wrap_time(p[0])], p[1:]))
        hits = cx.containing(pw)
        if not hits:
            raise OutsideDomainError(f"point {point} not in the domain")
        ft = np.concatenate(([1.0], sys.f(pw)))
        for sid, lam in hits:
            dlam_rest = cx.Xinv[sid].T @ ft
            dlam = np.concatenate(([-dlam_rest.sum()], dlam_rest))
            active = lam <= FACE_TOL
            if np.all(dlam[active] >= -1e-12):
                return sid, lam, ft
        raise NoForwardSimplexError(
            f"flow leaves the triangulated domain at {point}; grow the region")

    def orbital_derivative_plus(self, sys, point):
        """Forward orbital derivative at an interior point, taken in the
        forward simplex; the value is simplex-independent for qualifying
        simplices."""
        sid, _, ft = self._forward_simplex(sys, point)
        return unpack_symmetric(self.W[sid] @ ft, self.n)

    def lm_value(self, sys, point):
        """Contraction functional: half the largest generalized eigenvalue
        of M Dxf + Dxf^T M + M'_+ with respect to M."""
        sid, lam, _ = self._forward_simplex(sys, point)
        _, M, A = self.contraction(sys, [sid], lam[None, None])
        if eig_min(M[0, 0]) <= 0.0:
            raise NotPositiveDefiniteError(
                f"metric not positive definite at {point}")
        return 0.5 * float(gen_eig_max(A[0, 0], M[0, 0]))

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
