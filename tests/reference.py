"""The paper's reference quantities, for tests to compare the package
against. The package itself only synthesizes and checks the certificate
and never imports this module. The paper is Giesl and Hafstein,
"Construction of a CPA contraction metric for periodic orbits using
semidefinite optimization" (arXiv:1211.3022); each function states one of
its definitions or lemmas:

- `s_star`, `S_star`: the scaling constants s* = min_i s_i and
  S* = sqrt(n+1) max_i s_i of the triangulation's definition; a simplex of
  level K has diameter at most S* 2^-K T.
- `reference_shape_constant`: the triangulation's X*, the largest
  ||X^-1||_1 of the unit cell's simplices; ||X_nu^-1||_1 <= 2^K X*/(s* T).
- `check_face_property`: the triangulation's face-to-face property: two
  simplices meet in a common face or not at all.
- `forward_simplices`, `orbital_derivative_plus`: the forward orbital
  derivative M'_+ of a CPA metric, its gradient on a simplex that the
  flow direction (1, f) enters, contracted with (1, f).
- `lm_value`: the contraction functional L_M of the contraction criterion,
  half the largest generalized eigenvalue of M Dxf + Dxf^T M + M'_+ with
  respect to M; a contraction metric has L_M <= -1/(2C).
- `constraint_blocks`: the vertex conditions, constraints 2-5 of the
  semidefinite problem, with the margin E = a_C C + a_D D.
- `margin_coefficients`: a_C and a_D of the margin, from h, n and the
  per-simplex derivative bounds; `margin_coefficients_consistent` compares
  given coefficients with them.
- `verify_lemma_412_gap`: Lemma 4.12: inside a simplex the contraction
  matrix is within E/n, in max-norm, of the barycentric combination of its
  vertex values.

`parse_sdpa` reads the text of `export_sdpa`; `pack_symmetric`,
`constant_metric` and `metric_at` build and evaluate metrics by hand, and
`svec` writes blocks as the svec rows of the assembled problem.
"""

from __future__ import annotations

import itertools

import numpy as np

from cpacontract.assembly import svec_scale
from cpacontract.cpa import (
    CPAMetric,
    ensure_derivative_bounds,
    triu_layout,
    unpack_symmetric,
)
from cpacontract.errors import CpaError
from cpacontract.smallmat import eig_min, gen_eig_max
from cpacontract.triangulation import (
    FACE_TOL,
    _pair_violates_face_property,
    _permutation_patterns,
    simplex_geometry,
)
from cpacontract.verify import _interior_weights


class OutsideDomainError(CpaError):
    """Point is not covered by any simplex of the complex."""


class NoForwardSimplexError(CpaError):
    """The flow direction leaves the triangulated domain at this point."""


class NotPositiveDefiniteError(CpaError):
    """Metric evaluation produced a matrix that is not positive definite."""


def svec(mat):
    """Symmetric (..., n, n) -> scaled upper triangle (..., P), the layout
    of the problem's rows: off-diagonal entries times sqrt(2)."""
    n = mat.shape[-1]
    iu = triu_layout(n)
    return mat[..., iu[0], iu[1]] * svec_scale(n)


def pack_symmetric(mat):
    """(..., n, n) symmetric -> (..., P) upper triangle, row-major."""
    iu = triu_layout(mat.shape[-1])
    return mat[..., iu[0], iu[1]]


def constant_metric(cx, matrix):
    """The CPA metric with the same value at every vertex."""
    vals = pack_symmetric(np.asarray(matrix, dtype=float))
    return CPAMetric(cx, np.tile(vals, (cx.n_slots, 1)))


def metric_at(cpa, point):
    """Interpolated metric at one point of the domain, located as
    `locate_many` locates it; exact at vertices."""
    sids, lam = cpa.complex.locate_many([point])
    assert sids[0] >= 0, f"point {point} not in the triangulated domain"
    return unpack_symmetric(cpa.interpolate_batch(sids, lam)[0], cpa.n)


def s_star(scaling):
    return min(scaling.diag)


def S_star(scaling):
    return np.sqrt(scaling.n + 1) * max(scaling.diag)


def reference_shape_constant(n):
    """X*: the largest 1-norm of the inverse shape matrix over the
    reference simplices of the unit cell (reflections do not change the
    value, so permutations suffice)."""
    _, patt = _permutation_patterns(n)
    return float(simplex_geometry(patt).one_norm_inv.max())


def check_face_property(vertex_coords, simplices):
    """The index pairs (i, j), i < j, of hand-built simplices that violate
    the face property, by the vertex enumeration of
    `_pair_violates_face_property`."""
    verts = np.asarray(vertex_coords, dtype=float)[np.asarray(simplices)]
    return [(i, j) for i, j in itertools.combinations(range(len(verts)), 2)
            if _pair_violates_face_property(verts[i], verts[j])]


def forward_simplices(cpa, sys, point):
    """(simplex id, barycentric weights, (1, f)) of each simplex, by
    ascending id, that contains the point and that the flow direction
    (1, f) enters: every active zero weight is nondecreasing along it.
    M'_+ and L_M are taken in the first."""
    cx = cpa.complex
    p = np.asarray(point, dtype=float)
    pw = np.concatenate(([cx.wrap_time(p[0])], p[1:]))
    hits = cx.containing(pw)
    if not hits:
        raise OutsideDomainError(f"point {point} not in the domain")
    ft = np.concatenate(([1.0], sys.f(pw)))
    out = []
    for sid, lam in hits:
        dlam_rest = cx.Xinv[sid].T @ ft
        dlam = np.concatenate(([-dlam_rest.sum()], dlam_rest))
        if np.all(dlam[lam <= FACE_TOL] >= -1e-12):
            out.append((sid, lam, ft))
    if not out:
        raise NoForwardSimplexError(
            f"flow leaves the triangulated domain at {point}; grow the region")
    return out


def orbital_derivative_plus(cpa, sys, point):
    """M'_+ at a point, taken in the forward simplex."""
    sid, _, ft = forward_simplices(cpa, sys, point)[0]
    return unpack_symmetric(cpa.W[sid] @ ft, cpa.n)


def lm_value(cpa, sys, point):
    """L_M at a point: half the largest generalized eigenvalue of
    M Dxf + Dxf^T M + M'_+ with respect to M, in the forward simplex."""
    sid, lam, _ = forward_simplices(cpa, sys, point)[0]
    _, M, A = cpa.contraction(sys, [sid], lam[None, None])
    if eig_min(M[0, 0]) <= 0.0:
        raise NotPositiveDefiniteError(
            f"metric not positive definite at {point}")
    return 0.5 * float(gen_eig_max(A[0, 0], M[0, 0]))


def verify_lemma_412_gap(cpa, sys, sid, samples=1000, seed=0):
    """Worst max-norm distance between the contraction matrix at interior
    samples of simplex `sid` and the barycentric combination of its vertex
    matrices; the caller compares it against E/n for the simplex."""
    n = cpa.n
    rng = np.random.default_rng(seed)
    lam = _interior_weights(rng, samples, n + 2)
    sid = [sid]
    _, _, vA = cpa.contraction(sys, sid, np.eye(n + 2)[None])
    _, _, A = cpa.contraction(sys, sid, lam[None])
    target = np.einsum("sk,kij->sij", lam, vA[0])
    return float(np.max(np.abs(A[0] - target)))


def margin_coefficients(cx, sys):
    """(a_C, a_D) per simplex of the margin E = a_C C + a_D D, written out
    from the paper's interpolation-error terms with the package's bounds
    B2 (order 2) and B3 (order 3) over each simplex:
    C2: a_C = 2 h n^2 (n+1) B2,    a_D = h^2 n sqrt(n+1) B2;
    C3: a_C = 2 h^2 n^2 (n+1) B3,  a_D = h^2 n sqrt(n+1) (1+4n) B2."""
    n, h = cx.n, cx.h
    B2, B3 = ensure_derivative_bounds(cx, sys)
    a_D = h * h * n * np.sqrt(n + 1.0) * B2
    if sys.smoothness == "C2":
        return 2.0 * h * n * n * (n + 1.0) * B2, a_D
    return 2.0 * h * h * n * n * (n + 1.0) * B3, (1.0 + 4.0 * n) * a_D


def margin_coefficients_consistent(cx, sys, a_C, a_D, rtol=1e-9):
    """Whether (a_C, a_D) equal the coefficients recomputed from the
    complex and the system; detects tampered or stale margins."""
    ref_C, ref_D = margin_coefficients(cx, sys)
    return bool(np.allclose(a_C, ref_C, rtol=rtol, atol=0.0)
                and np.allclose(a_D, ref_D, rtol=rtol, atol=0.0))


def constraint_blocks(cx, sys, y, vmap, a_C, a_D, eps0):
    """Constraints 2-5 at every simplex vertex, one pair (C, D) per
    simplex, evaluated from the CPA metric that y defines; returns the
    svec rows of each family (`bound_M`, `grad_bound`, `pos_def`,
    `contraction`) in block order."""
    n, S = cx.n, cx.n_simplices
    cpa = CPAMetric.from_solution(cx, y, vmap)
    slot_mats = unpack_symmetric(cpa.values, n)
    eye = np.eye(n)
    C_arr = y[vmap.c_index(0): vmap.c_index(0) + S]
    D_arr = y[vmap.d_index(0): vmap.d_index(0) + S]

    out = {}
    Mk = slot_mats[cx.vert_slot[cx.simp_verts]]          # (S, n+2, n, n)
    out["bound_M"] = svec(C_arr[:, None, None, None] * eye - Mk).ravel()

    W = cpa.W                                             # (S, P, n+1)
    signs = np.array([1.0, -1.0])
    g3 = (D_arr[:, None, None, None] / (n + 1.0)
          + signs[None, None, None, :] * W[:, :, :, None])
    out["grad_bound"] = g3.ravel()

    out["pos_def"] = svec(slot_mats - eps0 * eye).ravel()

    pts = cx.vert_xyz[cx.simp_verts].reshape(-1, n + 1)
    J = sys.jacobian_many(pts).reshape(S, n + 2, n, n)
    ft = sys.f_tilde_many(pts).reshape(S, n + 2, n + 1)
    Mdot = unpack_symmetric(np.einsum("spl,skl->skp", W, ft), n)
    E = a_C * C_arr + a_D * D_arr
    block = (Mk @ J + np.swapaxes(J, -1, -2) @ Mk + Mdot
             + (E + 1.0)[:, None, None, None] * eye)
    out["contraction"] = svec(-block).ravel()
    return out


def parse_sdpa(text):
    """m, block sizes, objective and entries, their value strings kept,
    of the sparse SDPA text that `export_sdpa` writes."""
    lines = text.splitlines()
    m, sizes = int(lines[0]), [int(tok) for tok in lines[2].split()]
    c = np.array(lines[3].split(), dtype=float)
    if len(sizes) != int(lines[1]) or len(c) != m:
        raise ValueError("header lines do not match")
    entries = [(*map(int, toks[:4]), toks[4])
               for toks in (ln.split() for ln in lines[4:])]
    return {"m": m, "block_sizes": sizes, "c": c, "entries": entries}
