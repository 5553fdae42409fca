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

`verify_one_pass` is the sampled verifier as one batch over all samples,
the form that `verify.verify_contraction_sampled` streams over chunks of
simplices with the same bits. `parse_sdpa` reads the text of
`export_sdpa`; `pack_symmetric`,
`unpack_symmetric`, `constant_metric` and `metric_at` build and evaluate
metrics by hand, `svec` and `unsvec` convert blocks to and from the svec
rows of the assembled problem, `lower` takes a stack's components as
views, and `sym_basis` is the basis of symmetric matrices that the
components stand for.

The stacked forms state the solver's small-block kernels on (..., k, k)
stacks, with the operations and their order of the component kernels in
`smallmat` and `solver._MatrixCone`: `stack`, `vectors` and `triangular`
turn components back into stacks, `stacked_cholesky`,
`stacked_inv_lower`, `stacked_eigh2` and `stacked_congruence2` are the
stacked closed forms the component kernels replaced, `matmul_seq` is a
matrix product summed term by term, and `stacked_cone` is the matrix
cone's scaling (v, s_inv, P) with its steps and gap.
"""

from __future__ import annotations

import itertools

import numpy as np

from cpacontract.assembly import svec_scale
from cpacontract.cpa import (
    CPAMetric,
    ensure_derivative_bounds,
    enu_coefficient_arrays,
)
from cpacontract.errors import CpaError
from cpacontract.smallmat import (
    eig_max,
    eig_min,
    eigh,
    eigvalsh,
    gen_eig_max,
    gram_eigh,
    lower_pairs,
)
from cpacontract.triangulation import (
    FACE_TOL,
    _pair_violates_face_property,
    _permutation_patterns,
    simplex_geometry,
)
from cpacontract.verify import VerificationReport, _interior_weights


class OutsideDomainError(CpaError):
    """Point is not covered by any simplex of the complex."""


class NoForwardSimplexError(CpaError):
    """The flow direction leaves the triangulated domain at this point."""


class NotPositiveDefiniteError(CpaError):
    """Metric evaluation produced a matrix that is not positive definite."""


def lower(mats):
    """The components of a stack (..., k, k) in `lower_pairs` order, as
    views."""
    return [mats[..., i, j] for i, j in lower_pairs(np.shape(mats)[-1])]


def pack_symmetric(mat):
    """(..., n, n) symmetric -> (..., P) components, the layout of a
    metric's values."""
    return np.stack(lower(np.asarray(mat)), axis=-1)


def unpack_symmetric(vals, n):
    """(..., P) components -> (..., n, n) symmetric."""
    return stack(np.moveaxis(np.asarray(vals, dtype=float), -1, 0))


def sym_basis(n):
    """The symmetric matrices that the components stand for, stacked
    (P, n, n): E_ii on the diagonal, E_ij + E_ji off it."""
    return unpack_symmetric(np.eye(n * (n + 1) // 2), n)


def svec(mat):
    """Symmetric (..., n, n) -> scaled components (..., P), the layout of
    the problem's rows: off-diagonal entries times sqrt(2)."""
    return pack_symmetric(mat) * svec_scale(mat.shape[-1])


def unsvec(vec, n):
    """Scaled components (..., P) -> symmetric (..., n, n)."""
    return unpack_symmetric(np.asarray(vec) / svec_scale(n), n)


def stack(a, symmetric=True):
    """Components in `smallmat` layout -> (..., k, k) blocks: symmetric,
    or lower triangular with zeros above the diagonal."""
    k = int(np.sqrt(2 * len(a)))
    out = np.zeros(np.shape(a[0]) + (k, k))
    for (i, j), x in zip(lower_pairs(k), a):
        out[..., i, j] = x
        if symmetric:
            out[..., j, i] = x
    return out


def triangular(a):
    return stack(a, symmetric=False)


def vectors(Q):
    """Eigenvector columns (k lists of k arrays) -> (..., k, k)."""
    return np.stack([np.stack(col, axis=-1) for col in Q], axis=-1)


def matmul_seq(A, B):
    """A @ B per block with each entry summed term by term in order, as
    the component kernels sum (numpy's stacked matmul fuses them)."""
    out = A[..., :, :1] * B[..., :1, :]
    for m in range(1, A.shape[-1]):
        out = out + A[..., :, m:m + 1] * B[..., m:m + 1, :]
    return out


def stacked_cholesky(mats):
    """The Cholesky factor's column loop across a stack; not positive
    definite or not finite gives an all-NaN factor."""
    k = mats.shape[-1]
    L = np.zeros_like(mats)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(k):
            for i in range(j, k):
                t = mats[..., i, j]
                for m in range(j):
                    t = t - L[..., i, m] * L[..., j, m]
                L[..., i, j] = np.sqrt(t) if i == j else t / L[..., j, j]
    ok = (np.isfinite(L).all(axis=(-2, -1))
          & (np.diagonal(L, 0, -2, -1) > 0.0).all(axis=-1))
    L[~ok] = np.nan
    return L


def stacked_inv_lower(L):
    """Inverse of lower triangular blocks by forward substitution."""
    Li = np.zeros_like(L)
    for i in range(L.shape[-1]):
        Li[..., i, i] = 1.0 / L[..., i, i]
        for j in range(i):
            t = L[..., i, j] * Li[..., j, j]
            for m in range(j + 1, i):
                t = t + L[..., i, m] * Li[..., m, j]
            Li[..., i, j] = -t * Li[..., i, i]
    return Li


def stacked_eigh2(mats):
    """Eigenvalues and eigenvectors of 2 x 2 blocks: LAPACK dlaev2's
    formulas, the smaller-modulus eigenvalue from the determinant."""
    a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
    sm, rt = a + c, np.hypot(a - c, 2.0 * b)
    w, Q = np.empty(mats.shape[:-1]), np.empty(mats.shape)
    w[..., 0], w[..., 1] = 0.5 * (sm - rt), 0.5 * (sm + rt)
    with np.errstate(divide="ignore", invalid="ignore"):
        w[..., 0] = np.where(sm > 0.0, (a * c - b * b) / w[..., 1], w[..., 0])
        w[..., 1] = np.where(sm < 0.0, (a * c - b * b) / w[..., 0], w[..., 1])
    th = 0.5 * np.arctan2(2.0 * b, a - c)
    cs, sn = np.cos(th), np.sin(th)
    Q[..., 0, 1] = Q[..., 1, 0] = cs
    Q[..., 1, 1] = sn
    Q[..., 0, 0] = -sn
    return w, Q


def stacked_congruence2(R, X, trans=False):
    """R X R^T, or R^T X R, of 2 x 2 blocks in closed form."""
    r00, r01, r10, r11 = R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1]
    if trans:
        r01, r10 = r10, r01
    x0, x1, x2 = X[..., 0, 0], X[..., 0, 1], X[..., 1, 1]
    t00, t01 = r00 * x0 + r01 * x1, r00 * x1 + r01 * x2
    t10, t11 = r10 * x0 + r11 * x1, r10 * x1 + r11 * x2
    out = np.empty(np.broadcast_shapes(R.shape, X.shape))
    out[..., 0, 0] = t00 * r00 + t01 * r01
    out[..., 0, 1] = out[..., 1, 0] = t00 * r10 + t01 * r11
    out[..., 1, 1] = t10 * r10 + t11 * r11
    return out


def stacked_cone(s, z):
    """The matrix cone at the svec rows (s, z), k = 2 or 3, on stacks:
    L = chol(S), L^T Z L = Q diag(lam) Q^T (refined at k = 3 by the Jacobi
    sweep on G Q, G = chol(Z)^T L), v = lam^(1/2), F = v^(1/2) Q^T L^-1 and
    its svec map P (N, d, d). Returns (v, s_inv, P, steps, gap): steps(X)
    is the smallest eigenvalue of V^(-1/2) X V^(-1/2) per block for svec
    rows X, and gap(X, dZ, ap, ad) is <V + ap X, V + ad dZ>."""
    k = int(np.sqrt(2 * s.shape[-1]))
    S, Z = unsvec(s, k), unsvec(z, k)
    L = stacked_cholesky(S)
    Lt = np.swapaxes(L, -1, -2)
    T = matmul_seq(matmul_seq(Lt, Z), L)
    # the upper triangle of the product, which the component kernel forms
    lam, Q = eigh(lower(np.swapaxes(T, -1, -2)))
    if k > 2:
        LZt = np.swapaxes(stacked_cholesky(Z), -1, -2)
        Y = matmul_seq(LZt, matmul_seq(L, vectors(Q)))
        lam, Q = gram_eigh([[Y[..., r, c] for r in range(k)]
                            for c in range(k)], Q)
    v = np.sqrt(np.stack(lam, axis=-1))
    F = np.sqrt(v)[..., None] * matmul_seq(np.swapaxes(vectors(Q), -1, -2),
                                           stacked_inv_lower(L))
    pairs = lower_pairs(k)
    P = np.empty(s.shape + (len(pairs),))
    for a, (i, j) in enumerate(pairs):
        for b, (l, m) in enumerate(pairs):
            x = F[..., j, m] * F[..., i, l]
            if (i == j) != (l == m):
                x = np.sqrt(2.0) * F[..., j, m] * F[..., i, l]
            elif i != j:
                x = x + F[..., j, l] * F[..., i, m]
            P[..., a, b] = x
    diag = [q for q, (i, j) in enumerate(pairs) if i == j]
    s_inv = np.einsum("nji,nj->ni", P[:, diag], 1.0 / v)
    r = 1.0 / np.sqrt(v)

    def steps(X):
        return eig_min(lower(unsvec(X, k) * (r[..., :, None]
                                             * r[..., None, :])))

    def gap(X, dZ, ap, ad):
        return float((v * v).sum() + ap * (X[:, diag] * v).sum()
                     + ad * (dZ[:, diag] * v).sum() + ap * ad * (X * dZ).sum())

    return v, s_inv, P, steps, gap


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
    M, A = [x[0, 0] for x in M], [x[0, 0] for x in A]
    if eig_min(M) <= 0.0:
        raise NotPositiveDefiniteError(
            f"metric not positive definite at {point}")
    return 0.5 * float(gen_eig_max(A, M))


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
    target = np.einsum("sk,kij->sij", lam, stack(vA)[0])
    return float(np.max(np.abs(stack(A)[0] - target)))


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


def verify_one_pass(cpa, sys, C, D, samples=100000, seed=12345, tol=1e-6,
                    eps0=0.01, csv_path=None):
    """`verify_contraction_sampled` with every sample's weights, points, M
    and contraction matrix held at once, as one batch; L_M is inf at every
    sample, and in every CSV row, when one sampled M is not positive
    definite."""
    cx = cpa.complex
    a_C, a_D = enu_coefficient_arrays(cx, *ensure_derivative_bounds(cx, sys))

    n = cx.n
    S = cx.n_simplices
    per = max(1, int(np.ceil(samples / S)))
    rng = np.random.default_rng(seed)
    lam = _interior_weights(rng, S * per, n + 2).reshape(S, per, n + 2)
    sids = np.arange(S)

    pts, M, A = cpa.contraction(sys, sids, lam)
    lmax = eig_max(A).ravel()
    max_lambda_max = float(lmax.max())
    mu = eigvalsh(M)
    min_metric_eig = float(mu[0].min())
    lm = (0.5 * gen_eig_max(A, M).ravel() if min_metric_eig > 0.0
          else np.full(len(lmax), np.inf))
    max_lm = float(lm.max())

    if csv_path is not None:
        header = "t," + ",".join(f"x{j}" for j in range(1, n + 1)) \
            + ",lambda_max,L_M"
        np.savetxt(csv_path, np.column_stack([pts.reshape(-1, n + 1), lmax,
                                              lm]),
                   delimiter=",", header=header, comments="")

    vert_mu = eigvalsh(cpa.values.T)
    mu_max = float(max(vert_mu[-1].max(), mu[-1].max()))

    unit = np.broadcast_to(np.eye(n + 2), (S, n + 2, n + 2))
    _, vm, vA = cpa.contraction(sys, sids, unit)
    C, D = float(C), float(D)
    E = a_C * C + a_D * D
    res5 = float((eig_max(vA) + (E + 1.0)[:, None]).max())
    res2 = float((eig_max(vm) - C).max())
    res3 = float((np.abs(cpa.W).max(axis=(1, 2)) - D / (n + 1.0)).max())
    res4 = float((eps0 - vert_mu[0]).max())
    vertex_residuals = {"bound_M": res2, "grad_bound": res3,
                        "pos_def": res4, "contraction": res5}

    bound_C = -1.0 / (2.0 * C)
    bound_mu = -1.0 / (2.0 * mu_max)
    passed = (max_lambda_max <= -1.0 + tol
              and max_lm <= bound_C + tol
              and min_metric_eig >= eps0 - tol
              and all(r <= tol for r in vertex_residuals.values()))
    return VerificationReport(
        passed=passed, samples=S * per, seed=seed, tol=tol,
        max_lambda_max=max_lambda_max, max_lm=max_lm,
        min_metric_eig=min_metric_eig, mu_max=mu_max,
        bound_from_C=bound_C, bound_from_mu=bound_mu,
        constants={"C": C, "D": D, "eps0": eps0},
        vertex_residuals=vertex_residuals)
