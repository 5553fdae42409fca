"""Independent verification of a solved CPA metric: stratified interior
sampling of the contraction inequality, vertex-constraint recomputation,
interpolation-error and derivative-consistency checks, the Floquet-exponent
bound, and an advisory boundary-flow report. Block eigenvalues, L_M among
them, come from the batched kernels of `smallmat`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import ensure_derivative_bounds, enu_coefficient_arrays
from .cpa import unpack_symmetric
from .errors import NotFeasibleInputError
from .smallmat import eig_max, eig_min, gen_eig_max

_CLIP = 1e-6


@dataclass
class VerificationReport:
    passed: bool
    samples: int
    seed: int
    tol: float
    max_lambda_max: float
    max_lm: float
    min_metric_eig: float
    mu_max: float
    bound_from_C: float
    bound_from_mu: float
    constants: dict
    vertex_residuals: dict
    margin_ok: bool
    interp_worst_ratio: float | None = None
    boundary: dict | None = None
    notes: list = field(default_factory=list)

    def to_dict(self):
        out = {
            "passed": bool(self.passed),
            "samples": int(self.samples),
            "seed": int(self.seed),
            "tol": float(self.tol),
            "max_lambda_max": float(self.max_lambda_max),
            "max_lm": float(self.max_lm),
            "min_metric_eig": float(self.min_metric_eig),
            "mu_max": float(self.mu_max),
            "bound_from_C": float(self.bound_from_C),
            "bound_from_mu": float(self.bound_from_mu),
            "constants": {k: float(v) for k, v in self.constants.items()},
            "vertex_residuals": {k: float(v)
                                 for k, v in self.vertex_residuals.items()},
            "margin_ok": bool(self.margin_ok),
            "notes": list(self.notes),
        }
        if self.interp_worst_ratio is not None:
            out["interp_worst_ratio"] = float(self.interp_worst_ratio)
        if self.boundary is not None:
            out["boundary"] = self.boundary
        return out

    def attach_interpolation_check(self, cpa, sys, budget=50, seed=0):
        """Sample the interpolation-error/bound ratio over a subset of
        simplices and record the worst value (advisory, never gates)."""
        cx = cpa.complex
        rng = np.random.default_rng(seed)
        count = min(budget, cx.n_simplices)
        sids = rng.choice(cx.n_simplices, size=count, replace=False)
        worst = 0.0
        for sid in sids:
            worst = max(worst, verify_interpolation_bound(
                cx.simplex(int(sid)), sys, samples=200, seed=int(sid)))
        self.interp_worst_ratio = worst
        return worst

    def attach_boundary_check(self, cx, sys, samples=20, seed=0):
        """Run the boundary-flow advisory and record its summary."""
        rep = boundary_flow_check(cx, sys, samples=samples, seed=seed)
        self.boundary = {
            "boundary_facets": rep.boundary_facets,
            "sampled_facets": rep.sampled_facets,
            "outward_facets": len(rep.outward_facets),
            "worst_inner_product": float(rep.worst_inner_product),
        }
        return rep


def _interior_weights(rng, count, dim):
    """Dirichlet(1) draws clipped away from the faces."""
    lam = rng.standard_exponential((count, dim))
    lam /= lam.sum(axis=1, keepdims=True)
    return lam * (1.0 - dim * _CLIP) + _CLIP


def margin_coefficients_consistent(cx, sys, a_C, a_D, rtol=1e-9):
    """Recompute the interpolation-error margin coefficients from the
    complex and compare; detects tampered or stale margins."""
    ensure_derivative_bounds(cx, sys)
    ref_C, ref_D = enu_coefficient_arrays(cx, sys.smoothness)
    scale_C = np.maximum(np.abs(ref_C), 1e-30)
    scale_D = np.maximum(np.abs(ref_D), 1e-30)
    return bool(np.all(np.abs(np.asarray(a_C) - ref_C) <= rtol * scale_C)
                and np.all(np.abs(np.asarray(a_D) - ref_D) <= rtol * scale_D))


def verify_contraction_sampled(cpa, sys, cx, samples=100000, seed=12345,
                               tol=1e-6, eps0=0.01, C=None, D=None,
                               a_C=None, a_D=None, csv_path=None):
    """Simplex-stratified sampling of the contraction inequality plus the
    vertex-constraint recomputation.

    Passes iff every sampled lambda_max is <= -1 + tol, every sampled
    L_M is <= -1/(2C) + tol, the sampled metric stays above eps0 - tol,
    all vertex constraints hold at tol, and the margin coefficients match
    their recomputation. `samples` is the total budget, distributed evenly
    over the simplices. Where a sampled M is not positive definite, L_M is
    undefined and reported as inf; the eps0 gate fails such a metric. With
    `csv_path` the samples are dumped as (t, x.., lambda_max, L_M) rows for
    external plotting.
    """
    if C is None or D is None:
        raise NotFeasibleInputError("verification needs the solved C and D")
    ensure_derivative_bounds(cx, sys)
    ref_aC, ref_aD = enu_coefficient_arrays(cx, sys.smoothness)
    if a_C is None:
        a_C = ref_aC
    if a_D is None:
        a_D = ref_aD
    margin_ok = margin_coefficients_consistent(cx, sys, a_C, a_D)

    n = cx.n
    S = cx.n_simplices
    per = max(1, int(np.ceil(samples / S)))
    rng = np.random.default_rng(seed)
    lam = _interior_weights(rng, S * per, n + 2).reshape(S, per, n + 2)

    verts = cx.vert_xyz[cx.simp_verts]                     # (S, n+2, n+1)
    pts = np.einsum("skj,sjd->skd", lam, verts).reshape(-1, n + 1)
    ft = sys.f_tilde_many(pts).reshape(S, per, n + 1)
    J = sys.jacobian_many(pts).reshape(S, per, n, n)

    Mvals = np.einsum("skj,sjp->skp", lam, cpa.vertex_values)
    M = unpack_symmetric(Mvals, n)                          # (S, per, n, n)
    Mdot = unpack_symmetric(np.einsum("spl,skl->skp", cpa.W, ft), n)
    A = M @ J + np.swapaxes(J, -1, -2) @ M + Mdot

    lmax = eig_max(A).ravel()
    max_lambda_max = float(lmax.max())
    min_metric_eig = float(eig_min(M).min())
    lm = (0.5 * gen_eig_max(A, M).ravel() if min_metric_eig > 0.0
          else np.full(len(lmax), np.inf))
    max_lm = float(lm.max())

    if csv_path is not None:
        header = "t," + ",".join(f"x{j}" for j in range(1, n + 1)) \
            + ",lambda_max,L_M"
        np.savetxt(csv_path, np.column_stack([pts, lmax, lm]),
                   delimiter=",", header=header, comments="")

    # mu_max: largest metric eigenvalue over vertices and samples
    # (lambda_max is convex, so vertex values already dominate)
    vert_mats = unpack_symmetric(cpa.values, n)
    mu_max = float(max(eig_max(vert_mats).max(), eig_max(M).max()))

    # vertex-constraint recomputation, independent of the solver
    vm = unpack_symmetric(cpa.vertex_values, n)             # (S, n+2, n, n)
    vpts = verts.reshape(-1, n + 1)
    vft = sys.f_tilde_many(vpts).reshape(S, n + 2, n + 1)
    vJ = sys.jacobian_many(vpts).reshape(S, n + 2, n, n)
    vMdot = unpack_symmetric(np.einsum("spl,skl->skp", cpa.W, vft), n)
    vA = vm @ vJ + np.swapaxes(vJ, -1, -2) @ vm + vMdot
    C_arr = np.broadcast_to(np.asarray(C, dtype=float), (S,))
    D_arr = np.broadcast_to(np.asarray(D, dtype=float), (S,))
    E = np.asarray(a_C) * C_arr + np.asarray(a_D) * D_arr
    res5 = float((eig_max(vA) + (E + 1.0)[:, None]).max())
    res2 = float((eig_max(vm) - C_arr[:, None]).max())
    res3 = float((np.abs(cpa.W).max(axis=(1, 2)) - D_arr / (n + 1.0)).max())
    res4 = float((eps0 - eig_min(vert_mats)).max())
    vertex_residuals = {"bound_M": res2, "grad_bound": res3,
                        "pos_def": res4, "contraction": res5}

    C_sc = float(np.max(C_arr))
    bound_C = -1.0 / (2.0 * C_sc)
    bound_mu = -1.0 / (2.0 * mu_max)
    passed = (max_lambda_max <= -1.0 + tol
              and max_lm <= bound_C + tol
              and min_metric_eig >= eps0 - tol
              and all(r <= tol for r in vertex_residuals.values())
              and margin_ok)
    notes = []
    if not margin_ok:
        notes.append("margin coefficients do not match their recomputation")
    return VerificationReport(
        passed=passed, samples=S * per, seed=seed, tol=tol,
        max_lambda_max=max_lambda_max, max_lm=max_lm,
        min_metric_eig=min_metric_eig, mu_max=mu_max,
        bound_from_C=bound_C, bound_from_mu=bound_mu,
        constants={"C": C_sc, "D": float(np.max(D_arr)), "eps0": eps0},
        vertex_residuals=vertex_residuals, margin_ok=margin_ok, notes=notes)


def verify_interpolation_bound(simplex, sys, samples=1000, seed=0):
    """Worst sampled interpolation error of f over the simplex divided by
    the guaranteed bound (n+1) B h^2; B = 0 simplices return 0 when exact
    and inf otherwise."""
    cx = simplex.complex
    n = cx.n
    rng = np.random.default_rng(seed)
    lam = _interior_weights(rng, samples, n + 2)
    verts = simplex.vertices
    pts = lam @ verts
    fv = sys.f_many(verts)
    fp = sys.f_many(pts)
    err = float(np.max(np.abs(fp - lam @ fv)))
    B = simplex.B2
    if B is None:
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        B = sys.derivative_bound(np.column_stack([lo, hi]), 2)
    denom = (n + 1.0) * B * simplex.h**2
    if denom == 0.0:
        return 0.0 if err <= 1e-12 else np.inf
    return err / denom


def verify_lemma_412_gap(cpa, sys, simplex, samples=1000, seed=0):
    """Worst max-norm distance between the contraction matrix at interior
    samples and the barycentric combination of the vertex matrices.

    The caller compares the result against E/n for the simplex.
    """
    cx = simplex.complex
    n = cx.n
    sid = simplex.index
    rng = np.random.default_rng(seed)
    lam = _interior_weights(rng, samples, n + 2)
    verts = simplex.vertices
    pts = lam @ verts

    W = cpa.W[sid]
    vert_vals = cpa.vertex_values[sid]
    vm = unpack_symmetric(vert_vals, n)
    vft = sys.f_tilde_many(verts)
    vJ = sys.jacobian_many(verts)
    vA = (vm @ vJ + np.swapaxes(vJ, -1, -2) @ vm
          + unpack_symmetric(np.einsum("pl,kl->kp", W, vft), n))

    M = unpack_symmetric(lam @ vert_vals, n)
    ft = sys.f_tilde_many(pts)
    J = sys.jacobian_many(pts)
    A = (M @ J + np.swapaxes(J, -1, -2) @ M
         + unpack_symmetric(np.einsum("pl,kl->kp", W, ft), n))
    target = np.einsum("sk,kij->sij", lam, vA)
    return float(np.max(np.abs(A - target)))


def floquet_bound(solution, varmap):
    """Upper bound -1/(2C) on the largest real part of the Floquet
    exponents of the certified orbit."""
    if solution.status not in ("Feasible", "Optimal"):
        raise NotFeasibleInputError(
            f"no Floquet bound from a solution with status {solution.status}")
    C, _ = varmap.bound_constants(solution.y)
    return -1.0 / (2.0 * C)


@dataclass
class BoundaryFlowReport:
    boundary_facets: int
    sampled_facets: int
    outward_facets: list
    worst_inner_product: float


def boundary_flow_check(cx, sys, samples=20, seed=0, budget=2000):
    """Advisory: sample boundary facets of the triangulated domain and
    report where the extended field (1, f) points outward. Positive
    invariance is a hypothesis left to the user; this never gates a pass."""
    facets = {}
    for sid in range(cx.n_simplices):
        slots = cx.vert_slot[cx.simp_verts[sid]]
        for k in range(cx.n + 2):
            key = tuple(sorted(np.delete(slots, k)))
            facets.setdefault(key, []).append((sid, k))
    boundary = [v[0] for v in facets.values() if len(v) == 1]
    rng = np.random.default_rng(seed)
    if len(boundary) > budget:
        sel = rng.choice(len(boundary), size=budget, replace=False)
        picked = [boundary[i] for i in sorted(sel)]
    else:
        picked = boundary
    outward = []
    worst = -np.inf
    for sid, k in picked:
        verts = cx.vert_xyz[cx.simp_verts[sid]]
        Xinv = cx.Xinv[sid]
        if k == 0:
            grad = -Xinv.sum(axis=1)
        else:
            grad = Xinv[:, k - 1]
        normal = -grad / np.linalg.norm(grad)
        face = np.delete(np.arange(cx.n + 2), k)
        lam = _interior_weights(rng, samples, cx.n + 1)
        pts = lam @ verts[face]
        ips = sys.f_tilde_many(pts) @ normal
        w = float(ips.max())
        worst = max(worst, w)
        if w > 1e-9:
            outward.append((sid, k, w))
    return BoundaryFlowReport(boundary_facets=len(boundary),
                              sampled_facets=len(picked),
                              outward_facets=outward,
                              worst_inner_product=worst)
