"""Independent verification of a solved CPA metric: stratified interior
sampling of the contraction inequality, vertex-constraint recomputation,
the Floquet-exponent bound -1/(2C), the interpolation-error check, and an
advisory boundary-flow report, on the metric's own mesh. Contraction
matrices, as components by the definition the SDP's coefficients use, and
the margin E come from `cpa`, block eigenvalues, L_M among them, from
`smallmat`; no SDP module (`assembly`, `solver`) is imported.

The sampled check streams: it draws and evaluates its samples over chunks
of whole simplices, at most `_SAMPLE_CHUNK` samples each (a simplex with
more is a chunk of its own), recomputes the same chunks' vertex
constraints, and keeps only running extremes, so its working set is one
chunk's, a few MB at k = 3, whatever the budget and the mesh. Each chunk
keeps the per-simplex shapes of one batch over all samples, and the
weights come from one generator in simplex order, so the report has the
bits of that batch. In its CSV, a sample whose M is not positive definite
has L_M inf, and every other sample its value.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .cpa import (
    barycentric_derivatives,
    ensure_derivative_bounds,
    enu_coefficient_arrays,
)
from .smallmat import eig_max, eigvalsh, gen_eig_max
from .triangulation import unique_rows

_CLIP = 1e-6
# the sampled verifier holds at most this many samples at once, unless one
# simplex has more
_SAMPLE_CHUNK = 8192
# the interpolation advisory samples this many simplices
_INTERP_SIMPLICES = 50


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
    interp_worst_ratio: float | None = None
    boundary: dict | None = None

    def to_dict(self):
        """JSON-ready fields, an advisory that did not run left out; a
        non-finite number, such as `max_lm` of an indefinite metric, is
        written as null."""
        out = {"passed": bool(self.passed), "samples": int(self.samples),
               "seed": int(self.seed)}
        for key in ("tol", "max_lambda_max", "max_lm", "min_metric_eig",
                    "mu_max", "bound_from_C", "bound_from_mu",
                    "interp_worst_ratio"):
            if getattr(self, key) is not None:
                out[key] = _json_float(getattr(self, key))
        for key in ("constants", "vertex_residuals"):
            out[key] = {k: _json_float(v) for k, v in getattr(self, key).items()}
        if self.boundary is not None:
            out["boundary"] = self.boundary
        return out

    def attach_interpolation_check(self, cpa, sys, seed=0):
        """Sample the interpolation-error/bound ratio over up to
        `_INTERP_SIMPLICES` simplices and record the worst value
        (advisory, never gates)."""
        cx = cpa.complex
        rng = np.random.default_rng(seed)
        count = min(_INTERP_SIMPLICES, cx.n_simplices)
        sids = rng.choice(cx.n_simplices, size=count, replace=False)
        B2, _ = ensure_derivative_bounds(cx, sys)
        worst = 0.0
        for sid in sids:
            worst = max(worst, verify_interpolation_bound(
                cx, int(sid), B2[sid], sys, samples=200, seed=int(sid)))
        self.interp_worst_ratio = worst
        return worst

    def attach_boundary_check(self, cx, sys, seed=0):
        """Run the boundary-flow advisory and record its summary."""
        rep = boundary_flow_check(cx, sys, seed=seed)
        self.boundary = {
            "boundary_facets": rep.boundary_facets,
            "sampled_facets": rep.sampled_facets,
            "outward_facets": len(rep.outward_facets),
            "worst_inner_product": _json_float(rep.worst_inner_product),
        }
        return rep


def _json_float(value):
    value = float(value)
    return value if np.isfinite(value) else None


def _interior_weights(rng, count, dim):
    """Dirichlet(1) draws clipped away from the faces."""
    lam = rng.standard_exponential((count, dim))
    lam /= lam.sum(axis=1, keepdims=True)
    return lam * (1.0 - dim * _CLIP) + _CLIP


def verify_contraction_sampled(cpa, sys, C, D, samples=100000, seed=12345,
                               tol=1e-6, eps0=0.01, csv_path=None):
    """Simplex-stratified sampling of the contraction inequality plus the
    vertex-constraint recomputation, for the scalar constants C and D, over
    the metric's complex.

    Passes iff every sampled lambda_max is <= -1 + tol, every sampled
    L_M is <= -1/(2C) + tol, the sampled metric stays above eps0 - tol,
    and all vertex constraints, with the margin E recomputed from the
    complex and the system, hold at tol. `samples` is the total budget,
    distributed evenly over the simplices. Where a sampled M is not
    positive definite, L_M is undefined and reported as inf; the eps0 gate
    fails such a metric. With `csv_path` the samples are dumped as (t,
    x.., lambda_max, L_M) rows for external plotting, L_M inf in exactly
    the rows whose M is not positive definite.

    The samples are drawn, evaluated and reduced to running extremes in
    one pass over chunks of whole simplices, at most `_SAMPLE_CHUNK`
    samples each (a simplex with more is its own chunk), and the same
    chunks' vertex constraints are recomputed there, so the memory held
    grows neither with the budget nor with the mesh; the weights come from
    one generator in simplex order, so every field has the bits of a
    single batch over all samples and vertices.
    """
    cx = cpa.complex
    a_C, a_D = enu_coefficient_arrays(cx, *ensure_derivative_bounds(cx, sys))

    n = cx.n
    S = cx.n_simplices
    per = max(1, int(np.ceil(samples / S)))
    step = max(1, _SAMPLE_CHUNK // per)
    rng = np.random.default_rng(seed)
    C, D = float(C), float(D)
    E = a_C * C + a_D * D
    max_lambda_max = max_lm = mu_top = res5 = res2 = -np.inf
    min_metric_eig, definite = np.inf, True
    with (open(csv_path, "w", encoding="latin1") if csv_path is not None
          else contextlib.nullcontext()) as fh:
        if fh is not None:
            fh.write("t," + ",".join(f"x{j}" for j in range(1, n + 1))
                     + ",lambda_max,L_M\n")
        for start in range(0, S, step):
            sids = np.arange(start, min(start + step, S))
            lam = _interior_weights(rng, len(sids) * per, n + 2).reshape(
                len(sids), per, n + 2)
            pts, M, A = cpa.contraction(sys, sids, lam)
            lmax = eig_max(A).ravel()
            mu = eigvalsh(M)
            # L_M where M is positive definite; gen_eig_max raises at k >= 3
            # on a chunk with a block that is not
            pd = mu[0].ravel() > 0.0
            if pd.all():
                lm = 0.5 * gen_eig_max(A, M).ravel()
            else:
                definite = False
                lm = np.full(len(lmax), np.inf)
                if fh is not None and pd.any():
                    lm[pd] = 0.5 * gen_eig_max(
                        *([x.ravel()[pd] for x in c] for c in (A, M)))
            max_lambda_max = np.maximum(max_lambda_max, lmax.max())
            max_lm = np.maximum(max_lm, lm.max())
            min_metric_eig = np.minimum(min_metric_eig, mu[0].min())
            mu_top = np.maximum(mu_top, mu[-1].max())
            if fh is not None:
                np.savetxt(fh, np.column_stack([pts.reshape(-1, n + 1), lmax,
                                                lm]), delimiter=",")
            # the chunk's vertex constraints, recomputed apart from the
            # solver, with running maxima as exact as one batch's
            unit = np.broadcast_to(np.eye(n + 2), (len(sids), n + 2, n + 2))
            _, vm, vA = cpa.contraction(sys, sids, unit)
            res5 = np.maximum(res5, (eig_max(vA) + (E[sids] + 1.0)[:, None])
                              .max())
            res2 = np.maximum(res2, (eig_max(vm) - C).max())
    max_lambda_max = float(max_lambda_max)
    # inf once one sampled M is not positive definite, NaN or not elsewhere
    max_lm = float(max_lm) if definite else np.inf
    min_metric_eig = float(min_metric_eig)

    # mu_max: largest metric eigenvalue over vertices and samples
    # (lambda_max is convex, so vertex values already dominate); the
    # values' columns are the metric's components
    vert_mu = eigvalsh(cpa.values.T)
    mu_max = float(max(vert_mu[-1].max(), mu_top))

    res3 = float((np.abs(cpa.W).max(axis=(1, 2)) - D / (n + 1.0)).max())
    res4 = float((eps0 - vert_mu[0]).max())
    vertex_residuals = {"bound_M": float(res2), "grad_bound": res3,
                        "pos_def": res4, "contraction": float(res5)}

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


def verify_interpolation_bound(cx, sid, B2, sys, samples=1000, seed=0):
    """Worst sampled interpolation error of f over simplex `sid` of the
    complex divided by the guaranteed bound (n+1) B h^2, with B = B2 the
    simplex's order-2 bound; B = 0 simplices return 0 when exact and inf
    otherwise."""
    n = cx.n
    rng = np.random.default_rng(seed)
    lam = _interior_weights(rng, samples, n + 2)
    verts = cx.vert_xyz[cx.simp_verts[sid]]
    pts = lam @ verts
    fv = sys.f_many(verts)
    fp = sys.f_many(pts)
    err = float(np.max(np.abs(fp - lam @ fv)))
    # Python's float power: numpy's h**2, which is h*h, differs from it in
    # the last bit for some h, and certificates record the ratio
    denom = (n + 1.0) * float(B2) * float(cx.h[sid]) ** 2
    if denom == 0.0:
        return 0.0 if err <= 1e-12 else np.inf
    return err / denom


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
    n = cx.n
    # facet k of a simplex drops vertex k; a facet met once is a boundary
    # facet, listed by (simplex, k) of that one occurrence
    drop = ~np.eye(n + 2, dtype=bool)
    slots = cx.vert_slot[cx.simp_verts]
    keys = np.sort(np.broadcast_to(slots[:, None, :], (len(slots), n + 2, n + 2))
                   [:, drop].reshape(-1, n + 1), axis=1)
    _, first, _, count = unique_rows(keys)
    boundary = np.sort(first[count == 1])
    rng = np.random.default_rng(seed)
    if len(boundary) > budget:
        picked = boundary[np.sort(rng.choice(len(boundary), size=budget,
                                             replace=False))]
    else:
        picked = boundary
    sid, k = np.divmod(picked, n + 2)
    grad = barycentric_derivatives(cx.Xinv[sid])[np.arange(len(sid)), :, k]
    normal = -grad / np.linalg.norm(grad, axis=1, keepdims=True)
    face = np.nonzero(drop[k])[1].reshape(-1, n + 1)
    verts = cx.vert_xyz[cx.simp_verts[sid[:, None], face]]
    lam = _interior_weights(rng, len(sid) * samples, n + 1).reshape(
        len(sid), samples, n + 1)
    pts = lam @ verts
    ft = sys.f_tilde_many(pts.reshape(-1, n + 1)).reshape(len(sid), samples,
                                                          n + 1)
    w = (ft @ normal[:, :, None])[..., 0].max(axis=1)
    worst = float(w.max(initial=-np.inf))
    outward = [(int(s), int(kk), float(v))
               for s, kk, v in zip(sid, k, w) if v > 1e-9]
    return BoundaryFlowReport(boundary_facets=len(boundary),
                              sampled_facets=len(sid),
                              outward_facets=outward,
                              worst_inner_product=worst)
