import numpy as np
import pytest

from cpacontract.assembly import assemble
from cpacontract.cpa import (
    CPAMetric,
    ensure_derivative_bounds,
    enu_coefficient_arrays,
)
from cpacontract.systems import parse_system
from cpacontract.triangulation import build_complex
from cpacontract.verify import (
    boundary_flow_check,
    verify_contraction_sampled,
    verify_interpolation_bound,
)

from reference import (
    constant_metric,
    margin_coefficients,
    margin_coefficients_consistent,
    verify_lemma_412_gap,
)

TWO_PI = 2.0 * np.pi


class TestContractionSampled:
    def test_constant_metric_linear_system(self, linear_1d):
        # M = [1]: sampled matrix is 2*1*(-1) = -2 everywhere, L_M = -1
        cx = build_complex([[[-2.0, 1.0]]], linear_1d.T, 3)
        cpa = constant_metric(cx, np.eye(1))
        rep = verify_contraction_sampled(cpa, linear_1d, 1.0, 0.0,
                                         samples=5000, seed=0, tol=1e-6,
                                         eps0=0.01)
        assert rep.max_lambda_max == pytest.approx(-2.0, abs=1e-9)
        assert rep.max_lm == pytest.approx(-1.0, abs=1e-9)
        assert rep.bound_from_C == pytest.approx(-0.5)
        assert rep.max_lm <= rep.bound_from_C

    def test_no_contraction_without_x_dependence(self):
        sys = parse_system("dim=1; period=6.283185307179586; f1 = sin(t)")
        cx = build_complex([[[-1.0, 1.0]]], sys.T, 2)
        cpa = constant_metric(cx, np.eye(1))
        rep = verify_contraction_sampled(cpa, sys, 1.0, 0.0, samples=2000,
                                         seed=0, tol=1e-6, eps0=0.01)
        assert rep.max_lambda_max == pytest.approx(0.0, abs=1e-9)
        assert not rep.passed

    def test_corrupted_metric_fails(self, solved_linear):
        cx, sys, vmap, sol = (solved_linear["cx"], solved_linear["sys"],
                              solved_linear["vmap"], solved_linear["sol"])
        values = vmap.metric_values(sol.y).copy()
        values[7] = -values[7]  # negate one vertex matrix
        cpa = CPAMetric(cx, values)
        C, D = vmap.bound_constants(sol.y)
        rep = verify_contraction_sampled(cpa, sys, C, D, samples=20000,
                                         seed=1, tol=1e-6, eps0=0.01)
        assert not rep.passed
        assert rep.min_metric_eig < 0.0

    def test_solved_certificate_passes(self, solved_linear):
        C, D = solved_linear["vmap"].bound_constants(solved_linear["sol"].y)
        rep = verify_contraction_sampled(
            solved_linear["cpa"], solved_linear["sys"], C, D,
            samples=20000, seed=3, tol=1e-6, eps0=0.01)
        assert rep.passed
        assert rep.max_lambda_max <= -1.0 + 1e-6
        # bound chain: L_M <= -1/(2 mu_max) <= -1/(2C) at the samples
        assert rep.max_lm <= rep.bound_from_mu + 1e-9
        assert rep.bound_from_mu <= rep.bound_from_C + 1e-12

    def test_one_vertex_residual_rejected(self):
        # x' = -x on x in [0, 1] with E = 0; M(x) = m0 + (1 - m0) x does
        # not depend on t. At x = 0, f = 0 and M' = 0, so the vertex
        # contraction residual is 1 - 2 m0 = +5e-6; at x = 1 it is m0 - 2.
        # The samples stay clear of x = 0, so only the vertex gate sees it
        sys = parse_system("dim=1; period=1; f1 = -x1")
        cx = build_complex([[[0.0, 1.0]]], 1.0, 0)
        m0 = 0.5 - 2.5e-6
        cpa = CPAMetric(cx, np.where(cx.slot_coordinates()[:, 1:] == 0.0,
                                     m0, 1.0))
        rep = verify_contraction_sampled(cpa, sys, 1.0, 1.1, samples=2000,
                                         seed=0, tol=1e-6, eps0=0.01)
        assert rep.max_lambda_max <= -1.0 + rep.tol
        res = rep.vertex_residuals
        assert res["contraction"] == pytest.approx(5e-6, rel=1e-9)
        assert res["contraction"] > rep.tol
        assert all(v <= rep.tol for k, v in res.items() if k != "contraction")
        assert not rep.passed

    def test_metric_floor_lemma(self, solved_linear):
        # Constraint 4 at the vertices pushes the sampled floor to eps0
        C, D = solved_linear["vmap"].bound_constants(solved_linear["sol"].y)
        rep = verify_contraction_sampled(
            solved_linear["cpa"], solved_linear["sys"], C, D,
            samples=10000, seed=4, tol=1e-6, eps0=0.01)
        assert rep.min_metric_eig >= 0.01 - 1e-9

    def test_margin_follows_the_system(self):
        # a mesh that assemble used with the affine field is verified with
        # the cubic one: the margin E, and with it the vertex contraction
        # residual, must be the cubic field's
        affine = parse_system("dim=1; period=1; f1 = -x1")
        cubic = parse_system("dim=1; period=1; f1 = -x1 + x1^3",
                             check_periodic=False)
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        assemble(cx, affine, 0.01)
        cpa = constant_metric(cx, np.eye(1))
        C, D = 1.0, 2.0
        rep = verify_contraction_sampled(cpa, cubic, C, D, samples=500,
                                         seed=0, tol=1e-6, eps0=0.01)
        # M = 1 and M' = 0, so each vertex block is 2 f'(x) + E + 1
        J = cubic.jacobian_many(cx.vert_xyz)[cx.simp_verts, 0, 0]

        def residual(sys):
            a_C, a_D = margin_coefficients(cx, sys)
            return float((2.0 * J + (a_C * C + a_D * D + 1.0)[:, None]).max())

        assert rep.vertex_residuals["contraction"] == pytest.approx(
            residual(cubic), rel=1e-12, abs=0.0)
        assert residual(cubic) > residual(affine)


class TestInterpolationBound:
    def test_affine_exact(self):
        sys = parse_system("dim=2; period=1; f1 = x2; f2 = -x1")
        cx = build_complex([[[0.0, 1.0], [0.0, 1.0]]], 1.0, 1)
        B2, _ = ensure_derivative_bounds(cx, sys)
        for sid in (0, 3, 5):
            assert verify_interpolation_bound(cx, sid, B2[sid], sys,
                                              200) == 0.0

    def test_vdp_within_bound(self, vdp):
        cx = build_complex([[[-2.0, 2.0], [-2.0, 2.0]]], 1.0, 2)
        B2, _ = ensure_derivative_bounds(cx, vdp)
        rng = np.random.default_rng(9)
        for sid in rng.integers(0, cx.n_simplices, size=50):
            ratio = verify_interpolation_bound(cx, int(sid), B2[sid], vdp,
                                               samples=1000, seed=int(sid))
            assert ratio <= 1.0 + 1e-9

    def test_sine_bound_instance(self, linear_1d):
        # error of interpolating sin(t) on a simplex of diameter h obeys
        # the (n+1) B h^2 = 2 h^2 instance
        cx = build_complex([[[-2.0, 1.0]]], linear_1d.T, 4)
        rng = np.random.default_rng(2)
        for sid in rng.integers(0, cx.n_simplices, size=20):
            verts = cx.vert_xyz[cx.simp_verts[sid]]
            lam = rng.dirichlet(np.ones(3), size=500)
            pts = lam @ verts
            fv = linear_1d.f_many(verts)
            err = np.abs(linear_1d.f_many(pts) - lam @ fv).max()
            assert err <= 2.0 * 1.0 * cx.h[sid]**2 + 1e-12


class TestLemma412Gap:
    def test_affine_constant_zero(self):
        sys = parse_system("dim=1; period=1; f1 = -x1")
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        cpa = constant_metric(cx, np.eye(1))
        a_C, a_D = enu_coefficient_arrays(cx,
                                          *ensure_derivative_bounds(cx, sys))
        assert np.all(a_C == 0.0)
        for sid in range(cx.n_simplices):
            gap = verify_lemma_412_gap(cpa, sys, sid, 200)
            assert gap <= 1e-12
        # negative control: a cubic field bends the matrix inside
        cubic = parse_system("dim=1; period=1; f1 = -x1 + x1^3")
        assert verify_lemma_412_gap(cpa, cubic, 0, 200) > 1e-3

    def test_solved_gap_within_margin(self, solved_linear):
        cx, sys, cpa = (solved_linear["cx"], solved_linear["sys"],
                        solved_linear["cpa"])
        C, D = solved_linear["vmap"].bound_constants(solved_linear["sol"].y)
        a_C, a_D = enu_coefficient_arrays(cx,
                                          *ensure_derivative_bounds(cx, sys))
        rng = np.random.default_rng(5)
        for sid in rng.integers(0, cx.n_simplices, size=40):
            sid = int(sid)
            gap = verify_lemma_412_gap(cpa, sys, sid, 500, seed=sid)
            E = a_C[sid] * C + a_D[sid] * D
            assert gap <= E / cx.n + 1e-8

    def test_halved_margin_detected(self, solved_linear):
        cx, sys = solved_linear["cx"], solved_linear["sys"]
        a_C, a_D = enu_coefficient_arrays(cx,
                                          *ensure_derivative_bounds(cx, sys))
        assert margin_coefficients_consistent(cx, sys, a_C, a_D)
        assert not margin_coefficients_consistent(cx, sys, a_C / 2.0,
                                                  a_D / 2.0)
        tampered = a_C.copy()
        tampered[-1] *= 1.0 + 1e-6
        assert not margin_coefficients_consistent(cx, sys, tampered, a_D)


class TestFloquetBound:
    """The bound -1/(2C) that a certificate records, the report's
    `bound_from_C`."""

    def test_formula(self, linear_1d):
        cx = build_complex([[[-2.0, 1.0]]], linear_1d.T, 1)
        cpa = constant_metric(cx, np.eye(1))
        for C, bound in ((1.0, -0.5), (10.0, -0.05)):
            rep = verify_contraction_sampled(cpa, linear_1d, C, 0.0,
                                             samples=10, seed=0)
            assert rep.bound_from_C == pytest.approx(bound)

    def test_solved_bound_sound(self, solved_linear):
        from cpacontract.orbits import find_periodic_orbit, monodromy
        C, D = solved_linear["vmap"].bound_constants(solved_linear["sol"].y)
        bound = verify_contraction_sampled(
            solved_linear["cpa"], solved_linear["sys"], C, D, samples=100,
            seed=0).bound_from_C
        res = monodromy(solved_linear["sys"],
                        find_periodic_orbit(solved_linear["sys"], [0.0]))
        assert -1.0 <= bound < 0.0
        assert bound >= res.exponents.max() - 1e-6


class TestBoundaryFlow:
    def test_inward_region(self, linear_1d):
        # at x=-2 the field pushes right, at x=1 it pushes left or is zero
        cx = build_complex([[[-2.0, 1.0]]], linear_1d.T, 3)
        rep = boundary_flow_check(cx, linear_1d, samples=50, seed=0)
        assert rep.boundary_facets > 0
        assert rep.outward_facets == []

    def test_outward_region(self, linear_1d):
        cx = build_complex([[[0.5, 0.8]]], linear_1d.T, 4)
        rep = boundary_flow_check(cx, linear_1d, samples=50, seed=0)
        assert rep.outward_facets

    def test_empty_budget(self, linear_1d):
        cx = build_complex([[[-2.0, 1.0]]], linear_1d.T, 2)
        rep = boundary_flow_check(cx, linear_1d, samples=10, seed=0, budget=0)
        assert rep.sampled_facets == 0
        assert rep.outward_facets == []


def _boundary_flow_loop(cx, sys, samples=20, seed=0, budget=2000):
    """The per-simplex loop that `boundary_flow_check` replaced, kept as
    its reference."""
    from cpacontract.verify import BoundaryFlowReport, _interior_weights
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
        grad = -Xinv.sum(axis=1) if k == 0 else Xinv[:, k - 1]
        normal = -grad / np.linalg.norm(grad)
        face = np.delete(np.arange(cx.n + 2), k)
        lam = _interior_weights(rng, samples, cx.n + 1)
        ips = sys.f_tilde_many(lam @ verts[face]) @ normal
        w = float(ips.max())
        worst = max(worst, w)
        if w > 1e-9:
            outward.append((sid, k, w))
    return BoundaryFlowReport(len(boundary), len(picked), outward, worst)


@pytest.mark.parametrize("text, region, K, budget", [
    ("dim=1; period=1; f1 = -x1 + sin(6.283185307179586*t)",
     [[[-1.0, 1.0]]], 3, 2000),
    ("dim=1; period=1; f1 = x1", [[[-1.0, 1.0]]], 0, 2000),
    ("dim=2; period=1; f1 = x2; f2 = -x1 - 0.3*x2 + 0.5*x1^2",
     [[[-1.0, 1.0], [-0.5, 0.5]]], 2, 2000),
    ("dim=2; period=1; f1 = x2; f2 = -x1 - 0.3*x2 + 0.5*x1^2",
     [[[-1.0, 1.0], [-0.5, 0.5]]], 2, 37),
    ("dim=3; period=1; f1 = -x1 + x2; f2 = x1 - x3; f3 = x3*x1",
     [[[-0.5, 0.5]] * 3], 1, 2000),
])
def test_boundary_flow_matches_loop(text, region, K, budget):
    sys = parse_system(text, check_periodic=False)
    cx = build_complex(region, sys.T, K)
    rep = boundary_flow_check(cx, sys, samples=7, seed=3, budget=budget)
    ref = _boundary_flow_loop(cx, sys, samples=7, seed=3, budget=budget)
    assert rep.boundary_facets == ref.boundary_facets
    assert rep.sampled_facets == ref.sampled_facets
    assert [f[:2] for f in rep.outward_facets] == \
        [f[:2] for f in ref.outward_facets]
    np.testing.assert_allclose([f[2] for f in rep.outward_facets],
                               [f[2] for f in ref.outward_facets],
                               rtol=1e-12, atol=0)
    assert rep.worst_inner_product == pytest.approx(ref.worst_inner_product,
                                                    rel=1e-12, abs=0)
