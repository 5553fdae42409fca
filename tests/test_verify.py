import tracemalloc

import numpy as np
import pytest

from cpacontract.assembly import assemble
from cpacontract.cpa import (
    CPAMetric,
    ensure_derivative_bounds,
    enu_coefficient_arrays,
)
from cpacontract.smallmat import eigvalsh, gen_eig_max
from cpacontract.systems import parse_system
from cpacontract.triangulation import build_complex
from cpacontract.verify import (
    _SAMPLE_CHUNK,
    _interior_weights,
    boundary_flow_check,
    verify_contraction_sampled,
    verify_interpolation_bound,
)

from reference import (
    constant_metric,
    margin_coefficients,
    margin_coefficients_consistent,
    pack_symmetric,
    verify_lemma_412_gap,
    verify_one_pass,
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
        cubic = parse_system("dim=1; period=1; f1 = -x1 + x1^3")
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


SYNTH_3D_TEXT = ("dim=3; period=1; smoothness=c3; "
                 "f1 = -x1 + 1.5*x2 + 0.2*x2*x3; "
                 "f2 = -x2 + 1.5*x3 - 0.2*x1*x3; "
                 "f3 = -x3 + 0.2*x1*x2")
SYNTH_3D_REGION = [[[-0.5, 0.5]] * 3]


def _varied_metric(cx, seed, shift=2.0):
    """A CPA metric whose vertex values are shift * I plus a random
    symmetric matrix with entries in [-0.5, 0.5]."""
    n = cx.n
    G = np.random.default_rng(seed).uniform(-0.5, 0.5, (cx.n_slots, n, n))
    return CPAMetric(cx, pack_symmetric(
        0.5 * (G + np.swapaxes(G, 1, 2)) + shift * np.eye(n)))


def _chunk_step(cx, samples):
    """Simplices per chunk of the sampled verifier."""
    per = max(1, int(np.ceil(samples / cx.n_simplices)))
    return max(1, _SAMPLE_CHUNK // per)


def _sampled_pd(cpa, sys, samples, seed):
    """Per sample, in CSV row order: whether M is positive definite, and
    L_M where it is, from one batch over every sample."""
    cx = cpa.complex
    S, n = cx.n_simplices, cx.n
    per = max(1, int(np.ceil(samples / S)))
    lam = _interior_weights(np.random.default_rng(seed), S * per,
                            n + 2).reshape(S, per, n + 2)
    _, M, A = cpa.contraction(sys, np.arange(S), lam)
    pd = eigvalsh(M)[0].ravel() > 0.0
    lm = 0.5 * gen_eig_max(*([x.ravel()[pd] for x in c] for c in (A, M)))
    return pd, lm


def _same_report(a, b):
    # repr-exact, so a flipped sign of zero shows too; to_dict writes inf
    # and NaN alike as null
    assert repr(a.to_dict()) == repr(b.to_dict())
    assert repr(a.max_lm) == repr(b.max_lm)


class TestStreamedMatchesOnePass:
    """The verifier streams its samples over chunks of whole simplices;
    every report field and the CSV keep the bits of one batch over all
    samples (`reference.verify_one_pass`)."""

    @pytest.fixture(scope="class")
    def meshes(self, solved_linear, vdp):
        sys3 = parse_system(SYNTH_3D_TEXT)
        cx2 = build_complex([[[-1.0, 1.0], [-1.0, 1.0]]], vdp.T, 1)
        cx3 = build_complex(SYNTH_3D_REGION, sys3.T, 0)
        return {1: (solved_linear["cpa"], solved_linear["sys"], 2.0, 0.5),
                2: (_varied_metric(cx2, 2), vdp, 3.0, 1.0),
                3: (_varied_metric(cx3, 3), sys3, 3.0, 1.0)}

    @pytest.mark.parametrize("n, samples", [(1, 20000), (2, 20000),
                                            (3, 100000)])
    def test_every_field_and_csv(self, meshes, n, samples, tmp_path):
        cpa, sys, C, D = meshes[n]
        # the last chunk is shorter than the others
        step = _chunk_step(cpa.complex, samples)
        assert 1 < step < cpa.complex.n_simplices
        assert cpa.complex.n_simplices % step != 0
        got = verify_contraction_sampled(cpa, sys, C, D, samples=samples,
                                         seed=9, csv_path=tmp_path / "a.csv")
        want = verify_one_pass(cpa, sys, C, D, samples=samples, seed=9,
                               csv_path=tmp_path / "b.csv")
        _same_report(got, want)
        assert np.isfinite(got.max_lm)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_simplex_above_the_chunk(self, tmp_path):
        # per > _SAMPLE_CHUNK: each simplex is a chunk of its own
        sys = parse_system("dim=1; period=1; f1 = -x1 + x1^3")
        cx = build_complex([[[0.0, 1.0]]], 1.0, 0)
        cpa = _varied_metric(cx, 4)
        samples = cx.n_simplices * (_SAMPLE_CHUNK + 100)
        assert _chunk_step(cx, samples) == 1
        got = verify_contraction_sampled(cpa, sys, 3.0, 1.0, samples=samples,
                                         seed=2, csv_path=tmp_path / "a.csv")
        want = verify_one_pass(cpa, sys, 3.0, 1.0, samples=samples, seed=2,
                               csv_path=tmp_path / "b.csv")
        _same_report(got, want)
        assert got.samples > _SAMPLE_CHUNK * cx.n_simplices
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_csv_of_a_metric_not_positive_definite(self, meshes, n,
                                                   tmp_path):
        # one vertex value negated: L_M is inf in exactly the rows whose M
        # is not positive definite, as are max_lm and (in one batch) every
        # row; the other columns keep their bytes
        cpa0, sys, C, D = meshes[n]
        values = cpa0.values.copy()
        values[3] = -values[3]
        cpa = CPAMetric(cpa0.complex, values)
        got = verify_contraction_sampled(cpa, sys, C, D, samples=20000,
                                         seed=5, csv_path=tmp_path / "a.csv")
        want = verify_one_pass(cpa, sys, C, D, samples=20000, seed=5,
                               csv_path=tmp_path / "b.csv")
        _same_report(got, want)
        assert got.max_lm == np.inf and not got.passed
        rows = [(tmp_path / name).read_text().splitlines()
                for name in ("a.csv", "b.csv")]
        assert rows[0][0] == rows[1][0]
        assert [r.rsplit(",", 1)[0] for r in rows[0]] == \
            [r.rsplit(",", 1)[0] for r in rows[1]]
        assert all(r.endswith(",inf") for r in rows[1][1:])
        lm = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)[:, -1]
        pd, want_lm = _sampled_pd(cpa, sys, 20000, 5)
        assert 0 < pd.sum() < len(pd)
        np.testing.assert_array_equal(np.isinf(lm), ~pd)
        assert lm[pd].tobytes() == want_lm.tobytes()

    @pytest.mark.parametrize("csv", [False, True])
    def test_indefinite_only_in_the_last_chunk(self, meshes, csv, tmp_path):
        # at k = 3 gen_eig_max raises on a block that is not positive
        # definite; a slot met only by the last chunk's simplices is
        # negated, so every earlier chunk is definite
        cpa0, sys, C, D = meshes[3]
        cx = cpa0.complex
        samples = cx.n_simplices * (_SAMPLE_CHUNK // (cx.n_simplices // 2))
        step = _chunk_step(cx, samples)
        last = (cx.n_simplices - 1) // step * step
        assert last > 0
        slots = cx.vert_slot[cx.simp_verts]
        outside = set(slots[:last].ravel())
        slot = next(s for s in slots[last:].ravel() if s not in outside)
        values = cpa0.values.copy()
        values[slot] = -values[slot]
        cpa = CPAMetric(cx, values)
        path = tmp_path / "a.csv" if csv else None
        got = verify_contraction_sampled(cpa, sys, C, D, samples=samples,
                                         seed=6, csv_path=path)
        want = verify_one_pass(cpa, sys, C, D, samples=samples, seed=6)
        _same_report(got, want)
        assert got.max_lm == np.inf
        assert got.min_metric_eig < 0.0
        assert not got.passed


def test_verifier_memory_does_not_grow_with_the_budget():
    # the traced peak inside the verifier on the synth-3d mesh: a chunk's
    # worth of samples, not the budget's
    sys = parse_system(SYNTH_3D_TEXT)
    cpa = constant_metric(build_complex(SYNTH_3D_REGION, sys.T, 0),
                          np.eye(3))
    peaks = []
    for samples in (100000, 400000):
        tracemalloc.start()
        try:
            verify_contraction_sampled(cpa, sys, 3.0, 1.0, samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 8e6
    assert peaks[1] - peaks[0] < 1e6


def test_verifier_memory_does_not_grow_with_the_mesh(osc_2d):
    # the traced peak inside the verifier at 64 samples per simplex on
    # meshes of 1,536 and 6,912 simplices: the vertex recomputation runs
    # over the sampled pass's chunks, not over all simplices at once
    peaks = []
    for K in (4, 5):
        cpa = constant_metric(build_complex([[[-0.5, 0.5], [-0.5, 0.5]]],
                                            osc_2d.T, K), np.eye(2))
        tracemalloc.start()
        try:
            verify_contraction_sampled(cpa, osc_2d, 3.0, 1.0,
                                       samples=64 * cpa.complex.n_simplices)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4e6
    assert peaks[1] - peaks[0] < 1e6


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
    sys = parse_system(text)
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
