import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpacontract.cpa import CPAMetric, unpack_symmetric
from cpacontract.systems import parse_system
from cpacontract.triangulation import (FACE_TOL, barycentric_weights,
                                       build_complex)

from reference import (
    NoForwardSimplexError,
    NotPositiveDefiniteError,
    constant_metric,
    forward_simplices,
    lm_value,
    metric_at,
    orbital_derivative_plus,
    pack_symmetric,
)


@pytest.fixture(scope="module")
def cx1():
    return build_complex([[[-2.0, 1.0]]], 2 * np.pi, 3)


def random_metric(cx, seed=0, base=1.0, spread=0.3):
    """Random vertex values with matrices comfortably positive definite."""
    rng = np.random.default_rng(seed)
    n = cx.n
    P = n * (n + 1) // 2
    vals = np.zeros((cx.n_slots, P))
    iu = np.triu_indices(n)
    for s in range(cx.n_slots):
        A = rng.normal(scale=spread, size=(n, n))
        M = base * np.eye(n) + 0.5 * (A + A.T)
        w = np.linalg.eigvalsh(M)
        if w.min() < 0.1:
            M += (0.1 - w.min()) * np.eye(n)
        vals[s] = M[iu]
    return CPAMetric(cx, vals)


def vertices(cx, sid):
    return cx.vert_xyz[cx.simp_verts[sid]]


def barycentric(cx, sid, point):
    return barycentric_weights(cx.Xinv[sid], vertices(cx, sid)[0], point)


class TestBarycentric:
    def test_vertex(self, small_complex):
        v = vertices(small_complex, 0)
        lam = barycentric(small_complex, 0, v[2])
        assert np.allclose(lam, [0.0, 0.0, 1.0], atol=1e-12)

    def test_centroid(self, small_complex):
        v = vertices(small_complex, 0)
        lam = barycentric(small_complex, 0, v.mean(axis=0))
        assert np.allclose(lam, 1.0 / 3.0, atol=1e-12)

    def test_outside(self, small_complex):
        v = vertices(small_complex, 0)
        assert barycentric(small_complex, 0,
                           v[0] + [0.0, 10.0]).min() < -FACE_TOL

    def test_partition_and_reproduction(self, cx1):
        rng = np.random.default_rng(5)
        for sid in rng.integers(0, cx1.n_simplices, size=20):
            v = vertices(cx1, sid)
            w = rng.dirichlet(np.ones(cx1.n + 2))
            p = w @ v
            lam = barycentric(cx1, sid, p)
            assert abs(lam.sum() - 1.0) <= 1e-10
            assert np.allclose(lam @ v, p, atol=1e-10)


class TestShapeGradient:
    """The entry gradients W of a CPA metric."""

    def test_constant_values(self, small_complex):
        assert np.all(constant_metric(small_complex, [[3.0]]).W == 0.0)

    def test_reference_example(self, small_complex):
        # the metric x on the unit cell has gradient (0, 1) in (t, x)
        x = small_complex.slot_coordinates()[:, 1:]
        W = CPAMetric(small_complex, x).W
        assert np.allclose(W, [0.0, 1.0], atol=1e-12)

    def test_base_vertex_invariance(self, cx1):
        cpa = random_metric(cx1, seed=1)
        for sid in range(0, cx1.n_simplices, 7):
            verts = cx1.vert_xyz[cx1.simp_verts[sid]]
            vals = cpa.vertex_values[sid]
            for base, rest in ((1, [0, 2]), (2, [0, 1])):
                w = np.linalg.solve(verts[rest] - verts[base],
                                    vals[rest] - vals[base])
                assert np.allclose(w.T, cpa.W[sid], atol=1e-10)

    def test_gradient_table_consistency(self, cx1):
        cpa = random_metric(cx1, seed=2)
        # recompute w from the defining linear system per simplex and entry
        rng = np.random.default_rng(2)
        for sid in rng.integers(0, cx1.n_simplices, size=25):
            X = cx1.X[int(sid)]
            vals = cpa.vertex_values[int(sid)]
            for p in range(vals.shape[1]):
                w = np.linalg.solve(X, vals[1:, p] - vals[0, p])
                assert np.allclose(w, cpa.W[int(sid), p], atol=1e-10)


class TestEvalMetric:
    def test_vertex_exact(self, cx1):
        cpa = random_metric(cx1, seed=3)
        vid = 17
        point = cx1.vert_xyz[vid]
        M = metric_at(cpa, point)
        expect = unpack_symmetric(cpa.values[cx1.vert_slot[vid]], cx1.n)
        assert np.allclose(M, expect, atol=1e-12)

    def test_edge_midpoint_average(self, small_complex):
        vals = np.array([[1.0], [4.0]])  # two slots
        cpa = CPAMetric(small_complex, vals)
        a, b = vertices(small_complex, 0)[:2]
        Ma = metric_at(cpa, a)[0, 0]
        Mb = metric_at(cpa, b)[0, 0]
        mid = metric_at(cpa, 0.5 * (a + b))[0, 0]
        assert mid == pytest.approx(0.5 * (Ma + Mb), abs=1e-12)

    def test_constant_field(self, cx1):
        cpa = constant_metric(cx1, np.eye(cx1.n))
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = [rng.uniform(0, 2 * np.pi), rng.uniform(-1.9, 0.9)]
            assert np.allclose(metric_at(cpa, p), np.eye(cx1.n), atol=1e-12)

    def test_affine_along_segments(self, cx1):
        cpa = random_metric(cx1, seed=6)
        rng = np.random.default_rng(6)
        for sid in rng.integers(0, cx1.n_simplices, size=10):
            w = rng.dirichlet(np.ones(cx1.n + 2), size=2)
            a, b = w @ vertices(cx1, sid)
            for alpha in (0.25, 0.5, 0.8):
                p = alpha * a + (1 - alpha) * b
                lhs = metric_at(cpa, p)
                rhs = (alpha * metric_at(cpa, a)
                       + (1 - alpha) * metric_at(cpa, b))
                assert np.allclose(lhs, rhs, atol=1e-10)

    def test_min_eig_dominated_by_vertices(self, cx1):
        # concavity of lambda_min: interior values stay above the vertex floor
        cpa = random_metric(cx1, seed=7, base=1.0)
        floor = min(np.linalg.eigvalsh(M).min()
                    for M in unpack_symmetric(cpa.values, cx1.n))
        rng = np.random.default_rng(7)
        sids = rng.integers(0, cx1.n_simplices, size=200)
        lam = rng.dirichlet(np.ones(cx1.n + 2), size=200)
        pts = np.einsum("sk,skd->sd", lam, cx1.vert_xyz[cx1.simp_verts[sids]])
        for p in pts:
            assert np.linalg.eigvalsh(metric_at(cpa, p)).min() >= floor - 1e-9


class TestOrbitalDerivative:
    def test_constant_metric_zero(self, cx1, linear_1d):
        cpa = constant_metric(cx1, np.eye(1))
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = [rng.uniform(0, 2 * np.pi), rng.uniform(-1.9, 0.9)]
            assert np.allclose(
                orbital_derivative_plus(cpa, linear_1d, p), 0.0, atol=1e-12)
        # negative control: a metric that varies along the flow
        assert not np.allclose(orbital_derivative_plus(
            random_metric(cx1, seed=8), linear_1d, p), 0.0, atol=1e-12)

    def test_pure_time_slope(self):
        # triangle wave in t with slope exactly 1 on the first slab:
        # the forward derivative there is w . f~ = 1 * 1, whatever f is
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        vals = np.zeros((cx.n_slots, 1))
        reps = cx.vert_xyz[cx.slot_rep]
        vals[reps[:, 0] == 0.5, 0] = 0.5
        for text in ("dim=1; period=1; f1 = -x1", "dim=1; period=1; f1 = 5"):
            sys = parse_system(text, check_periodic=False)
            cpa = CPAMetric(cx, vals)
            got = orbital_derivative_plus(cpa, sys, [0.2, 0.6])
            assert got[0, 0] == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _values_from_qualifying(cpa, sys, point):
        return [cpa.W[sid] @ ft
                for sid, _, ft in forward_simplices(cpa, sys, point)]

    def test_face_consistency_tangent_flow(self):
        # f = -x vanishes on the face x = 0, so the flow direction is
        # tangent there and both x-neighbors satisfy the forward property
        sys = parse_system("dim=1; period=1; f1 = -x1", check_periodic=False)
        cx = build_complex([[[-1.0, 1.0]]], 1.0, 1)
        cpa = random_metric(cx, seed=9)
        checked = 0
        for t in (0.1, 0.35, 0.6, 0.85):
            vals = self._values_from_qualifying(cpa, sys, [t, 0.0])
            if len(vals) >= 2:
                checked += 1
                for v in vals[1:]:
                    assert np.allclose(v, vals[0], atol=1e-10)
        assert checked >= 2

    def test_face_consistency_diagonal(self):
        # constant f = 1 runs along the cell diagonal, shared by the two
        # triangles of each cell
        sys = parse_system("dim=1; period=1; f1 = 0*x1 + 1",
                           check_periodic=False)
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        cpa = random_metric(cx, seed=10)
        checked = 0
        for a in (0.1, 0.3):
            point = [a, a]  # on the diagonal of a cell
            vals = self._values_from_qualifying(cpa, sys, point)
            if len(vals) >= 2:
                checked += 1
                for v in vals[1:]:
                    assert np.allclose(v, vals[0], atol=1e-10)
        assert checked >= 1

    def test_no_forward_simplex_at_outflow(self):
        # flow exits the domain on the right edge: x' = 1 at x = 1
        sys = parse_system("dim=1; period=1; f1 = 0*x1 + 1",
                           check_periodic=False)
        cx = build_complex([[[0.0, 1.0]]], 1.0, 0)
        cpa = constant_metric(cx, np.eye(1))
        with pytest.raises(NoForwardSimplexError):
            # the point sits on the boundary face x = 1 with outward flow
            orbital_derivative_plus(cpa, sys, [0.5, 1.0])


class TestLmValue:
    def _constant_setup(self, matrix, jac_text, n):
        sys = parse_system(jac_text, check_periodic=False)
        cx = build_complex([[[-1.0, 1.0]] * n], 1.0, 0)
        return sys, cx, constant_metric(cx, matrix)

    def test_identity(self):
        sys, cx, cpa = self._constant_setup(np.eye(1), "dim=1; period=1; f1 = -x1", 1)
        assert lm_value(cpa, sys, [0.3, 0.1]) == pytest.approx(-1.0, abs=1e-10)
        # negative control: the expanding field x' = x
        sys = parse_system("dim=1; period=1; f1 = x1", check_periodic=False)
        assert lm_value(cpa, sys, [0.3, 0.1]) == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance(self):
        sys, cx, cpa = self._constant_setup(2 * np.eye(1), "dim=1; period=1; f1 = -x1", 1)
        assert lm_value(cpa, sys, [0.3, 0.1]) == pytest.approx(-1.0, abs=1e-10)

    def test_generalized_pair(self):
        sys, cx, cpa = self._constant_setup(
            np.diag([1.0, 4.0]), "dim=2; period=1; f1 = -x1; f2 = -3*x2", 2)
        assert lm_value(cpa, sys, [0.5, 0.1, 0.1]) == pytest.approx(-1.0, abs=1e-10)

    def test_not_positive_definite(self):
        sys, cx, cpa = self._constant_setup(-np.eye(1), "dim=1; period=1; f1 = -x1", 1)
        with pytest.raises(NotPositiveDefiniteError):
            lm_value(cpa, sys, [0.3, 0.1])


class TestContraction:
    def test_unit_weights_match_vertex_reference(self, vdp):
        cx = build_complex([[[-1.0, 1.0], [-1.0, 1.0]]], vdp.T, 1)
        cpa = random_metric(cx, seed=4)
        n = cx.n
        sids = np.arange(0, cx.n_simplices, 7)
        unit = np.broadcast_to(np.eye(n + 2), (len(sids), n + 2, n + 2))
        pts, M, A = cpa.contraction(vdp, sids, unit)
        for i, sid in enumerate(sids):
            vals = cpa.values[cx.vert_slot[cx.simp_verts[sid]]]
            grads = np.linalg.solve(cx.X[sid], vals[1:] - vals[0]).T
            for k, x in enumerate(vertices(cx, sid)):
                Mk = unpack_symmetric(vals[k], n)
                J = vdp.jacobian(x)
                ft = np.concatenate(([1.0], vdp.f(x)))
                Mdot = unpack_symmetric(grads @ ft, n)
                ref = Mk @ J + J.T @ Mk + Mdot
                np.testing.assert_array_equal(pts[i, k], x)
                np.testing.assert_array_equal(M[i, k], Mk)
                np.testing.assert_allclose(A[i, k], ref, rtol=1e-12,
                                           atol=1e-12)

    def test_lm_value_from_contraction(self, vdp):
        # L_M at an interior point is half the generalized eigenvalue of
        # the contraction matrix there, with M from interpolation
        cx = build_complex([[[-1.0, 1.0], [-1.0, 1.0]]], vdp.T, 1)
        cpa = random_metric(cx, seed=5)
        point = np.array([0.3, 0.1, -0.2])
        M = metric_at(cpa, point)
        J = vdp.jacobian(point)
        A = M @ J + J.T @ M + orbital_derivative_plus(cpa, vdp, point)
        ref = 0.5 * np.linalg.eigvals(np.linalg.solve(M, A)).real.max()
        assert lm_value(cpa, vdp, point) == pytest.approx(ref, rel=1e-12,
                                                          abs=1e-12)


class TestPacking:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_pack_unpack_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        A = A + A.T
        assert np.allclose(unpack_symmetric(pack_symmetric(A), n), A)
