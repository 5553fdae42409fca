import math

import numpy as np
import pytest

from cpacontract.errors import (
    DisconnectedRegionError,
    OutsideDomainError,
    SingularSimplexError,
)
from cpacontract.triangulation import (
    ScalingMatrix,
    build_complex,
    check_complex,
    check_face_property,
    reference_shape_constant,
    simplex_geometry,
)


class TestScaling:
    def test_leading_one_required(self):
        with pytest.raises(ValueError):
            ScalingMatrix((2.0, 1.0))
        with pytest.raises(ValueError):
            ScalingMatrix((1.0, -0.5))

    def test_derived_constants(self):
        s = ScalingMatrix.from_spatial([0.5, 2.0])
        assert s.s_star == 0.5
        assert s.S_star == pytest.approx(np.sqrt(3.0) * 2.0)
        assert s.S_star >= np.sqrt(s.n + 1) * s.s_star


class TestGeometry:
    def test_reference_triangle(self):
        g = simplex_geometry([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(g.X, [[1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(g.Xinv, [[1.0, 0.0], [-1.0, 1.0]])
        assert g.one_norm_inv == pytest.approx(2.0)
        assert g.h == pytest.approx(np.sqrt(2.0))

    def test_scaled_triangle(self):
        rho = 0.5
        g = simplex_geometry(rho * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        assert g.one_norm_inv == pytest.approx(4.0)
        assert g.h == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_duplicate_vertex(self):
        with pytest.raises(SingularSimplexError):
            simplex_geometry([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])

    def test_near_degenerate(self):
        with pytest.raises(SingularSimplexError):
            simplex_geometry([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]])


class TestBuild:
    def test_unit_cell_counts(self, small_complex):
        cx = small_complex
        assert cx.n_simplices == 2
        assert cx.n_vertices == 4
        assert cx.n_slots == 2
        # pairing identifies (0, x) with (T, x)
        assert len(cx.pairing) == 2
        for a, b in cx.pairing:
            assert cx.vert_q[a, 0] == 0 and cx.vert_q[b, 0] == 1
            assert cx.vert_q[a, 1] == cx.vert_q[b, 1]
            assert cx.vert_slot[a] == cx.vert_slot[b]

    def test_k1_counts(self):
        cx = build_complex([[[0.0, 1.0]]], T=1.0, K=1)
        assert cx.rho == 0.5
        assert cx.n_simplices == 8  # 2 * (T/rho) * (1/rho)

    def test_simplices_per_cell_factorial(self):
        for n in (1, 2):
            cx = build_complex([[[0.0, 1.0]] * n], T=1.0, K=0)
            cells = {tuple(g[:-1]) for g in cx.simp_gen}
            per_cell = cx.n_simplices / len(cells)
            assert per_cell == math.factorial(n + 1)

    def test_disconnected_region(self):
        with pytest.raises(DisconnectedRegionError):
            build_complex([[[0.0, 1.0]], [[3.0, 4.0]]], T=1.0, K=0)

    def test_face_adjacent_boxes_allowed(self):
        cx = build_complex([[[0.0, 1.0]], [[1.0, 2.0]]], T=1.0, K=0)
        assert cx.n_simplices == 4

    def test_region_with_negative_coordinates(self):
        cx = build_complex([[[-1.0, 1.0]]], T=1.0, K=1)
        assert cx.n_simplices == 16
        assert check_complex(cx).ok

    def test_empty_interior_rejected(self):
        with pytest.raises(ValueError):
            build_complex([[[0.0, 0.0]]], T=1.0, K=0)

    def test_diameter_bound_exact(self):
        for n in (1, 2):
            for K in range(3):
                for sdiag in ([1.0] * n, [0.7] * n):
                    scal = ScalingMatrix.from_spatial(sdiag)
                    cx = build_complex([[[0.0, 0.5]] * n], 1.0, K, scal)
                    assert cx.h.max() <= scal.S_star * 2.0 ** (-K) * cx.T

    def test_inverse_norm_bound(self):
        for K in range(4):
            scal = ScalingMatrix.from_spatial([0.8])
            cx = build_complex([[[0.0, 1.0]]], 1.0, K, scal)
            cap = 2.0**K / (scal.s_star * cx.T) * cx.X_star
            assert cx.Xinv_1norm.max() <= cap * (1 + 1e-12)

    def test_scaling_law_across_levels(self):
        for n in (1, 2):
            vals = []
            for K in range(5):
                cx = build_complex([[[0.0, 1.0]] * n], 1.0, K)
                vals.append(cx.Xinv_1norm.max() * 2.0 ** (-K))
            rel = np.ptp(vals) / vals[0]
            assert rel <= 1e-10

    def test_vertex_dedup_spacing(self):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 2,
                           ScalingMatrix.from_spatial([0.9]))
        limit = cx.rho * cx.scaling.s_star / 2.0
        pts = cx.vert_xyz
        for i in range(len(pts)):
            d = np.abs(pts[i + 1:] - pts[i]).max(axis=1)
            assert np.all(d > limit)

    def test_reference_constant(self):
        # the unit-cell shapes at n=1 both have inverse 1-norm 2
        assert reference_shape_constant(1) == pytest.approx(2.0)


class TestLocation:
    def test_locate_and_containing(self):
        cx = build_complex([[[-2.0, 1.0]]], 2 * np.pi, 3)
        sid, lam = cx.locate([1.0, -0.5])
        assert lam.min() >= -1e-9
        assert abs(lam.sum() - 1.0) <= 1e-10
        verts = cx.vert_xyz[cx.simp_verts[sid]]
        assert np.allclose(lam @ verts, [1.0, -0.5], atol=1e-10)

    def test_wrap_time(self):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        sid, _ = cx.locate([1.0 + 0.25, 0.5])  # t wraps to 0.25
        sid2, _ = cx.locate([0.25, 0.5])
        assert sid == sid2

    def test_outside(self):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        with pytest.raises(OutsideDomainError):
            cx.locate([0.5, 3.0])

    def test_shared_face_multiple_hits(self):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 0)
        hits = cx.containing([0.5, 0.5])  # on the shared diagonal
        assert len(hits) == 2

    @staticmethod
    def _brute_force(cx, point, tol=1e-9):
        """Every simplex of the complex, one barycentric solve each."""
        p = np.array(point, dtype=float)
        p[0] = cx.wrap_time(p[0])
        hits = []
        for sid in range(cx.n_simplices):
            lam = cx.Xinv[sid].T @ (p - cx.vert_xyz[cx.simp_verts[sid, 0]])
            lam = np.concatenate(([1.0 - lam.sum()], lam))
            if lam.min() >= -tol:
                hits.append((sid, lam))
        return hits

    @pytest.mark.parametrize("region, K", [
        ([[[-1.0, 0.7]]], 3),
        ([[[-1.0, 0.7], [-0.5, 0.6]]], 1),
        ([[[-1.0, 0.0], [-1.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]], 1),  # L
        ([[[-1.0, 0.7]] * 3], 0),
    ])
    def test_location_matches_brute_force(self, region, K):
        cx = build_complex(region, 1.0, K)
        n = cx.n
        rng = np.random.default_rng(K + 10 * n)
        box = np.array(region[0])
        inside = np.column_stack([rng.uniform(0.0, 1.0, 40),
                                  rng.uniform(box[:, 0], box[:, 1], (40, n))])
        shifted = inside[:12] + np.outer([-1.0, 1.0, 2.0, 1.0] * 3,
                                         np.eye(n + 1)[0])   # t < 0, t >= T
        verts = cx.vert_xyz[rng.choice(cx.n_vertices, 20, replace=False)]
        faces = cx.vert_xyz[cx.simp_verts[rng.choice(cx.n_simplices, 20)]]
        facets = faces[:, 1:].mean(axis=1)       # centroids of shared facets
        edges = faces[:, :2].mean(axis=1)        # midpoints of shared edges
        outside = np.column_stack([rng.uniform(-2.0, 2.0, 12),
                                   rng.choice([-1.0, 1.0], (12, n))
                                   * rng.uniform(1.1, 50.0, (12, n))])
        points = np.vstack([inside, shifted, verts, facets, edges, outside])
        sids, lams = cx.locate_many(points)
        for p, sid, lam in zip(points, sids, lams):
            expect = self._brute_force(cx, p)
            got = cx.containing(p)
            assert [s for s, _ in got] == [s for s, _ in expect]
            for (_, a), (_, b) in zip(got, expect):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
            if not expect:
                assert sid == -1 and not lam.any()
            else:
                np.testing.assert_allclose(lam, dict(expect)[sid],
                                           rtol=0, atol=1e-14)
        assert (sids == -1).sum() >= len(outside)
        assert (sids[:len(inside)] >= 0).all()


class TestValidation:
    @pytest.mark.parametrize("K", range(4))
    def test_built_complexes_clean(self, K):
        cx = build_complex([[[0.0, 1.0]]], 1.0, K)
        report = check_complex(cx)
        assert report.ok, (report.face_violations, report.unpaired_vertices)

    def test_partial_edge_violation(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                          [0.5, 0.0], [1.5, 0.0], [1.0, -1.0]])
        viol = check_face_property(verts, [[0, 1, 2], [3, 4, 5]])
        assert viol == [(0, 1)]

    def test_overlapping_triangles(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                          [1.0, 1.0], [3.0, 1.0], [1.0, 3.0]])
        assert check_face_property(verts, [[0, 1, 2], [3, 4, 5]])

    def test_proper_shared_edge_ok(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert check_face_property(verts, [[0, 1, 2], [0, 2, 3]]) == []

    def test_shared_vertex_only_ok(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                          [-1.0, 0.0], [0.0, -1.0]])
        assert check_face_property(verts, [[0, 1, 2], [0, 3, 4]]) == []

    def test_corrupted_pairing_detected(self):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        cx.vert_q = cx.vert_q.copy()
        victims = np.nonzero(cx.vert_q[:, 0] == 0)[0]
        cx.vert_q[victims[0], 1] += 7  # no t=T twin at the new x
        report = check_complex(cx)
        assert report.unpaired_vertices

    def test_cover_confirmation(self):
        cx = build_complex([[[-1.0, 0.5]]], 1.0, 2)
        report = check_complex(cx)
        assert report.cover_ok
