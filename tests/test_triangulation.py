import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from cpacontract import triangulation
from cpacontract.cpa import CPAMetric
from cpacontract.errors import DisconnectedRegionError, SingularSimplexError
from cpacontract.triangulation import (
    ScalingMatrix,
    _box_margin,
    _pair_violates_face_property,
    _permutation_patterns,
    build_complex,
    check_complex,
    simplex_geometry,
    unique_rows,
)

from reference import (
    S_star,
    check_face_property,
    metric_at,
    reference_shape_constant,
    s_star,
    unpack_symmetric,
)


class TestScaling:
    def test_leading_one_required(self):
        with pytest.raises(ValueError):
            ScalingMatrix((2.0, 1.0))
        with pytest.raises(ValueError):
            ScalingMatrix((1.0, -0.5))

    def test_derived_constants(self):
        s = ScalingMatrix.from_spatial([0.5, 2.0])
        assert s_star(s) == 0.5
        assert S_star(s) == pytest.approx(np.sqrt(3.0) * 2.0)
        assert S_star(s) >= np.sqrt(s.n + 1) * s_star(s)


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

    def test_stack_matches_single_simplices_and_mesh(self):
        cx = build_complex([[[-1.0, 1.0], [0.0, 0.5]]], 1.0, 1,
                           ScalingMatrix.from_spatial([0.7, 0.9]))
        verts = cx.vert_xyz[cx.simp_verts]
        stack = simplex_geometry(verts)
        singles = [simplex_geometry(v) for v in verts]
        for name, mesh in (("X", cx.X), ("Xinv", cx.Xinv), ("h", cx.h),
                           ("one_norm_inv", cx.Xinv_1norm)):
            got = getattr(stack, name)
            one = np.array([getattr(g, name) for g in singles])
            assert got.shape == one.shape == mesh.shape
            assert got.tobytes() == one.tobytes() == mesh.tobytes()


class TestUniqueRows:
    """`unique_rows` gives what `np.unique(axis=0)` gives, with its
    integer keys and with the lexsort that replaces them on overflow."""

    @staticmethod
    def _check(a):
        got = unique_rows(a)
        want = np.unique(a, axis=0, return_index=True, return_inverse=True,
                         return_counts=True)
        for x, y in zip(got, want):
            assert x.dtype.kind == y.dtype.kind
            assert np.array_equal(x, y.reshape(x.shape))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_random_rows(self, dtype):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 4):
            self._check(rng.integers(-5, 6, size=(500, k)).astype(dtype))

    def test_keys_that_would_overflow(self):
        rng = np.random.default_rng(4)
        a = rng.integers(-5, 6, size=(400, 3))
        a[:, 1] *= 2**40  # three columns whose spans multiply past 2^63
        a[:, 2] *= 2**30
        a[::7] = a[3]  # rows repeated, first seen at index 0
        self._check(a)
        self._check(np.array([[2**62, -2**62], [-2**62, 2**62],
                              [2**62, -2**62]]))


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
                    assert cx.h.max() <= S_star(scal) * 2.0 ** (-K) * cx.T
        # negative control: S* of the identity on a mesh stretched by 1.5
        cx = build_complex([[[0.0, 0.5]]], 1.0, 1,
                           ScalingMatrix.from_spatial([1.5]))
        assert cx.h.max() > S_star(ScalingMatrix.identity(1)) * 2.0**-1 * cx.T

    def test_inverse_norm_bound(self):
        for K in range(4):
            scal = ScalingMatrix.from_spatial([0.8])
            cx = build_complex([[[0.0, 1.0]]], 1.0, K, scal)
            cap = (2.0**K / (s_star(scal) * cx.T)
                   * reference_shape_constant(cx.n))
            assert cx.Xinv_1norm.max() <= cap * (1 + 1e-12)
        # negative control: s* of the identity on a mesh shrunk to 0.5
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1,
                           ScalingMatrix.from_spatial([0.5]))
        cap = 2.0 / (s_star(ScalingMatrix.identity(1)) * cx.T)  # K = 1
        assert cx.Xinv_1norm.max() > cap * reference_shape_constant(1)

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
        limit = cx.rho * s_star(cx.scaling) / 2.0
        pts = cx.vert_xyz
        for i in range(len(pts)):
            d = np.abs(pts[i + 1:] - pts[i]).max(axis=1)
            assert np.all(d > limit)

    def test_reference_constant(self):
        # the unit-cell shapes at n=1 both have inverse 1-norm 2
        assert reference_shape_constant(1) == pytest.approx(2.0)


def _locate_one(cx, point):
    sids, lam = cx.locate_many([point])
    return sids[0], lam[0]


class TestLocation:
    def test_locate_and_containing(self):
        cx = build_complex([[[-2.0, 1.0]]], 2 * np.pi, 3)
        sid, lam = _locate_one(cx, [1.0, -0.5])
        assert lam.min() >= -1e-9
        assert abs(lam.sum() - 1.0) <= 1e-10
        verts = cx.vert_xyz[cx.simp_verts[sid]]
        assert np.allclose(lam @ verts, [1.0, -0.5], atol=1e-10)

    def test_wrap_time(self):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        sid, _ = _locate_one(cx, [1.0 + 0.25, 0.5])  # t wraps to 0.25
        sid2, _ = _locate_one(cx, [0.25, 0.5])
        assert sid == sid2

    def test_outside(self):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        assert _locate_one(cx, [0.5, 3.0])[0] == -1

    def test_shared_face_multiple_hits(self):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 0)
        hits = cx.containing([0.5, 0.5])  # on the shared diagonal
        assert len(hits) == 2

    @pytest.mark.parametrize("region, T, K", [
        ([[[-2.0, 1.0]]], 2 * np.pi, 3),
        ([[[-1.0, 0.7], [-0.5, 0.6]]], 1.0, 1),
    ])
    def test_one_location_rule(self, region, T, K):
        # vertices, facet centroids and edge midpoints lie on shared faces:
        # `locate_many` on one point and on the batch, and the metric
        # there, pick the same simplex and the same weights, bit for bit
        cx = build_complex(region, T, K)
        faces = cx.vert_xyz[cx.simp_verts]
        points = np.vstack([cx.vert_xyz, faces[:, 1:].mean(axis=1),
                            faces[:, :2].mean(axis=1)])
        rng = np.random.default_rng(K)
        P = cx.n * (cx.n + 1) // 2
        cpa = CPAMetric(cx, rng.uniform(0.5, 1.5, (cx.n_slots, P)))
        sids, lams = cx.locate_many(points)
        assert (sids >= 0).all()
        entries = cpa.interpolate_batch(sids, lams)
        for p, sid, lam, vals in zip(points, sids, lams, entries):
            one_sid, one_lam = _locate_one(cx, p)
            assert one_sid == sid
            assert one_lam.tobytes() == lam.tobytes()
            assert metric_at(cpa, p).tobytes() == \
                unpack_symmetric(vals, cx.n).tobytes()

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
        # negative control: two triangles on one edge that overlap
        assert check_face_property(verts, [[0, 1, 2], [0, 1, 3]]) != []

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


def _lp_margin(points, box):
    """Reference for `_box_margin`: the largest delta with a convex
    combination of `points` in [lo + delta, hi - delta], by HiGHS."""
    m, n = points.shape
    a_ub = np.block([[points.T, np.ones((n, 1))],
                     [-points.T, np.ones((n, 1))]])
    res = linprog(np.append(np.zeros(m), -1.0), A_ub=a_ub,
                  b_ub=np.concatenate([box[:, 1], -box[:, 0]]),
                  A_eq=np.append(np.ones(m), 0.0)[None], b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    assert res.status == 0
    return res.x[-1]


def _kuhn_x_vertices(cell, patt, sizes):
    """x-coordinates of the Kuhn simplex of pattern `patt` in `cell`,
    reflected where the cell is negative, as `build_complex` makes them."""
    x = patt[:, 1:]
    return np.where(cell >= 0, cell + x, cell + 1 - x) * sizes


class TestClosedFormSelection:
    """`_box_margin` against a linear program over barycentric weights,
    and the kept simplices of the meshes whose selection needs it."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_margin_matches_lp(self, n):
        rng = np.random.default_rng(100 + n)
        _, patts = _permutation_patterns(n)
        verdicts = set()
        for _ in range(150):
            cell = rng.integers(-4, 4, n)
            patt = patts[rng.integers(len(patts))]
            sizes = 2.0 ** -rng.integers(0, 4) * rng.uniform(0.5, 1.5, n)
            lo = (cell + rng.uniform(-0.6, 1.2, n)) * sizes
            hi = lo + rng.uniform(0.05, 1.5, n) * sizes
            if rng.random() < 0.3:      # box edges on cell facets
                lo = np.where(rng.random(n) < 0.5, cell * sizes, lo)
                hi = np.maximum(hi, lo + sizes)
            box = np.column_stack([lo, hi])
            pts = _kuhn_x_vertices(cell, patt, sizes)
            scale = max(1.0, np.abs(pts).max(), np.abs(box).max())
            on = patt[None, :, 1:].sum(axis=1)
            delta = _box_margin(cell[None], on, sizes, box)[0]
            ref = _lp_margin(pts, box)
            assert abs(delta - ref) <= 1e-12 * scale, (cell, patt, box)
            margin = 1e-12 * scale
            assert (delta > margin) == (ref > margin)
            verdicts.add(bool(delta > margin))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("region, T, K, spatial", [
        ([[[0.0, 0.5]] * n], 1.0, K, [s] * n)
        for n in (1, 2) for K in range(3) for s in (1.0, 0.7)
    ] + [([[[0.4, 0.45]]], 6.283185307179586, 4, [1.0]),
         ([[[0.0, 0.5000000000000001]]], 1.0, 2, [1.0])])
    def test_kept_sets_match_lp_selection(self, region, T, K, spatial):
        # the meshes of test_diameter_bound_exact and test_cli.py's
        # test_empty_selection, and a box one ulp past a cell facet, whose
        # vertex at 0.5 lies inside it: every simplex of a cell whose
        # closure meets the region is kept iff the LP margin in some box
        # exceeds the selection margin
        cx = build_complex(region, T, K, ScalingMatrix.from_spatial(spatial))
        boxes, sizes = [np.array(b) for b in region], cx.cell_sizes[1:]
        lo = np.min([b[:, 0] for b in boxes], axis=0) / sizes
        hi = np.max([b[:, 1] for b in boxes], axis=0) / sizes
        ranges = [range(int(np.floor(a)) - 1, int(np.ceil(b)) + 2)
                  for a, b in zip(lo, hi)]
        cells = [np.array(c) for c in itertools.product(*ranges)
                 if any(np.all((np.array(c) * sizes <= b[:, 1])
                               & ((np.array(c) + 1) * sizes >= b[:, 0]))
                        for b in boxes)]
        corners = np.array(cells)
        scale = max(1.0, np.abs(corners * sizes).max(),
                    np.abs((corners + 1) * sizes).max())
        _, patts = _permutation_patterns(cx.n)
        expect = {(*c, p) for c in cells for p, patt in enumerate(patts)
                  if max(_lp_margin(_kuhn_x_vertices(c, patt, sizes), b)
                         for b in boxes) > 1e-12 * scale}
        slab0 = cx.simp_gen[cx.simp_gen[:, 0] == 0, 1:]
        assert {tuple(int(v) for v in g) for g in slab0} == expect


def _lp_face_violation(va, vb):
    """Reference for the face property: some common point of co(va) and
    co(vb) puts weight above 1e-7 on a vertex the two do not share. One
    linear program maximizes the unshared weight over every pair of
    barycentric weights that names a common point."""
    def shared(u, w):
        return np.array([np.abs(w - x).max(axis=1).min() <= 1e-9 for x in u])

    p, q = len(va), len(vb)
    a_eq = np.zeros((va.shape[1] + 2, p + q))
    a_eq[0, :p] = a_eq[1, p:] = 1.0
    a_eq[2:, :p], a_eq[2:, p:] = va.T, -vb.T
    unshared = ~np.concatenate([shared(va, vb), shared(vb, va)])
    res = linprog(-unshared.astype(float), A_eq=a_eq,
                  b_eq=np.r_[1.0, 1.0, np.zeros(va.shape[1])],
                  bounds=[(0, None)] * (p + q), method="highs")
    return res.status == 0 and -res.fun > 1e-7


class TestFaceCheckRankDeficient:
    """Pairs whose joint barycentric system has dependent rows: the
    restrictions to the plane where the bounding boxes touch, or the
    simplices themselves, lie in a common tilted subspace."""

    # two tetrahedra on either side of t = 0 that touch it in an edge
    # each, both on the diagonal x1 = x2, overlapping from (1, 1) to (2, 2)
    TETRA_A = [[0, 0, 0], [0, 2, 2], [-1, 2, 0], [-1, 0, 2]]
    TETRA_B = [[0, 1, 1], [0, 3, 3], [1, 3, 1], [1, 1, 3]]

    def test_violation_reported(self):
        verts = np.array(self.TETRA_A + self.TETRA_B, dtype=float)
        simplex_geometry(verts.reshape(2, 4, 3))  # raises if one is flat
        assert check_face_property(verts, [[0, 1, 2, 3], [4, 5, 6, 7]]) \
            == [(0, 1)]
        assert _lp_face_violation(verts[:4], verts[4:])

    def test_vertex_inside_an_edge(self):
        # B touches t = 0 in one vertex, the midpoint of A's edge there:
        # three points span fewer than the four rows of the system
        a = [[0, 0, 0], [0, 2, 2], [-1, 2, 0], [-1, 0, 3]]
        b = [[0, 1, 1], [1, 3, 0], [1, 0, 3], [1, 3, 3]]
        verts = np.array(a + b, dtype=float)
        simplex_geometry(verts.reshape(2, 4, 3))  # raises if one is flat
        assert check_face_property(verts, [[0, 1, 2, 3], [4, 5, 6, 7]]) \
            == [(0, 1)]
        assert _lp_face_violation(verts[:4], verts[4:])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_flat_pairs_match_lp(self, dim):
        # segments on the line x2 = 2 x1 + c in the plane, triangles on
        # the plane x3 = x1 + x2 + c in space: every pair that meets has a
        # rank-deficient system, inconsistent when the two c differ
        rng = np.random.default_rng(dim)

        def lift(u, c):
            u = np.asarray(u, dtype=float)
            return np.column_stack([u, 2 * u[:, 0] + c]) if dim == 2 else \
                np.column_stack([u, u.sum(axis=1) + c])

        verdicts = []
        while len(verdicts) < 80:
            u = rng.integers(0, 4, (2 * dim, dim - 1))
            a, b = lift(u[:dim], 0), lift(u[dim:], rng.random() < 0.25)
            if dim == 3 and (np.linalg.matrix_rank(a[1:] - a[0]) < 2 or
                             np.linalg.matrix_rank(b[1:] - b[0]) < 2):
                continue
            if dim == 2 and (np.all(a[0] == a[1]) or np.all(b[0] == b[1])):
                continue
            verdict = _pair_violates_face_property(a, b)
            assert verdict == _lp_face_violation(a, b), (a, b)
            verdicts.append(verdict)
        assert 10 <= sum(verdicts) <= 70

    def test_pipeline_mesh_matches_lp(self, monkeypatch):
        # the rank-deficient pairs of the 3-D mesh of test_pipeline_3d.py
        # all keep the face property
        cx = build_complex([[[0.05, 0.95]] * 3], 1.0, 0)
        dropped, calls = [], []
        rows_of = triangulation._independent_rows
        check = triangulation._pair_violates_face_property

        def independent_rows(E):
            rows = rows_of(E)
            dropped.append(len(rows) < len(E))
            return rows

        def spy(va, vb):
            dropped.clear()
            verdict = check(va, vb)
            if any(dropped):
                calls.append((va, vb, verdict))
            return verdict

        monkeypatch.setattr(triangulation, "_independent_rows",
                            independent_rows)
        monkeypatch.setattr(triangulation, "_pair_violates_face_property", spy)
        report = check_complex(cx)
        assert report.ok and report.pairs_checked == 852
        assert len(calls) >= 60
        for va, vb, verdict in calls:
            assert not verdict
            assert not _lp_face_violation(va, vb)
