import numpy as np
import pytest
import scipy.sparse as sp

from cpacontract.assembly import (
    assemble,
    enu_coefficient_arrays,
    export_sdpa,
    fill_derivative_bounds,
    parse_sdpa,
    stack_problem,
    svec,
    unsvec,
)
from cpacontract.cpa import CPAMetric, sym_basis, unpack_symmetric
from cpacontract.errors import MissingBoundsError
from cpacontract.systems import parse_system
from cpacontract.triangulation import build_complex


def direct_block_svecs(cx, sys, y, vmap, a_C, a_D, eps0):
    """Independent evaluation of every constraint block from a CPA metric
    built out of y; returns per-family svec arrays in block order."""
    n = cx.n
    P = n * (n + 1) // 2
    cpa = CPAMetric.from_solution(cx, y, vmap)
    S, v = cx.n_simplices, cx.n_slots
    uniform = vmap.uniform

    def c_of(nu):
        return y[vmap.c_index(0 if uniform else nu)]

    def d_of(nu):
        return y[vmap.d_index(0 if uniform else nu)]

    out = {}
    slot_mats = unpack_symmetric(cpa.values, n)
    # bound_M
    rows = []
    if uniform:
        for u in range(v):
            rows.append(svec(c_of(0) * np.eye(n) - slot_mats[u]))
    else:
        for nu in range(S):
            for k in range(n + 2):
                u = cx.vert_slot[cx.simp_verts[nu, k]]
                rows.append(svec(c_of(nu) * np.eye(n) - slot_mats[u]))
    out["bound_M"] = np.concatenate(rows)
    # grad_bound, order (simplex, entry, component, sign)
    rows = []
    for nu in range(S):
        for p in range(P):
            for l in range(n + 1):
                for sign in (1.0, -1.0):
                    rows.append(d_of(nu) / (n + 1.0)
                                + sign * cpa.W[nu, p, l])
    out["grad_bound"] = np.asarray(rows)
    # pos_def
    rows = [svec(slot_mats[u] - eps0 * np.eye(n)) for u in range(v)]
    out["pos_def"] = np.concatenate(rows)
    # contraction
    rows = []
    for nu in range(S):
        for k in range(n + 2):
            vert = cx.simp_verts[nu, k]
            pt = cx.vert_xyz[vert]
            J = sys.jacobian(pt)
            ft = np.concatenate([[1.0], sys.f(pt)])
            M = slot_mats[cx.vert_slot[vert]]
            Mdot = unpack_symmetric(cpa.W[nu] @ ft, n)
            E = a_C[nu] * c_of(nu) + a_D[nu] * d_of(nu)
            rows.append(svec(-(M @ J + J.T @ M + Mdot + (E + 1.0) * np.eye(n))))
    out["contraction"] = np.concatenate(rows)
    return out


class TestECoefficients:
    def test_c2_example(self, small_complex, linear_1d):
        cx = small_complex
        cx.B2 = np.ones(cx.n_simplices)
        cx.h = np.full(cx.n_simplices, 0.25)
        a_C, a_D = enu_coefficient_arrays(cx, linear_1d.smoothness)
        assert a_D[0] == pytest.approx(np.sqrt(2.0) / 16.0)
        assert a_C[0] == pytest.approx(1.0)

    def test_affine_vanishes(self):
        sys = parse_system("dim=1; period=1; f1 = -x1")
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        fill_derivative_bounds(cx, sys)
        a_C, a_D = enu_coefficient_arrays(cx, "C2")
        assert np.all(a_C == 0.0) and np.all(a_D == 0.0)

    def test_c3_example(self):
        sys = parse_system("dim=1; period=1; smoothness=c3; f1 = -x1")
        cx = build_complex([[[0.0, 1.0]]], 1.0, 0)
        cx.B2 = np.ones(cx.n_simplices)
        cx.B3 = np.zeros(cx.n_simplices)
        cx.h = np.ones(cx.n_simplices)
        a_C, a_D = enu_coefficient_arrays(cx, sys.smoothness)
        assert a_D[0] == pytest.approx(5.0 * np.sqrt(2.0))
        assert a_C[0] == 0.0

    def test_missing_bounds(self, linear_1d):
        cx = build_complex([[[0.0, 1.0]]], 1.0, 0)
        with pytest.raises(MissingBoundsError):
            enu_coefficient_arrays(cx, linear_1d.smoothness)

    def test_bound_cache_tracks_system(self):
        from cpacontract.assembly import ensure_derivative_bounds
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        affine = parse_system("dim=1; period=1; f1 = -x1")
        cubic = parse_system("dim=1; period=1; f1 = -x1 + x1^3",
                             check_periodic=False)
        ensure_derivative_bounds(cx, affine)
        assert np.all(cx.B2 == 0.0)
        ensure_derivative_bounds(cx, cubic)
        assert np.any(cx.B2 > 0.0)


class TestAssemble:
    def test_variable_count_formula(self, linear_1d):
        cx = build_complex([[[-1.0, 1.0]]], linear_1d.T, 2)
        prob, vmap = assemble(cx, linear_1d, 0.01, uniform_cd=False,
                              objective="none")
        s, v = cx.n_simplices, cx.n_slots
        assert prob.m == 2 * s + 1 * v
        assert vmap.m == prob.m

    def test_block_census_per_simplex(self):
        for text, n in ((r"dim=1; period=1; f1 = -x1", 1),
                        (r"dim=2; period=1; f1 = x2; f2 = -x1", 2)):
            sys = parse_system(text, check_periodic=False)
            for K in (0, 1, 2):
                cx = build_complex([[[0.0, 1.0]] * n], 1.0, K)
                prob, _ = assemble(cx, sys, 0.01, uniform_cd=False,
                                   objective="none")
                s, v = cx.n_simplices, cx.n_slots
                census = prob.census()
                assert census["grad_bound"] == (1, n * (n + 1) ** 2 * s)
                size_n = (census["bound_M"][1] + census["pos_def"][1]
                          + census["contraction"][1])
                assert size_n == v + 2 * (n + 2) * s
                assert census["bound_M"][0] == n
                assert prob.m == 2 * s + n * (n + 1) // 2 * v

    def test_eps0_rejected(self, linear_1d):
        cx = build_complex([[[0.0, 1.0]]], linear_1d.T, 0)
        with pytest.raises(ValueError):
            assemble(cx, linear_1d, 0.0)

    def test_uniform_mode_counts(self, linear_1d):
        cx = build_complex([[[-1.0, 1.0]]], linear_1d.T, 2)
        prob, vmap = assemble(cx, linear_1d, 0.01, uniform_cd=True,
                              objective="min_c")
        assert prob.m == cx.n_slots + 2
        census = prob.census()
        assert census["bound_M"][1] == cx.n_slots
        assert np.count_nonzero(prob.c) == 1

    def test_cmax_mode(self, linear_1d):
        cx = build_complex([[[0.0, 1.0]]], linear_1d.T, 1)
        prob, vmap = assemble(cx, linear_1d, 0.01, uniform_cd=False,
                              objective="min_c")
        assert prob.m == 2 * cx.n_simplices + cx.n_slots + 1
        assert prob.census()["cmax_link"] == (1, cx.n_simplices)
        assert prob.c[vmap.cmax_index] == 1.0


class TestNoExplicitZeros:
    """`stack_problem` drops the families' explicit zeros, so A stores only
    entries that a product with it needs."""

    @pytest.mark.parametrize("text, region, K", [
        ("dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
         [[[-2.0, 1.0]]], 3),
        ("dim=2; period=6.283185307179586; f1 = x2; f2 = -x1 - 2*x2 + sin(t)",
         [[[-0.5, 0.5], [-0.5, 0.5]]], 1),
        ("dim=3; period=1; f1 = -x1 + 1.5*x2 + 0.2*x2*x3; "
         "f2 = -x2 + 1.5*x3 - 0.2*x1*x3; f3 = -x3 + 0.2*x1*x2",
         [[[-0.5, 0.5]] * 3], 0),
    ])
    def test_assembled_meshes(self, text, region, K):
        sys = parse_system(text)
        cx = build_complex(region, sys.T, K)
        for uniform, objective in ((True, "min_c"), (False, "none")):
            prob, _ = assemble(cx, sys, 0.01, uniform_cd=uniform,
                               objective=objective)
            assert (prob.A.data != 0).all()

    def test_hand_built_explicit_zero(self):
        # y1 I2 + 0 y2 on the first diagonal entry, stored explicitly
        A = sp.csr_matrix((np.array([1.0, 0.0, 1.0]), np.array([0, 1, 0]),
                           np.array([0, 2, 2, 3])), shape=(3, 2))
        assert A.nnz == 3
        prob = stack_problem([("b", 2, 1, A, svec(np.eye(2)), np.array([-1]),
                               np.array([-1]))], np.zeros(2), 2)
        assert (prob.A.data != 0).all()
        assert prob.A.nnz == 2
        assert np.array_equal(prob.A.toarray(), A.toarray())


class TestResidual:
    def test_zero_gives_minus_f0(self, solved_linear):
        prob = solved_linear["problem"]
        y0 = np.zeros(prob.m)
        # a positive-definiteness block: -F0 = -eps0 I
        base = sum(g.count for g in prob.groups[:2])
        R = prob.residual(y0, base)
        assert np.allclose(R, -0.01 * np.eye(1))

    def test_unit_vector_linearity(self, solved_linear):
        prob = solved_linear["problem"]
        rng = np.random.default_rng(0)
        for bidx in rng.integers(0, prob.n_blocks, size=10):
            e = np.zeros(prob.m)
            j = int(rng.integers(prob.m))
            e[j] = 1.0
            lhs = prob.residual(e, int(bidx))
            rhs = (prob.residual(np.zeros(prob.m), int(bidx))
                   + (prob.residual(2 * e, int(bidx))
                      - prob.residual(e, int(bidx))))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matches_direct_cpa_evaluation(self, linear_1d):
        cx = build_complex([[[-2.0, 1.0]]], linear_1d.T, 2)
        prob, vmap = assemble(cx, linear_1d, 0.01, uniform_cd=False,
                              objective="none")
        a_C, a_D = prob.meta["a_C"], prob.meta["a_D"]
        rng = np.random.default_rng(42)
        for _ in range(5):
            y = rng.normal(size=prob.m)
            direct = direct_block_svecs(cx, linear_1d, y, vmap, a_C, a_D, 0.01)
            res = prob.A @ y - prob.f0
            for g in prob.groups:
                got = res[g.rows]
                assert np.max(np.abs(got - direct[g.family])) <= 1e-10

    def test_constraint3_implies_w_norm(self, solved_linear):
        # a feasible point satisfies |w|_1 <= D by direct summation
        sol, vmap, cpa = (solved_linear["sol"], solved_linear["vmap"],
                          solved_linear["cpa"])
        _, D = vmap.bound_constants(sol.y)
        norms = np.abs(cpa.W).sum(axis=2)
        assert norms.max() <= D + 1e-7


class TestSdpaFormat:
    def test_single_variable_example(self):
        # y * I2 - I2 >= 0 written by hand through the block-group layout
        import scipy.sparse as sp
        from cpacontract.assembly import stack_problem
        A = sp.csr_matrix(svec(np.eye(2))[:, None])
        prob = stack_problem([("b", 2, 1, A, svec(np.eye(2)), np.array([-1]),
                               np.array([-1]))], np.zeros(1), 2)
        text = export_sdpa(prob)
        lines = text.strip().splitlines()
        assert lines[0] == "1"
        assert lines[1] == "1"
        assert lines[2] == "2"
        assert lines[3] == "0.0"
        assert lines[4:] == ["0 1 1 1 1.0", "0 1 2 2 1.0",
                             "1 1 1 1 1.0", "1 1 2 2 1.0"]

    def test_round_trip(self, linear_1d):
        cx = build_complex([[[0.0, 1.0]]], linear_1d.T, 1)
        prob, _ = assemble(cx, linear_1d, 0.01, uniform_cd=False,
                           objective="none")
        text = export_sdpa(prob)
        parsed = parse_sdpa(text)
        assert parsed["m"] == prob.m
        assert sum(abs(b) for b in parsed["block_sizes"]) \
            == sum(g.size * g.count if g.size > 1 else g.count
                   for g in prob.groups)
        # bit-exact value strings under re-export
        text2 = export_sdpa(prob)
        assert text == text2
        entries1 = {(e[0], e[1], e[2], e[3]): e[4] for e in parsed["entries"]}
        parsed2 = parse_sdpa(text2)
        entries2 = {(e[0], e[1], e[2], e[3]): e[4] for e in parsed2["entries"]}
        assert entries1 == entries2

    def test_parse_reconstructs_coefficients(self, linear_1d):
        cx = build_complex([[[0.0, 1.0]]], linear_1d.T, 0)
        prob, _ = assemble(cx, linear_1d, 0.01, uniform_cd=False,
                           objective="none")
        parsed = parse_sdpa(export_sdpa(prob))
        # rebuild F matrices per variable from entries and compare one block
        # against the residual of a unit vector
        for var in (1, prob.m):
            e = np.zeros(prob.m)
            e[var - 1] = 1.0
            diff = {}
            for (i, b, r, c2, s) in parsed["entries"]:
                if i == var:
                    diff[(b, r, c2)] = float(s)
            assert diff  # every variable appears somewhere


def test_svec_inner_product_consistency():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        A = rng.normal(size=(n, n)); A = A + A.T
        B = rng.normal(size=(n, n)); B = B + B.T
        assert svec(A) @ svec(B) == pytest.approx(np.sum(A * B))
        assert np.allclose(unsvec(svec(A), n), A)


def test_sym_basis_spans():
    for n in (1, 2, 3):
        basis = sym_basis(n)
        assert basis.shape[0] == n * (n + 1) // 2
        iu = np.triu_indices(n)
        for p in range(basis.shape[0]):
            assert basis[p, iu[0][p], iu[1][p]] == 1.0
