from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from cpacontract import assembly
from cpacontract.assembly import assemble, export_sdpa, stack_problem
from cpacontract.cpa import ensure_derivative_bounds, enu_coefficient_arrays
from cpacontract.systems import parse_system
from cpacontract.triangulation import build_complex

from reference import (
    constraint_blocks,
    margin_coefficients,
    parse_sdpa,
    svec,
    sym_basis,
    unsvec,
)


class TestECoefficients:
    """The margin formula takes the bounds as arguments; it reads only n
    and h from the complex."""

    def test_c2_example(self):
        cx = SimpleNamespace(n=1, h=np.array([0.25]))
        a_C, a_D = enu_coefficient_arrays(cx, np.ones(1))
        assert a_D[0] == pytest.approx(np.sqrt(2.0) / 16.0)
        assert a_C[0] == pytest.approx(1.0)

    def test_affine_vanishes(self):
        sys = parse_system("dim=1; period=1; f1 = -x1")
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        a_C, a_D = enu_coefficient_arrays(cx,
                                          *ensure_derivative_bounds(cx, sys))
        assert np.all(a_C == 0.0) and np.all(a_D == 0.0)

    def test_c3_example(self):
        cx = SimpleNamespace(n=1, h=np.ones(1))
        a_C, a_D = enu_coefficient_arrays(cx, np.ones(1), np.zeros(1))
        assert a_D[0] == pytest.approx(5.0 * np.sqrt(2.0))
        assert a_C[0] == 0.0

    def test_bounds_follow_the_system(self):
        # one complex, two systems: nothing of the first stays on the mesh
        cx = build_complex([[[0.0, 1.0]]], 1.0, 1)
        affine = parse_system("dim=1; period=1; f1 = -x1")
        cubic = parse_system("dim=1; period=1; smoothness=c3; "
                             "f1 = -x1 + x1^3")
        B2, B3 = ensure_derivative_bounds(cx, affine)
        assert np.all(B2 == 0.0) and B3 is None
        B2, B3 = ensure_derivative_bounds(cx, cubic)
        assert np.all(B2 > 0.0) and np.all(B3 > 0.0)
        assert np.all(ensure_derivative_bounds(cx, affine)[0] == 0.0)
        assert not hasattr(cx, "B2") and not hasattr(cx, "B3")


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
            sys = parse_system(text)
            for K in (0, 1, 2):
                cx = build_complex([[[0.0, 1.0]] * n], 1.0, K)
                prob, _ = assemble(cx, sys, 0.01, uniform_cd=False,
                                   objective="none")
                s, v = cx.n_simplices, cx.n_slots
                census = {g.family: (g.size, g.count) for g in prob.groups}
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
        census = {g.family: (g.size, g.count) for g in prob.groups}
        assert census["bound_M"][1] == cx.n_slots
        assert np.count_nonzero(prob.c) == 1

    def test_cmax_mode(self, linear_1d):
        cx = build_complex([[[0.0, 1.0]]], linear_1d.T, 1)
        prob, vmap = assemble(cx, linear_1d, 0.01, uniform_cd=False,
                              objective="min_c")
        assert prob.m == 2 * cx.n_simplices + cx.n_slots + 1
        census = {g.family: (g.size, g.count) for g in prob.groups}
        assert census["cmax_link"] == (1, cx.n_simplices)
        assert prob.c[vmap.cmax_index] == 1.0


# a 1-D, a 2-D and a 3-D mesh as (system, region, K)
MESHES = [
    ("dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
     [[[-2.0, 1.0]]], 3),
    ("dim=2; period=6.283185307179586; f1 = x2; f2 = -x1 - 2*x2 + sin(t)",
     [[[-0.5, 0.5], [-0.5, 0.5]]], 1),
    ("dim=3; period=1; f1 = -x1 + 1.5*x2 + 0.2*x2*x3; "
     "f2 = -x2 + 1.5*x3 - 0.2*x1*x3; f3 = -x3 + 0.2*x1*x2",
     [[[-0.5, 0.5]] * 3], 0),
]


class TestNoExplicitZeros:
    """`stack_problem` drops the families' explicit zeros, so A stores only
    entries that a product with it needs."""

    @pytest.mark.parametrize("text, region, K", MESHES)
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
        coo = A.tocoo()
        prob = stack_problem([("b", 2, 1, (coo.data, coo.row, coo.col),
                               svec(np.eye(2)), np.array([-1]),
                               np.array([-1]))], np.zeros(2), 2)
        assert (prob.A.data != 0).all()
        assert prob.A.nnz == 2
        assert np.array_equal(prob.A.toarray(), A.toarray())


class TestCompactStore:
    """Every family builds its triplets' rows and columns in int32, and A's
    data and indices own exactly its nnz entries."""

    @pytest.mark.parametrize("text, region, K", MESHES)
    def test_assembled_meshes(self, text, region, K, monkeypatch):
        dtypes = {}
        stack = assembly.stack_problem

        def spy(parts, *args, **kwargs):
            for fam, _, _, (_, rows, cols), *_ in parts:
                dtypes.setdefault(fam, set()).update((rows.dtype, cols.dtype))
            return stack(parts, *args, **kwargs)

        monkeypatch.setattr(assembly, "stack_problem", spy)
        sys = parse_system(text)
        cx = build_complex(region, sys.T, K)
        for uniform in (True, False):
            for objective in ("none", "min_c"):
                prob, _ = assemble(cx, sys, 0.01, uniform_cd=uniform,
                                   objective=objective)
                for a in (prob.A.data, prob.A.indices):
                    assert len(a) == prob.A.nnz
                    assert a.base is None or a.base.size == prob.A.nnz
        assert set(dtypes) == {"bound_M", "grad_bound", "pos_def",
                               "contraction", "cmax_link"}
        assert all(d == {np.dtype(np.int32)} for d in dtypes.values())


class TestResidual:
    """The residual A y - f0, sliced by the groups' row ranges."""

    def test_zero_gives_minus_f0(self, solved_linear):
        prob = solved_linear["problem"]
        res = prob.A @ np.zeros(prob.m) - prob.f0
        # a positive-definiteness block: -F0 = -eps0 I
        g = next(g for g in prob.groups if g.family == "pos_def")
        R = unsvec(res[g.rows][:g.svdim], g.size)
        assert np.allclose(R, -0.01 * np.eye(1))

    # at n = 1 M J + J^T M has no off-diagonal terms; van der Pol (n = 2)
    # and the synth-3d benchmark's system (n = 3) have them
    @pytest.mark.parametrize("text, region, K", [
        ("dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
         [[[-2.0, 1.0]]], 2),
        ("dim=2; period=1; f1 = x2; f2 = -x1 - x2*(x1^2 - 1)",
         [[[-0.5, 0.5], [-0.5, 0.5]]], 1),
        ("dim=3; period=1; smoothness=c3; f1 = -x1 + 1.5*x2 + 0.2*x2*x3; "
         "f2 = -x2 + 1.5*x3 - 0.2*x1*x3; f3 = -x3 + 0.2*x1*x2",
         [[[-0.5, 0.5]] * 3], 0),
    ], ids=["linear-1d", "vdp-2d", "synth-3d"])
    def test_matches_direct_cpa_evaluation(self, text, region, K):
        sys = parse_system(text)
        cx = build_complex(region, sys.T, K)
        prob, vmap = assemble(cx, sys, 0.01, uniform_cd=False,
                              objective="none")
        a_C, a_D = margin_coefficients(cx, sys)
        rng = np.random.default_rng(42)
        for _ in range(5):
            y = rng.normal(size=prob.m)
            direct = constraint_blocks(cx, sys, y, vmap, a_C, a_D, 0.01)
            res = prob.A @ y - prob.f0
            for g in prob.groups:
                got = res[g.rows]
                assert np.max(np.abs(got - direct[g.family])) <= 1e-10
        # negative controls: the margin with a_C or a_D doubled, where it
        # is not zero (synth-3d's field is quadratic, so its a_C is)
        for wrong_C, wrong_D in ((2 * a_C, a_D), (a_C, 2 * a_D)):
            if (wrong_C == a_C).all() and (wrong_D == a_D).all():
                continue
            wrong = constraint_blocks(cx, sys, y, vmap, wrong_C, wrong_D,
                                      0.01)
            assert not all(np.allclose(res[g.rows], wrong[g.family],
                                       atol=1e-10) for g in prob.groups)

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
        A = sp.coo_matrix(svec(np.eye(2))[:, None])
        prob = stack_problem([("b", 2, 1, (A.data, A.row, A.col),
                               svec(np.eye(2)), np.array([-1]),
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
        with pytest.raises(ValueError):  # negative control: a wrong m
            parse_sdpa(f"{prob.m + 1}" + text[len(str(prob.m)):])
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
