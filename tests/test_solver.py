import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from cpacontract import solver
from cpacontract.assembly import assemble, stack_problem
from cpacontract.solver import (
    SolverSettings,
    _LinearCone,
    _MatrixCone,
    _svec_congruence,
    certify,
    solve,
)
from cpacontract.systems import parse_system
from cpacontract.triangulation import build_complex

from reference import (
    lower,
    matmul_seq,
    stack,
    stacked_cone,
    svec,
    triangular,
    unsvec,
)
from test_smallmat import spd_blocks


def make_problem(blocks, c):
    """Dense test problems: blocks is a list of (F_i list, F0)."""
    parts = []
    for k, (Fis, F0) in enumerate(blocks):
        n = np.asarray(F0).shape[0]
        A = np.stack([svec(np.asarray(F, dtype=float)) for F in Fis], axis=1)
        A = sp.coo_matrix(A)
        parts.append((f"b{k}", n, 1, (A.data, A.row, A.col),
                      svec(np.asarray(F0, dtype=float)),
                      np.array([-1]), np.array([-1])))
    return stack_problem(parts, np.asarray(c, dtype=float), 0)


def random_feasible_problem(rng, with_objective=False):
    """Random block SDP with a sampled strictly interior point; bounded
    below by per-variable box blocks."""
    m = int(rng.integers(2, 21))
    nblocks = int(rng.integers(1, 5))
    y_star = rng.normal(size=m)
    blocks = []
    for _ in range(nblocks):
        k = int(rng.integers(1, 5))
        Fis = []
        for _ in range(m):
            A = rng.normal(size=(k, k))
            Fis.append(0.5 * (A + A.T))
        R = rng.normal(size=(k, k))
        R = R @ R.T + 0.5 * np.eye(k)
        F0 = sum(F * y for F, y in zip(Fis, y_star)) - R
        blocks.append((Fis, F0))
    big = float(np.abs(y_star).max()) + 10.0
    for j in range(m):
        e = [np.zeros((1, 1)) for _ in range(m)]
        e[j] = np.eye(1)
        blocks.append((list(e), np.array([[-big]])))
        e2 = [np.zeros((1, 1)) for _ in range(m)]
        e2[j] = -np.eye(1)
        blocks.append((list(e2), np.array([[-big]])))
    c = np.zeros(m)
    if with_objective:
        c[0] = 1.0
    return make_problem(blocks, c), y_star


def bisection_reference(F1, F0, lo, hi, tol=1e-12):
    """Left feasibility endpoint of {y : y F1 - F0 >= 0} by bisection on
    the smallest eigenvalue."""
    def feasible(y):
        return np.linalg.eigvalsh(y * F1 - F0).min() >= 0.0

    assert feasible(hi) and not feasible(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestSolveExamples:
    def test_eigenvalue_threshold(self):
        prob = make_problem([([np.eye(2)], np.eye(2))], [1.0])
        sol = solve(prob)
        assert sol.status == "Optimal"
        assert sol.y[0] == pytest.approx(1.0, abs=1e-7)

    def test_off_diagonal_threshold(self):
        F0 = -np.array([[0.0, 1.0], [1.0, 0.0]])
        prob = make_problem([([np.eye(2)], F0)], [1.0])
        sol = solve(prob)
        assert sol.status == "Optimal"
        # 2x2 eigenvalue oracle: eigs of [[y,1],[1,y]] are y +- 1
        assert sol.y[0] == pytest.approx(1.0, abs=1e-7)

    def test_infeasible_with_ray(self):
        prob = make_problem([([np.zeros((2, 2))], np.eye(2))], [0.0])
        sol = solve(prob)
        assert sol.status == "Infeasible"
        ray = sol.dual_ray
        assert ray is not None
        assert ray["objective"] > 0.0
        assert ray["eq_residual"] <= 1e-8

    def test_feasibility_strict_margin(self):
        prob = make_problem([([np.eye(2)], np.eye(2))], [0.0])
        sol = solve(prob)
        assert sol.status == "Feasible"
        assert sol.block_min_eigs.min() >= 1e-7  # strictly interior

    def test_status_invariant(self):
        rng = np.random.default_rng(0)
        prob, _ = random_feasible_problem(rng)
        sol = solve(prob)
        assert sol.status in ("Feasible", "Optimal")
        assert sol.block_min_eigs.min() >= -1e-8


class TestCertify:
    def test_feasible_clean(self):
        prob = make_problem([([np.eye(2)], np.eye(2))], [1.0])
        sol = solve(prob)
        rep = certify(prob, sol.y, 1e-6)
        assert rep.clean

    def test_zero_flagged(self):
        prob = make_problem([([np.eye(2)], np.eye(2))], [1.0])
        rep = certify(prob, np.zeros(1), 1e-6)
        assert not rep.clean
        assert rep.flagged[0][1] == pytest.approx(-1.0)

    def test_min_eig_matches_cubic_roots(self):
        rng = np.random.default_rng(7)
        mats = [A + A.T for A in rng.normal(size=(25, 3, 3))]
        # at y = 0 the blocks are -F0 = A
        prob = make_problem([([np.eye(3)], -A) for A in mats], [1.0])
        mins = certify(prob, np.zeros(1), 0.0).min_eigs
        for A, mine in zip(mats, mins):
            # characteristic-polynomial oracle
            roots = np.sort(np.roots(np.poly(A)).real)
            assert mine == pytest.approx(roots[0], abs=1e-9)

    def test_size_three_blocks_use_smallmat(self, monkeypatch):
        seen, eig_min = [], solver.eig_min

        def counting(mats):
            seen.append(np.shape(mats))
            return eig_min(mats)

        monkeypatch.setattr(solver, "eig_min", counting)
        A = np.diag([1.0, 2.0, 3.0])
        prob = make_problem([([np.eye(3)], -A), ([np.eye(3)], A)], [1.0])
        rep = certify(prob, np.zeros(1), 0.5)
        assert seen == [(6, 1), (6, 1)]  # one block's six components
        assert rep.min_eigs.tolist() == [1.0, -3.0]
        assert rep.flagged == [(1, -3.0)]


class TestRandomSuite:
    def test_random_feasible_problems(self):
        rng = np.random.default_rng(2024)
        for trial in range(30):
            prob, y_star = random_feasible_problem(rng)
            sol = solve(prob)
            assert sol.status in ("Feasible", "Optimal"), trial
            rep = certify(prob, sol.y, 1e-6)
            assert rep.clean, (trial, rep.flagged[:3])

    def test_single_variable_objective_vs_bisection(self):
        rng = np.random.default_rng(55)
        for trial in range(20):
            k = int(rng.integers(1, 5))
            A = rng.normal(size=(k, k))
            F1 = A @ A.T + 0.5 * np.eye(k)  # pd, so the minimum is attained
            y_star = rng.uniform(0.5, 2.0)
            R = rng.normal(size=(k, k))
            R = R @ R.T + 0.3 * np.eye(k)
            F0 = F1 * y_star - R
            prob = make_problem([([F1], F0)], [1.0])
            sol = solve(prob)
            assert sol.status == "Optimal", trial
            ref = bisection_reference(F1, F0, y_star - 50.0, y_star)
            assert sol.objective == pytest.approx(ref, abs=1e-6)

    def test_bitwise_determinism(self):
        rng1 = np.random.default_rng(99)
        prob1, _ = random_feasible_problem(rng1, with_objective=True)
        rng2 = np.random.default_rng(99)
        prob2, _ = random_feasible_problem(rng2, with_objective=True)
        s1 = solve(prob1, SolverSettings())
        s2 = solve(prob2, SolverSettings())
        assert s1.y.tobytes() == s2.y.tobytes()
        assert s1.iterations == s2.iterations


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(feas_tol=0.0)
        with pytest.raises(ValueError):
            SolverSettings(max_iterations=0)


def _rel(a, b):
    """Largest entry of a - b per block, relative to b's largest entry."""
    return (np.abs(a - b).max(axis=(-2, -1))
            / np.abs(b).max(axis=(-2, -1))).max()


def _nt_factor(S, Z):
    """F = lam^(1/4) Q^T L^-1 from numpy's factors: L = chol(S) and
    L^T Z L = Q diag(lam) Q^T."""
    L = np.linalg.cholesky(S)
    lam, Q = np.linalg.eigh(np.swapaxes(L, 1, 2) @ Z @ L)
    return lam[..., None] ** 0.25 * np.swapaxes(Q, 1, 2) @ np.linalg.inv(L)


def _times(P, x, trans=False):
    """P x, or P^T x, per block, on svec rows."""
    return (np.swapaxes(P, 1, 2) if trans else P) @ x[..., None]


def _svec_map(F):
    """The svec map P (N, d, d) of a stack of factors F (N, k, k)."""
    return _svec_congruence(np.moveaxis(F, 0, -1)).transpose(2, 0, 1)


class TestConeKernels:
    """The matrix cone on svec rows: P svec(X) = svec(F X F^T) is its only
    scaling operator, with P^T the svec map of F^T."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e10])
    def test_nesterov_todd_factor(self, k, cond):
        rng = np.random.default_rng(k)
        S, Z = spd_blocks(rng, (200,), k, cond), spd_blocks(rng, (200,), k, cond)
        cone = _MatrixCone(svec(S), svec(Z))
        P = cone.schur
        # W^-1 = F^T F = unsvec(P^T svec(I))
        Wi = unsvec(_times(P, svec(np.eye(k))[None], trans=True)[..., 0], k)
        V = cone.v[:, :, None] * np.eye(k)
        tol = 1e-13 * np.sqrt(cond)
        # W Z W = S, checked as W^-1 S W^-1 = Z and with W inverted densely
        assert _rel(Wi @ S @ Wi, Z) <= tol
        assert _rel(np.linalg.inv(Wi) @ Z @ np.linalg.inv(Wi), S) <= 10 * tol
        # F S F^T = diag(v) as P svec(S) = svec(V), and F^-T Z F^-1 = diag(v)
        # as P^T svec(V) = svec(Z)
        assert _rel(unsvec(_times(P, svec(S))[..., 0], k), V) <= tol
        assert _rel(unsvec(_times(P, svec(V), trans=True)[..., 0], k),
                    Z) <= 10 * tol
        assert _rel(unsvec(cone.w2, k), Wi @ Wi) <= 1e-14
        assert _rel(unsvec(cone.s_inv, k),
                    np.linalg.inv(S)) <= tol * np.sqrt(cond)
        # P svec(X) = svec(F X F^T)
        F = _nt_factor(S, Z)
        X = rng.normal(size=(200, k, k))
        X = X + np.swapaxes(X, 1, 2)
        Px = _times(_svec_map(F), svec(X))[..., 0]
        ref = svec(F @ X @ np.swapaxes(F, 1, 2))
        assert np.abs(Px - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e10])
    def test_transpose_is_the_map_of_the_transpose(self, k, cond):
        # the dual direction, s_inv and w2 rest on P(F)^T = P(F^T)
        rng = np.random.default_rng(60 + k)
        S, Z = spd_blocks(rng, (200,), k, cond), spd_blocks(rng, (200,), k, cond)
        F = _nt_factor(S, Z)
        P, Pt = _svec_map(F), _svec_map(np.swapaxes(F, 1, 2))
        assert _rel(np.swapaxes(P, 1, 2), Pt) <= 1e-15
        X = rng.normal(size=(200, k, k))
        X = X + np.swapaxes(X, 1, 2)
        ref = svec(np.swapaxes(F, 1, 2) @ X @ F)
        got = _times(P, svec(X), trans=True)[..., 0]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_linear_cone_is_the_size_one_matrix_cone(self):
        rng = np.random.default_rng(5)
        s, z = rng.uniform(1e-6, 1e3, 300), rng.uniform(1e-6, 1e3, 300)
        lin, mat = _LinearCone(s, z), _MatrixCone(s[:, None], z[:, None])
        assert np.allclose(lin.d, mat.w2[:, 0], rtol=1e-14, atol=0.0)
        # P = F^2 at k = 1, so F^4 = P^2
        assert np.allclose(lin.d, mat.schur[:, 0, 0] ** 2, rtol=1e-14,
                           atol=0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_closed_forms_match_lapack(self, k, monkeypatch):
        rng = np.random.default_rng(30 + k)
        S, Z = spd_blocks(rng, (300,), k, 10.0), spd_blocks(rng, (300,), k, 10.0)
        closed = _MatrixCone(svec(S), svec(Z))

        def eigh(a):
            w, Q = np.linalg.eigh(stack(a))
            return ([w[:, i] for i in range(k)],
                    [[Q[:, r, c] for r in range(k)] for c in range(k)])

        def congruence(R, X, trans=False):
            R = triangular(R)
            Rt = np.swapaxes(R, 1, 2)
            return lower(Rt @ stack(X) @ R if trans else R @ stack(X) @ Rt)

        # the component kernels replaced by LAPACK and stacked matmuls
        monkeypatch.setattr(solver, "cholesky",
                            lambda a: lower(np.linalg.cholesky(stack(a))))
        monkeypatch.setattr(solver, "inv_lower",
                            lambda L: lower(np.linalg.inv(triangular(L))))
        monkeypatch.setattr(solver, "eigh", eigh)
        monkeypatch.setattr(solver, "congruence", congruence)
        lapack = _MatrixCone(svec(S), svec(Z))
        Wi = [unsvec(_times(c.schur, svec(np.eye(k))[None],
                            trans=True)[..., 0], k)
              for c in (closed, lapack)]
        assert _rel(Wi[0], Wi[1]) <= 1e-12
        assert np.abs(closed.v - lapack.v).max() <= 1e-12 * np.abs(
            lapack.v).max()
        assert _rel(unsvec(closed.s_inv, k), unsvec(lapack.s_inv, k)) <= 1e-12
        # the Schur operators P^T P agree although the factors differ
        assert _rel(*[np.swapaxes(c.schur, 1, 2) @ c.schur
                      for c in (closed, lapack)]) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_components_match_the_stacked_forms(self, k):
        # the cone on component arrays against the same closed forms on
        # (N, k, k) stacks: v, s_inv, both step lengths and the gap bit for
        # bit, the svec map P too
        rng = np.random.default_rng(80 + k)
        S, Z = spd_blocks(rng, (300,), k, 1e6), spd_blocks(rng, (300,), k, 1e6)
        s, z = svec(S), svec(Z)
        cone = _MatrixCone(s, z)
        v, s_inv, P, steps, gap = stacked_cone(s, z)
        assert cone.v.tobytes() == v.tobytes()
        assert cone.s_inv.tobytes() == s_inv.tobytes()
        assert np.ascontiguousarray(cone.schur).tobytes() == P.tobytes()
        # the steps of a direction whose whitened eigenvalues go negative
        ds = rng.normal(size=s.shape)
        X, dZ = cone.direction(ds, 0.3)
        assert X.tobytes() == matmul_seq(P, ds[..., None])[..., 0].tobytes()
        want = [solver._max_step(steps(x)) for x in (X, dZ)]
        assert cone.steps((X, dZ)) == tuple(want)
        assert all(np.isfinite(want))
        assert cone.gap((X, dZ), 0.7, 0.4) == gap(X, dZ, 0.7, 0.4)
        # the interior test keeps the factor that the next scaling reads
        L = _MatrixCone.factor(s)
        again = _MatrixCone(s, z, (L, None))
        assert again.v.tobytes() == cone.v.tobytes()
        s[5] = -s[5]
        assert _MatrixCone.factor(s) is None


def test_one_cholesky_per_block_per_iteration(monkeypatch):
    # the interior tests of the accepted step keep their factors, and the
    # next scaling takes them: S and Z are factored once per iteration,
    # plus, per phase, the start point's S and the first scaling's Z
    sys3 = parse_system("dim=3; period=1; f1 = -x1; f2 = -2*x2; f3 = -x3")
    cx = build_complex([[[0.05, 0.95]] * 3], 1.0, 0)
    problem, _ = assemble(cx, sys3, 0.01, uniform_cd=True, objective="min_c")
    calls = []
    factor = solver.cholesky
    monkeypatch.setattr(solver, "cholesky",
                        lambda x: calls.append(len(x)) or factor(x))
    sol = solve(problem)
    assert sol.status == "Optimal"
    assert set(calls) == {6}  # the components of 3 x 3 blocks
    assert len(calls) == 2 * sol.iterations + 2 * 2


@pytest.mark.parametrize("objective", ["none", "min_c"])
def test_one_congruence_per_matrix_cone_per_iteration(objective,
                                                      monkeypatch):
    # L^T Z L is the one stacked congruence and P the one scaling map, in
    # phase 1 (objective "none") and in phase 2
    sys3 = parse_system("dim=3; period=1; f1 = -x1; f2 = -2*x2; f3 = -x3")
    cx = build_complex([[[0.05, 0.95]] * 3], 1.0, 0)
    problem, _ = assemble(cx, sys3, 0.01, uniform_cd=True,
                          objective=objective)
    counts = {"congruence": 0, "_svec_congruence": 0}
    for name in counts:
        def counting(*args, _f=getattr(solver, name), _name=name, **kw):
            counts[_name] += 1
            return _f(*args, **kw)

        monkeypatch.setattr(solver, name, counting)
    iterations = []
    ipm = solver._ipm
    monkeypatch.setattr(solver, "_ipm", lambda *a, **kw: (
        iterations.append(ipm(*a, **kw)) or iterations[-1]))
    sol = solve(problem)
    assert sol.status == ("Optimal" if objective == "min_c" else "Feasible")
    assert len(iterations) == (2 if objective == "min_c" else 1)
    assert all(res.iterations > 0 for res in iterations)
    # one matrix cone (size 3) and one linear cone
    assert counts == {"congruence": sol.iterations,
                      "_svec_congruence": sol.iterations}


class TestPhaseOneApply:
    """Phase 1 adds tau to the diagonal svec rows of every block, the
    nonzeros of svec(I), with the bits of indexing tau's column."""

    def test_block_sizes_1_2_3(self):
        rng = np.random.default_rng(3)
        m = 4
        blocks = []
        for k in (2, 1, 3, 1, 2):
            Fis = [rng.normal(size=(k, k)) for _ in range(m)]
            blocks.append(([F + F.T for F in Fis], np.eye(k)))
        segs = solver._Segments(make_problem(blocks, np.zeros(m)))
        assert segs.sizes == [1, 2, 3]
        eye = np.concatenate(
            [np.ones(2)] + [svec(np.eye(k)) for k in (2, 2, 3)])
        assert segs.identity().tobytes() == eye.tobytes()
        y = rng.normal(size=m + 1)
        ref = segs.A @ y[:m]
        ref[np.flatnonzero(eye)] += y[-1]
        assert segs.apply(y).tobytes() == ref.tobytes()
        assert segs.apply(y[:m]).tobytes() == (segs.A @ y[:m]).tobytes()


class TestWorkingSet:
    """The interior-point loop holds one iterate: what an iteration builds
    is gone before the next one scales, and the segments keep no vector of
    A's rows besides A and f0."""

    @staticmethod
    def _problem():
        problem, _ = random_feasible_problem(np.random.default_rng(8), True)
        sizes = solver._Segments(problem).sizes
        assert sizes[0] == 1 and sizes[-1] > 1
        return problem

    def test_iteration_arrays_die_before_the_next_scaling(self, monkeypatch):
        made, cones, rounds = [], [], []

        def keep(x):
            made.append(weakref.ref(x))
            if x.base is not None:
                made.append(weakref.ref(x.base))

        def recorded(fun):
            def wrapper(self, *args):
                out = fun(self, *args)
                for x in out if isinstance(out, tuple) else (out,):
                    keep(x)
                return out
            return wrapper

        for cls in (solver._LinearCone, solver._MatrixCone):
            monkeypatch.setattr(cls, "direction", recorded(cls.direction))
            monkeypatch.setattr(cls, "dz", recorded(cls.dz))
        whole = solver._whole

        def joined(parts):
            out = whole(parts)
            keep(out)
            return out

        monkeypatch.setattr(solver, "_whole", joined)
        for cls in (solver._LinearCone, solver._MatrixCone):
            def init(self, *args, _init=cls.__init__, **kwargs):
                if isinstance(self, solver._LinearCone):  # a new iteration
                    rounds.append(([r for r in made if r() is not None],
                                   [r for r in cones if r() is not None]))
                _init(self, *args, **kwargs)
                cones.append(weakref.ref(self))
            monkeypatch.setattr(cls, "__init__", init)
        sol = solve(self._problem())
        assert sol.status == "Optimal" and sol.iterations > 2
        assert len(rounds) >= sol.iterations and made
        # the direction arrays, dZ and the last cones are dead when the
        # next iteration builds its cones
        assert all(live == ([], []) for live in rounds)

    def test_segments_hold_no_row_vector(self):
        problem = self._problem()
        segs = solver._Segments(problem)
        A, n = problem.A, problem.A.shape[0]

        def arrays(x):
            if isinstance(x, (list, tuple)):
                return [a for v in x for a in arrays(v)]
            return [x] if sp.issparse(x) or isinstance(x, np.ndarray) else []

        for name, value in vars(segs).items():
            for x in arrays(value):
                if x is A or x is problem.f0 or n not in x.shape:
                    continue
                # only A's transpose, a view of A's arrays, has that length
                assert name == "A_t", name
                for a, b in ((x.data, A.data), (x.indices, A.indices),
                             (x.indptr, A.indptr)):
                    assert np.shares_memory(a, b)


class TestNonFiniteDirection:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_step_computation_failed(self, k, monkeypatch):
        # a Schur solve that returns NaN ends the solve as a classified
        # failure; at k >= 3 the eigenvalue kernel used to raise, and at
        # k <= 2 it backtracked 40 times into "primal step stalled"
        monkeypatch.setattr(solver._SchurPlan, "factor",
                            lambda self, weights, tau_col: lambda r:
                            np.full_like(r, np.nan))
        prob = make_problem([([np.eye(k)], np.eye(k))], [1.0])
        sol = solve(prob)
        assert sol.status == "NumericalFailure"
        assert sol.notes == ["step computation failed"]


class TestDriverExits:
    """Each exit of the interior-point driver, with its status and note."""

    def test_iteration_limit(self):
        # infeasible, so phase 1 is still short of its optimum after one
        prob = make_problem([([np.zeros((2, 2))], np.eye(2))], [0.0])
        sol = solve(prob, SolverSettings(max_iterations=1))
        assert sol.status == "IterationLimit"
        assert sol.iterations == 1
        assert sol.notes == []

    def test_unbounded_objective_keeps_phase_one_point(self):
        # min -y s.t. y >= 0
        prob = make_problem([([np.eye(1)], np.zeros((1, 1)))], [-1.0])
        sol = solve(prob)
        assert sol.status == "Feasible"
        assert sol.notes == ["objective appears unbounded below"]
        assert sol.y[0] > 0.0

    def test_factorization_failed(self, monkeypatch):
        def fail(self, weights, tau_col):
            raise solver._FactorizationError

        monkeypatch.setattr(solver._SchurPlan, "factor", fail)
        sol = solve(make_problem([([np.eye(2)], np.eye(2))], [1.0]))
        assert sol.status == "NumericalFailure"
        assert sol.notes == ["factorization failed"]

    @pytest.mark.parametrize("cone", ["_LinearCone", "_MatrixCone"])
    def test_scaling_breakdown(self, cone, monkeypatch):
        def fail(self, *args):
            raise np.linalg.LinAlgError

        monkeypatch.setattr(getattr(solver, cone), "__init__", fail)
        k = 1 if cone == "_LinearCone" else 2
        sol = solve(make_problem([([np.eye(k)], np.eye(k))], [1.0]))
        assert sol.status == "NumericalFailure"
        assert sol.notes == ["scaling breakdown"]

    @pytest.mark.parametrize("passing, side", [(1, "primal"), (2, "dual")])
    def test_step_stalled_at_the_boundary(self, passing, side, monkeypatch):
        # the start point's S and then `passing - 1` trial steps are
        # interior; every later trial step is not
        calls, factors = [], solver._Segments.factors

        def stalling(self, xs):
            calls.append(1)
            return factors(self, xs) if len(calls) <= passing else None

        monkeypatch.setattr(solver._Segments, "factors", stalling)
        sol = solve(make_problem([([np.eye(2)], np.eye(2))], [1.0]))
        assert sol.status == "NumericalFailure"
        assert sol.notes == [f"{side} step stalled at the boundary"]
        assert len(calls) == passing + 40


def test_one_certify_per_returned_y(monkeypatch):
    # phase 2's cone test and Solution.block_min_eigs share one certify
    tols, certify_ = [], solver.certify
    monkeypatch.setattr(solver, "certify", lambda problem, y, tol: (
        tols.append(tol) or certify_(problem, y, tol)))
    sol = solve(make_problem([([np.eye(2)], np.eye(2))], [1.0]))
    assert sol.status == "Optimal"
    assert tols == [SolverSettings().feas_tol]
