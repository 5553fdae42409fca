import numpy as np
import pytest
import scipy.sparse as sp

from cpacontract.assembly import BlockGroup, SDPProblem, svec
from cpacontract.solver import (
    SolverSettings,
    certify,
    solve,
    tridiagonal_ql_eigenvalues,
)


def make_problem(blocks, c):
    """Dense test problems: blocks is a list of (F_i list, F0)."""
    m = len(c)
    groups = []
    for k, (Fis, F0) in enumerate(blocks):
        n = np.asarray(F0).shape[0]
        A = np.stack([svec(np.asarray(F, dtype=float)) for F in Fis], axis=1)
        groups.append(BlockGroup(f"b{k}", n, 1, sp.csr_matrix(A),
                                 svec(np.asarray(F0, dtype=float)),
                                 np.array([-1]), np.array([-1])))
    return SDPProblem(m=m, c=np.asarray(c, dtype=float), groups=groups, n=0)


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
        for _ in range(25):
            A = rng.normal(size=(3, 3))
            A = A + A.T
            mine = tridiagonal_ql_eigenvalues(A)[0]
            # characteristic-polynomial oracle
            coeffs = np.poly(A)
            roots = np.sort(np.roots(coeffs).real)
            assert mine == pytest.approx(roots[0], abs=1e-9)

    def test_ql_against_reference(self):
        rng = np.random.default_rng(3)
        for k in range(1, 7):
            for _ in range(10):
                A = rng.normal(size=(k, k))
                A = A + A.T
                mine = tridiagonal_ql_eigenvalues(A)
                ref = np.linalg.eigvalsh(A)
                assert np.max(np.abs(mine - ref)) <= 1e-10 * max(
                    1.0, np.abs(ref).max())


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
