"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import re
import time

import numpy as np
import pytest

from cpacontract.assembly import assemble
from cpacontract.cli import Config, cmd_synthesize, load_certificate
from cpacontract.cpa import (
    CPAMetric,
    ensure_derivative_bounds,
    enu_coefficient_arrays,
)
from cpacontract.orbits import contraction_probe, find_periodic_orbit, monodromy
from cpacontract.solver import SolverSettings, certify, solve
from cpacontract.systems import parse_system
from cpacontract.triangulation import build_complex, check_complex

from reference import (
    S_star,
    constant_metric,
    constraint_blocks,
    margin_coefficients,
    margin_coefficients_consistent,
    verify_lemma_412_gap,
)

TWO_PI = 2.0 * np.pi

CRITERION_1_CONFIG = {
    "system": "dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
    "region": [[[-2.0, 1.0]]],
    "epsilon0": 0.01,
    "smoothness": "C2",
    "k_min": 0,
    "k_max": 8,
    "mode": {"uniform_cd": True, "objective": "min_c"},
    "verify": {"samples": 100000, "seed": 12345, "tol": 1e-6},
}

# The 2-D oscillator needs the third-order margin: with the second-order
# margin the contraction blocks force h below 1/(12 B), which is not
# reachable before K = 9. In C3 mode the cap is h^2 < 1/(24 B3 mu) with
# mu ~ 1.71 the best metric-conditioning of the constant-coefficient part,
# giving h < 0.156; level 6 with spatial scaling 0.853 sits just inside.
CRITERION_2_CONFIG = {
    "system": ("dim=2; period=6.283185307179586; smoothness=c3; "
               "f1 = x2; f2 = -x1 - 2*x2 + sin(t)"),
    "region": [[[-0.5002, 0.5002], [-0.5002, 0.5002]]],
    "scaling": [0.853, 0.853],
    "epsilon0": 0.01,
    "k_min": 6,
    "k_max": 7,
    "mode": {"uniform_cd": True, "objective": "none"},
    "verify": {"samples": 120000, "seed": 12345, "tol": 1e-6},
}


def _ok(name, detail):
    print(f"\nACCEPTANCE {name}: PASS - {detail}")


def criterion(name):
    """Print a FAIL line when the criterion's assertions do not hold."""
    def wrap(fn):
        import functools

        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\nACCEPTANCE {name}: FAIL - {type(exc).__name__}: "
                      f"{exc}")
                raise
        return run
    return wrap


@pytest.fixture(scope="module")
def criterion1(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "criterion1.json"
    t0 = time.time()
    lines = []
    code, cert = cmd_synthesize(Config.from_dict(CRITERION_1_CONFIG),
                                out_path=str(path), progress=lines.append)
    elapsed = time.time() - t0
    assert code == 0
    return {"cert": load_certificate(str(path)), "elapsed": elapsed,
            "path": str(path), "progress": lines}


@pytest.fixture(scope="module")
def criterion1_solved():
    """The criterion-1 problem re-solved in memory at its feasible level."""
    sys0 = parse_system(CRITERION_1_CONFIG["system"])
    cx = build_complex(CRITERION_1_CONFIG["region"], sys0.T, 5)
    problem, vmap = assemble(cx, sys0, 0.01, uniform_cd=True,
                             objective="min_c")
    sol = solve(problem)
    assert sol.status in ("Optimal", "Feasible")
    return {"sys": sys0, "cx": cx, "problem": problem, "vmap": vmap,
            "sol": sol, "cpa": CPAMetric.from_solution(cx, sol.y, vmap)}


@criterion("1")
def test_criterion_1_linear_system_end_to_end(criterion1):
    cert = criterion1["cert"]
    rep = cert["verification"]
    assert rep["passed"] is True
    assert rep["samples"] >= 100000
    assert rep["max_lambda_max"] <= -1.0 + 1e-6
    assert criterion1["elapsed"] < 60.0
    # the answer, recorded before the cone-specific solver kernels: levels
    # 0-4 infeasible, then K=5 optimal with the same C
    levels = [re.search(r"solver (\w+) after (\d+) iterations", line)
              for line in criterion1["progress"]]
    assert [m.groups() for m in levels if m] == [
        ("Infeasible", "6"), ("Infeasible", "6"), ("Infeasible", "6"),
        ("Infeasible", "8"), ("Infeasible", "8"), ("Optimal", "32")]
    assert cert["k"] == 5
    assert cert["solver"]["status"] == "Optimal"
    assert cert["solver"]["iterations"] == 32
    assert float(cert["constants"]["C"]) == pytest.approx(
        1.1140946122150608, rel=1e-6)

    bound = float(cert["floquet_bound"])
    sys0 = parse_system(CRITERION_1_CONFIG["system"])
    res = monodromy(sys0, find_periodic_orbit(sys0, [0.0], steps=8192),
                    steps=8192)
    assert res.monodromy[0, 0] == pytest.approx(np.exp(-TWO_PI), rel=1e-6)
    assert bound >= -1.0 - 1e-6
    assert bound >= res.exponents.max() - 1e-6
    _ok("1", f"certificate at K={cert['k']}, max lambda_max = "
             f"{rep['max_lambda_max']:.3e} over {rep['samples']} samples, "
             f"Floquet bound {bound:.4f} vs exponent "
             f"{res.exponents.max():.6f}, {criterion1['elapsed']:.1f}s")


@criterion("2")
def test_criterion_2_oscillator_end_to_end(tmp_path):
    path = tmp_path / "criterion2.json"
    t0 = time.time()
    code, cert = cmd_synthesize(Config.from_dict(CRITERION_2_CONFIG),
                                out_path=str(path),
                                progress=lambda *a, **k: None)
    elapsed = time.time() - t0
    assert code == 0
    assert cert["k"] <= 7
    rep = cert["verification"]
    assert rep["passed"] is True
    assert rep["max_lambda_max"] <= -1.0 + 1e-6

    bound = float(cert["floquet_bound"])
    sys0 = Config.from_dict(CRITERION_2_CONFIG).build_system()
    res = monodromy(sys0, find_periodic_orbit(sys0, [0.0, 0.0], steps=4096),
                    steps=4096)
    assert np.allclose(res.exponents, [-1.0, -1.0], atol=1e-5)
    assert bound >= -1.0 - 1e-5
    assert bound >= res.exponents.max() - 1e-5
    assert elapsed < 600.0

    # bound-versus-oracle comparison through the command as well: no flag
    from cpacontract.cli import cmd_floquet
    cfg = Config.from_dict(dict(CRITERION_2_CONFIG, orbit_guess=[0.0, 0.0]))
    assert cmd_floquet(cfg, str(path), steps=4096,
                       progress=lambda *a, **k: None) == 0
    _ok("2", f"certificate at K={cert['k']}, max lambda_max = "
             f"{rep['max_lambda_max']:.3e}, bound {bound:.5f} vs exponents "
             f"(-1, -1), {elapsed:.0f}s")


@criterion("3")
def test_criterion_3_triangulation_laws():
    worst_rel = 0.0
    for n in (1, 2):
        region = [[[0.0, 1.0]]] if n == 1 else [[[0.0, 0.25], [0.0, 0.25]]]
        norms = []
        for K in range(5):
            cx = build_complex(region, 1.0, K)
            report = check_complex(cx)
            assert report.ok, (n, K, report.face_violations[:3],
                               report.unpaired_vertices[:3])
            bound = S_star(cx.scaling) * 2.0 ** (-K) * cx.T
            assert np.all(cx.h <= bound)
            norms.append(cx.Xinv_1norm.max() * 2.0 ** (-K))
        rel = float(np.ptp(norms) / norms[0])
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-10, (n, norms)
    _ok("3", f"face-to-face clean for n in {{1,2}}, K in 0..4; diameter "
             f"bound exact; scaling-law spread {worst_rel:.2e} <= 1e-10")


@criterion("4")
def test_criterion_4_assembly_oracle(criterion1_solved):
    cx, sys0 = criterion1_solved["cx"], criterion1_solved["sys"]
    problem, vmap = assemble(cx, sys0, 0.01, uniform_cd=False,
                             objective="none")
    s, v, n = cx.n_simplices, cx.n_slots, cx.n
    assert problem.m == 2 * s + n * (n + 1) // 2 * v
    census = {g.family: (g.size, g.count) for g in problem.groups}
    assert census["grad_bound"] == (1, n * (n + 1) ** 2 * s)
    size_n_total = (census["bound_M"][1] + census["pos_def"][1]
                    + census["contraction"][1])
    assert size_n_total == v + 2 * (n + 2) * s
    assert census["bound_M"] == (n, (n + 2) * s)
    assert census["pos_def"] == (n, v)
    assert census["contraction"] == (n, (n + 2) * s)

    a_C, a_D = margin_coefficients(cx, sys0)
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        y = rng.normal(size=problem.m)
        direct = constraint_blocks(cx, sys0, y, vmap, a_C, a_D,
                                             0.01)
        res = problem.A @ y - problem.f0
        for g in problem.groups:
            diff = float(np.max(np.abs(res[g.rows] - direct[g.family])))
            worst = max(worst, diff)
        assert worst <= 1e-10, worst
    _ok("4", f"100 random y, {problem.n_blocks} blocks each: worst residual "
             f"deviation {worst:.2e} <= 1e-10; census m = 2s + P v = "
             f"{problem.m}, size-1 = {census['grad_bound'][1]}, size-n = "
             f"{size_n_total}")


@criterion("5")
def test_criterion_5_interpolation_bound(vdp):
    from cpacontract.verify import verify_interpolation_bound
    cx = build_complex([[[-2.5, 2.5], [-2.5, 2.5]]], 1.0, 2)
    B2, _ = ensure_derivative_bounds(cx, vdp)
    rng = np.random.default_rng(5)
    sids = rng.choice(cx.n_simplices, size=50, replace=False)
    worst = 0.0
    for sid in sids:
        ratio = verify_interpolation_bound(cx, int(sid), B2[sid], vdp,
                                           samples=1000, seed=int(sid))
        worst = max(worst, ratio)
        assert ratio <= 1.0, (sid, ratio)
    _ok("5", f"50 van der Pol simplices x 1000 points: worst "
             f"error/bound ratio {worst:.4f} <= 1, zero violations")


@criterion("6")
def test_criterion_6_lemma_gap(criterion1_solved):
    cx, sys0, cpa = (criterion1_solved["cx"], criterion1_solved["sys"],
                     criterion1_solved["cpa"])
    C, D = criterion1_solved["vmap"].bound_constants(
        criterion1_solved["sol"].y)
    a_C, a_D = enu_coefficient_arrays(cx, *ensure_derivative_bounds(cx, sys0))
    worst_excess = -np.inf
    for sid in range(cx.n_simplices):
        gap = verify_lemma_412_gap(cpa, sys0, sid, samples=200, seed=sid)
        E = a_C[sid] * C + a_D[sid] * D
        excess = gap - E / cx.n
        worst_excess = max(worst_excess, excess)
        assert gap <= E / cx.n + 1e-8, (sid, gap, E)
    # negative control: halving the margin coefficients is detected
    assert margin_coefficients_consistent(cx, sys0, a_C, a_D)
    assert not margin_coefficients_consistent(cx, sys0, 0.5 * a_C, 0.5 * a_D)
    _ok("6", f"sampled gap within E/n on all {cx.n_simplices} simplices "
             f"(worst excess {worst_excess:.2e}); halved margin detected")


@criterion("7")
def test_criterion_7_solver_suite():
    from test_solver import (bisection_reference, make_problem,
                             random_feasible_problem)
    rng = np.random.default_rng(777)
    worst_eig = np.inf
    for trial in range(100):
        prob, _ = random_feasible_problem(rng)
        sol = solve(prob)
        assert sol.status in ("Feasible", "Optimal"), trial
        rep = certify(prob, sol.y, 1e-6)
        worst_eig = min(worst_eig, float(rep.min_eigs.min()))
        assert rep.clean, (trial, rep.flagged[:3])

    worst_obj = 0.0
    rng2 = np.random.default_rng(778)
    for trial in range(20):
        k = int(rng2.integers(1, 5))
        A = rng2.normal(size=(k, k))
        F1 = A @ A.T + 0.5 * np.eye(k)
        y_star = rng2.uniform(0.5, 2.0)
        R = rng2.normal(size=(k, k))
        R = R @ R.T + 0.3 * np.eye(k)
        prob = make_problem([([F1], F1 * y_star - R)], [1.0])
        sol = solve(prob)
        assert sol.status == "Optimal", trial
        ref = bisection_reference(F1, F1 * y_star - R, y_star - 50.0, y_star)
        worst_obj = max(worst_obj, abs(sol.objective - ref))
        assert abs(sol.objective - ref) <= 1e-6

    probs = []
    for seed in (41, 42):
        rng3 = np.random.default_rng(9000)
        probs.append(random_feasible_problem(rng3, with_objective=True)[0])
    s1 = solve(probs[0], SolverSettings())
    s2 = solve(probs[1], SolverSettings())
    assert s1.y.tobytes() == s2.y.tobytes()
    _ok("7", f"100 random block SDPs certify-clean at 1e-6 (worst eig "
             f"{worst_eig:.2e}); bisection deviation {worst_obj:.2e} <= 1e-6; "
             f"bitwise determinism holds")


@criterion("8")
def test_criterion_8_contraction_probe(criterion1_solved):
    cpa, sys0 = criterion1_solved["cpa"], criterion1_solved["sys"]
    rng = np.random.default_rng(88)
    worst = 0.0
    for trial in range(20):
        x0 = rng.uniform(-1.5, 0.6)
        off = rng.choice([-1e-3, 1e-3])
        d = contraction_probe(cpa, sys0, [x0], [off], TWO_PI, 2000)
        growth = float((np.diff(d) / d[0]).max())
        worst = max(worst, growth)
        assert growth <= 1e-6, (trial, growth)

    # negative control: identity metric on an expanding system
    sys_exp = parse_system("dim=1; period=1; f1 = x1")
    cx = build_complex([[[-1.0, 1.0]]], 1.0, 1)
    bad = constant_metric(cx, np.eye(1))
    d = contraction_probe(bad, sys_exp, [0.1], [1e-3], 1.0, 200)
    assert np.any(np.diff(d) > 0.0)
    _ok("8", f"20 probes nonincreasing (worst relative step {worst:.2e} "
             f"<= 1e-6); expanding negative control grows")
