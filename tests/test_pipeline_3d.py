"""End-to-end smoke of the n = 3 paths: 24 simplices per cell, 4-d
barycentrics, size-3 blocks through the solver and verifier."""

import json

import numpy as np
import pytest

from cpacontract.assembly import assemble
from cpacontract.cli import (
    Config,
    certificate_bytes,
    cmd_synthesize,
    cmd_verify,
    load_certificate,
    rebuild_from_certificate,
)
from cpacontract.cpa import CPAMetric
from cpacontract.solver import certify, solve
from cpacontract.systems import parse_system
from cpacontract.triangulation import build_complex, check_complex
from cpacontract.verify import verify_contraction_sampled

from reference import constant_metric, lm_value, orbital_derivative_plus


def test_three_dimensional_pipeline():
    # affine field keeps the interpolation margin at zero, so the coarsest
    # level is already feasible and the run stays quick
    sys3 = parse_system("dim=3; period=1; f1 = -x1; f2 = -2*x2; f3 = -x3")
    cx = build_complex([[[0.05, 0.95]] * 3], 1.0, 0)
    assert cx.n_simplices == 24  # (n+1)! simplices in the single cell

    report = check_complex(cx)
    assert report.ok

    problem, vmap = assemble(cx, sys3, 0.01, uniform_cd=True,
                             objective="min_c")
    sol = solve(problem)
    assert sol.status in ("Optimal", "Feasible")
    assert sol.block_min_eigs.min() >= -1e-8
    assert certify(problem, sol.y, 1e-6).clean

    C, D = vmap.bound_constants(sol.y)
    cpa = CPAMetric.from_solution(cx, sol.y, vmap)
    rep = verify_contraction_sampled(cpa, sys3, C, D, samples=2000, seed=0,
                                     tol=1e-6, eps0=0.01)
    assert rep.passed
    assert rep.max_lambda_max <= -1.0 + 1e-6
    # mildest decay rate is -1, so the bound must sit at or above it
    assert -1.0 - 1e-6 <= rep.bound_from_C < 0.0


def test_block_min_eigs_are_certify_answer():
    # the solver reports the blocks' smallest eigenvalues through certify,
    # bit for bit, in the groups' block order
    sys3 = parse_system("dim=3; period=1; f1 = -x1; f2 = -2*x2; f3 = -x3")
    cx = build_complex([[[0.05, 0.95]] * 3], 1.0, 0)
    problem, _ = assemble(cx, sys3, 0.01, uniform_cd=True, objective="min_c")
    sol = solve(problem)
    mins = certify(problem, sol.y, 0.0).min_eigs
    assert sol.block_min_eigs.shape == (problem.n_blocks,)
    assert sol.block_min_eigs.tobytes() == mins.tobytes()


def _refuse_3x3(fun):
    def guarded(a, *args, **kwargs):
        if np.shape(a)[-2:] == (3, 3):
            raise AssertionError(f"np.linalg.{fun.__name__} on 3 x 3 blocks")
        return fun(a, *args, **kwargs)

    return guarded


def test_no_lapack_call_on_size_three_blocks(monkeypatch):
    # the solver and the sampled verifier treat every 3 x 3 block with the
    # closed forms of smallmat; the mesh is built first, because the
    # triangulation inverts 4 x 4 matrices
    sys3 = parse_system("dim=3; period=1; f1 = -x1; f2 = -2*x2; f3 = -x3")
    cx = build_complex([[[0.05, 0.95]] * 3], 1.0, 0)
    for name in ("eigvalsh", "eigh", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name,
                            _refuse_3x3(getattr(np.linalg, name)))
    with pytest.raises(AssertionError, match="3 x 3"):
        np.linalg.eigvalsh(np.eye(3))
    problem, vmap = assemble(cx, sys3, 0.01, uniform_cd=True,
                             objective="min_c")
    sol = solve(problem)
    assert sol.status in ("Optimal", "Feasible")
    C, D = vmap.bound_constants(sol.y)
    cpa = CPAMetric.from_solution(cx, sol.y, vmap)
    rep = verify_contraction_sampled(cpa, sys3, C, D, samples=2000, seed=0,
                                     tol=1e-6, eps0=0.01)
    assert rep.passed


def test_three_dimensional_orbital_derivative():
    sys3 = parse_system("dim=3; period=1; f1 = -x1; f2 = -x2; f3 = -x3")
    cx = build_complex([[[-0.5, 0.5]] * 3], 1.0, 0)
    cpa = constant_metric(cx, np.diag([1.0, 2.0, 3.0]))
    point = [0.3, 0.1, -0.2, 0.05]
    assert np.allclose(orbital_derivative_plus(cpa, sys3, point), 0.0,
                       atol=1e-12)
    # L_M for M = diag(1,2,3), Dxf = -I: generalized eigs all -2, halved
    assert abs(lm_value(cpa, sys3, point) + 1.0) <= 1e-9


AFFINE_3D = {
    "system": "dim=3; period=1; f1 = -x1; f2 = -2*x2; f3 = -x3",
    "region": [[[0.05, 0.95]] * 3],
    "epsilon0": 0.01,
    "k_min": 0,
    "k_max": 0,
    "mode": {"uniform_cd": True, "objective": "min_c"},
    "verify": {"samples": 2000, "seed": 0, "tol": 1e-6},
}


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_indefinite_metric_negative_control(tmp_path):
    # a 3-D metric that is indefinite at one vertex must fail verification;
    # before, the Cholesky step of L_M raised and cmd_verify reported a
    # numerical failure (exit 4) instead of FAIL (exit 2)
    path = tmp_path / "affine3d.json"
    code, _ = cmd_synthesize(Config.from_dict(AFFINE_3D), out_path=str(path),
                             progress=lambda *a, **k: None)
    assert code == 0
    cert = load_certificate(str(path))
    row = cert["metric_upper"][len(cert["metric_upper"]) // 2]
    row[0] = format(-float(row[0]), ".17g")
    bad = tmp_path / "negated.json"
    bad.write_bytes(certificate_bytes(cert))
    out = tmp_path / "report.json"
    assert cmd_verify(str(bad), progress=lambda *a, **k: None,
                      report_path=str(out)) == 2
    # the report is strict JSON: the undefined L_M is null, not Infinity
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["passed"] is False
    assert report["max_lm"] is None

    _, sys3, cx, cpa = rebuild_from_certificate(cert)
    rep = verify_contraction_sampled(
        cpa, sys3, float(cert["constants"]["C"]),
        float(cert["constants"]["D"]), samples=2000, seed=0, tol=1e-6,
        eps0=0.01)
    assert rep.passed is False
    assert rep.min_metric_eig < 0.0
    assert rep.max_lm == np.inf


# The 3-D nonlinear field of the benchmark's synth-3d workload.
SYNTH_3D = {
    "system": ("dim=3; period=1; smoothness=c3; "
               "f1 = -x1 + 1.5*x2 + 0.2*x2*x3; "
               "f2 = -x2 + 1.5*x3 - 0.2*x1*x3; "
               "f3 = -x3 + 0.2*x1*x2"),
    "region": [[[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]]],
    "epsilon0": 0.01,
    "k_min": 0,
    "k_max": 2,
    "mode": {"uniform_cd": True, "objective": "min_c"},
    "verify": {"samples": 100000, "seed": 12345, "tol": 1e-6},
}


def test_nonlinear_3d_answer():
    # recorded before the cone-specific solver kernels; a faster solver
    # must give the same answer
    code, cert = cmd_synthesize(Config.from_dict(SYNTH_3D),
                                progress=lambda *a, **k: None)
    assert code == 0
    assert cert["k"] == 0
    assert cert["solver"]["status"] == "Optimal"
    assert cert["solver"]["iterations"] == 46
    assert float(cert["constants"]["C"]) == pytest.approx(
        24.54049901617761, rel=1e-6)
    assert cert["verification"]["passed"] is True
