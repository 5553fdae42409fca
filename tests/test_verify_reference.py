"""Verification reports pinned bit for bit.

`verify_reference.json` holds three solved metrics (the criterion-1 level
of the `solved_linear` fixture, a damped van der Pol field on a short
period, and the affine 3-D field of `test_pipeline_3d.py`) together with
the full report the verifier gave for each. The metrics are stored, not
re-solved, so these tests pin the verifier alone. The reports no longer
carry `margin_ok`, a check that compared the recomputed margin with
itself, and it must stay gone.

To re-record the reports after a deliberate change of the verifier's
values, run `PYTHONPATH=src python tests/test_verify_reference.py`: it
keeps the stored metrics, C and D. With `--resolve` it solves the metrics
anew first, for a change of the solver's answers.
"""

import json
import pathlib
import sys

import pytest

from cpacontract.assembly import assemble
from cpacontract.cpa import CPAMetric
from cpacontract.solver import solve
from cpacontract.systems import parse_system
from cpacontract.triangulation import build_complex
from cpacontract.verify import verify_contraction_sampled

DATA = pathlib.Path(__file__).with_name("verify_reference.json")

CASES = {
    "linear_1d": {
        "system": "dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
        "region": [[[-2.0, 1.0]]], "K": 5, "samples": 20000, "seed": 3},
    "vdp_2d": {
        "system": ("dim=2; period=0.25; smoothness=c3; "
                   "f1 = x2; f2 = -x1 - 2*(1 - x1^2)*x2"),
        "region": [[[-0.1, 0.1], [-0.1, 0.1]]], "K": 3, "samples": 20000,
        "seed": 5},
    "affine_3d": {
        "system": "dim=3; period=1; f1 = -x1; f2 = -2*x2; f3 = -x3",
        "region": [[[0.05, 0.95]] * 3], "K": 0, "samples": 2000, "seed": 0},
}
EPS0 = 0.01


def _setup(case):
    sys0 = parse_system(case["system"])
    return sys0, build_complex(case["region"], sys0.T, case["K"])


def _report(case, metric, C, D):
    """The report `cmd_synthesize` writes into a certificate."""
    sys0, cx = _setup(case)
    cpa = CPAMetric(cx, metric)
    rep = verify_contraction_sampled(cpa, sys0, C, D, samples=case["samples"],
                                     seed=case["seed"], tol=1e-6, eps0=EPS0)
    rep.attach_interpolation_check(cpa, sys0, seed=case["seed"])
    rep.attach_boundary_check(cx, sys0, seed=case["seed"])
    return rep.to_dict()


@pytest.fixture(scope="module")
def reference():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bit_identical(reference, name):
    ref = reference[name]
    got = _report(CASES[name], ref["metric"], ref["C"], ref["D"])
    want = ref["report"]
    assert "margin_ok" not in got
    assert got == want
    # repr-exact, so a flipped sign of zero shows too
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _record(resolve=False):
    """Write each case's report, for its stored metric, C and D, or with
    `resolve` for those of a new solve."""
    out = {} if resolve else json.loads(DATA.read_text())
    for name, case in CASES.items():
        if resolve:
            sys0, cx = _setup(case)
            problem, vmap = assemble(cx, sys0, EPS0, uniform_cd=True,
                                     objective="min_c")
            sol = solve(problem)
            assert sol.status in ("Optimal", "Feasible"), (name, sol.status)
            C, D = vmap.bound_constants(sol.y)
            out[name] = {"C": C, "D": D,
                         "metric": vmap.metric_values(sol.y).tolist()}
        ref = out[name]
        ref["report"] = _report(case, ref["metric"], ref["C"], ref["D"])
    DATA.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    _record(resolve="--resolve" in sys.argv[1:])
