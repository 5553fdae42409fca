"""Write the pipeline's answers to OUTDIR and print one SHA-256 per file.

Usage: python3 tools/answers.py OUTDIR

Two checkouts give byte-identical answers when the printed lists of two
runs, one per checkout, do not `diff`. The files are:

- the SYNTH_1D, SYNTH_2D and SYNTH_3D certificates of
  `perfbench/workloads.py` at seed 7;
- recheck-1d's `cmd_verify --out` report, with the lines that `cmd_verify`
  and `cmd_floquet` print for that SYNTH_1D certificate;
- the SDPA text and the `Solution` of three small meshes (1-D at K=3,
  van der Pol at K=2, affine 3-D at K=0) in all four
  (uniform_cd, objective) modes;
- the `Solution`s of 12 draws of `random_feasible_problem` from
  `tests/test_solver.py` (seed 11, every other one with an objective);
- the dynamics oracle: recheck-1d's 20 seeded contraction probe series,
  `find_periodic_orbit`'s x*, monodromy matrix and exponents for the
  three systems of `tests/test_orbits.py::TestRecordedValues.test_floquet`
  and the SYNTH_3D system, one `integrate` trajectory, and for
  `EMITTER_SYSTEM`, which takes every branch of the compiled RK4 loop, a
  trajectory and a monodromy matrix; then a run of `DOMAIN_SYSTEM` that
  ends in a DomainError at step 3;
- the mesh geometry: `simp_gen` and `simp_verts` of the meshes of
  `tests/test_triangulation.py::TestBuild::test_diameter_bound_exact` and
  `tests/test_cli.py::TestExportAndCheck::test_empty_selection`, of the
  workloads' meshes (SYNTH_1D at K = 0 to 5, SYNTH_2D at K = 6, SYNTH_3D
  at K = 0) and of 60 seeded random one- or two-box regions in one to
  three dimensions, and the `check_complex` reports of the 3-D
  [0.05, 0.95]^3 mesh at K = 0 and 1 and of criterion 3's 2-D mesh at
  K = 2.

Floats are written as `float.hex`, so equal files mean equal bits.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "perfbench", "tests"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import numpy as np  # noqa: E402

from cpacontract import cli  # noqa: E402
from cpacontract import orbits  # noqa: E402
from cpacontract.assembly import assemble, export_sdpa  # noqa: E402
from cpacontract.errors import DomainError, NonFiniteStateError  # noqa: E402
from cpacontract.solver import solve  # noqa: E402
from cpacontract.systems import parse_system  # noqa: E402
from cpacontract.triangulation import (  # noqa: E402
    ScalingMatrix,
    build_complex,
    check_complex,
)
from test_solver import random_feasible_problem  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_STEPS,
    SYNTH_1D,
    SYNTH_2D,
    SYNTH_3D,
    WORKLOADS,
    seeded_config,
)

SEED = 7

MESHES = {
    "linear-1d-k3": ("dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
                     [[[-2.0, 1.0]]], 3),
    "vdp-k2": ("dim=2; period=1; f1 = x2; f2 = -x1 - x2*(x1^2 - 1)",
               [[[-0.5, 0.5], [-0.5, 0.5]]], 2),
    "affine-3d-k0": ("dim=3; period=1; f1 = -x1; f2 = -2*x2; f3 = -x3",
                     [[[0.05, 0.95]] * 3], 0),
}

# the systems of tests/test_orbits.py::TestRecordedValues.test_floquet, and
# SYNTH_3D's
FLOQUET_SYSTEMS = (
    "dim=1; period=6.283185307179586; f1 = -x1 - x1^3 + sin(t)",
    "dim=2; period=6.283185307179586; f1 = x2; "
    "f2 = -x1 - x2 - x1^3 + 0.5*cos(t)",
    "dim=2; period=6.283185307179586; f1 = -x1 + x2/(2 + x1^2); "
    "f2 = -2*x2 + exp(-x1^2)*sin(t)",
    SYNTH_3D["system"],
)

# time tables of cos(t) and exp(-t), a function of the state, a division
# and a negative power
EMITTER_SYSTEM = ("dim=2; period=6.283185307179586; f1 = x2 + cos(t)*exp(-t); "
                  "f2 = -sin(x1) - x2/(2 + x1^2) + 0.1*(1 + x2^2)^-2")
# x2 = t is divided by the table of t - 0.5 at its zero: the last stage of
# step 3 of 8
DOMAIN_SYSTEM = "dim=2; period=1; f1 = x2/(t - 0.5); f2 = 1"

# (region, T, K, spatial scaling) of meshes with simplices, in cells that
# meet the region, with no vertex and no centroid strictly inside it, and
# the meshes whose face check runs on rank-deficient systems
SELECTION_MESHES = [([[[0.0, 0.5]] * n], 1.0, K, [s] * n)
                    for n in (1, 2) for K in range(3) for s in (1.0, 0.7)]
SELECTION_MESHES.append(([[[0.4, 0.45]]], 6.283185307179586, 4, [1.0]))
WORKLOAD_MESHES = ([(SYNTH_1D, K) for K in range(6)]
                   + [(SYNTH_2D, 6), (SYNTH_3D, 0)])
CHECKED_MESHES = [([[[0.05, 0.95]] * 3], 0), ([[[0.05, 0.95]] * 3], 1),
                  ([[[0.0, 0.25], [0.0, 0.25]]], 2)]


def random_meshes():
    """(region, T, K, spatial scaling) of 60 seeded one- or two-box regions
    in one to three dimensions, T = 1. Some first boxes have their edges on
    cell facets; a second box starts inside the first, so the union has a
    connected interior."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(60):
        n, K = 1 + i % 3, int(rng.integers(0, 3 - (i % 3 == 2)))
        spatial = rng.uniform(0.5, 1.5, n)
        lo = rng.uniform(-1.0, 0.5, n)
        hi = lo + rng.uniform(0.05, 0.8, n)
        if rng.random() < 0.3:
            size = 2.0 ** -K * spatial
            first = np.round(lo / size)
            last = first + np.maximum(np.round((hi - lo) / size), 1.0)
            lo, hi = first * size, last * size
        boxes = [(lo, hi)]
        if rng.random() < 0.5:
            lo2 = rng.uniform(lo, hi)
            boxes.append((lo2, lo2 + rng.uniform(0.05, 0.8, n)))
        out.append(([np.column_stack(b).tolist() for b in boxes], 1.0, K,
                    spatial.tolist()))
    return out


def _hex(a):
    return [float(v).hex() for v in np.asarray(a, dtype=float).ravel()]


def solution_record(sol):
    ray = sol.dual_ray
    return {
        "status": sol.status, "iterations": int(sol.iterations),
        "notes": [str(n) for n in sol.notes],
        "objective": float(sol.objective).hex(),
        "duality_gap": float(sol.duality_gap).hex(),
        "y": _hex(sol.y), "block_min_eigs": _hex(sol.block_min_eigs),
        "schur": sol.schur,
        "dual_ray": None if ray is None else {
            k: _hex(v) for k, v in sorted(ray.items())},
    }


def write(outdir, name, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(os.path.join(outdir, name), mode) as fh:
        fh.write(data)


def write_json(outdir, name, obj):
    write(outdir, name, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def certificates(outdir):
    for name, config in (("synth-1d", SYNTH_1D), ("synth-2d", SYNTH_2D),
                         ("synth-3d", SYNTH_3D)):
        path = os.path.join(outdir, f"{name}.cert.json")
        cfg = cli.Config.from_dict(seeded_config(config, SEED))
        cli.cmd_synthesize(cfg, out_path=path, progress=lambda *a: None)
    cert = os.path.join(outdir, "synth-1d.cert.json")
    lines = []
    code = cli.cmd_verify(cert, progress=lines.append,
                          report_path=os.path.join(outdir,
                                                   "recheck-1d.report.json"))
    lines.append(f"cmd_verify exit {code}")
    code = cli.cmd_floquet(cli.Config.from_dict(seeded_config(SYNTH_1D, SEED)),
                           cert, progress=lines.append)
    lines.append(f"cmd_floquet exit {code}")
    write(outdir, "recheck-1d.lines.txt", "\n".join(lines) + "\n")


def meshes(outdir):
    for name, (text, region, K) in MESHES.items():
        sys0 = parse_system(text)
        cx = build_complex(region, sys0.T, K)
        for uniform in (True, False):
            for objective in ("none", "min_c"):
                problem, _ = assemble(cx, sys0, 0.01, uniform_cd=uniform,
                                      objective=objective)
                tag = f"{name}-{'uniform' if uniform else 'simplex'}-{objective}"
                write(outdir, f"{tag}.dat-s", export_sdpa(problem))
                write_json(outdir, f"{tag}.solution.json",
                           solution_record(solve(problem)))


def random_problems(outdir):
    rng = np.random.default_rng(11)
    for i in range(12):
        problem, _ = random_feasible_problem(rng, with_objective=i % 2 == 1)
        write_json(outdir, f"random-{i:02d}.solution.json",
                   solution_record(solve(problem)))


def oracle(outdir):
    record = {"probes": [], "orbits": []}
    with tempfile.TemporaryDirectory() as workdir:
        state = WORKLOADS["recheck-1d"].setup(SEED, workdir)
        _, sys0, _, cpa = cli.rebuild_from_certificate(
            cli.load_certificate(state["path"]))
        for x0, off in state["probes"]:
            d = orbits.contraction_probe(cpa, sys0, [x0], [off], sys0.T,
                                         PROBE_STEPS)
            record["probes"].append(_hex(d))
    for text in FLOQUET_SYSTEMS:
        sys1 = parse_system(text)
        res = orbits.find_periodic_orbit(sys1, np.zeros(sys1.n), steps=1024)
        record["orbits"].append({
            "x_star": _hex(res.x_star), "residual": _hex(res.residual),
            "monodromy": _hex(res.monodromy), "exponents": _hex(res.exponents)})
    sys2 = parse_system(FLOQUET_SYSTEMS[1])
    traj = orbits.integrate(sys2, 0.0, [0.1, 0.2], sys2.T, 1000)
    record["integrate"] = {"t": _hex(traj.t), "x": _hex(traj.x),
                           "max_local_error": _hex(traj.max_local_error)}
    sys3 = parse_system(EMITTER_SYSTEM)
    traj = orbits.integrate(sys3, 0.0, [0.1, 0.2], sys3.T, 1000)
    mono = orbits.monodromy(sys3, orbits.FloquetResult(np.array([0.1, 0.2]),
                                                       0.0), steps=512)
    record["emitter"] = {"x": _hex(traj.x),
                         "max_local_error": _hex(traj.max_local_error),
                         "monodromy": _hex(mono.monodromy),
                         "residual": _hex(mono.residual)}
    sys4, rows = parse_system(DOMAIN_SYSTEM), []
    with np.errstate(all="ignore"):
        done, domain, _ = sys4.stepper()(0.0, 0.125, 8, [0.0, 0.0],
                                         rows.extend)
    error = None
    try:
        orbits.integrate(sys4, 0.0, [0.0, 0.0], 1.0, 8)
    except (DomainError, NonFiniteStateError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    record["domain_error"] = {"done": done, "domain": domain,
                              "x": _hex(rows), "error": error}
    write_json(outdir, "oracle.json", record)


def geometry(outdir):
    record = {"selection": [], "workloads": [], "random": [], "checks": []}
    meshes = [("selection", region, T, K, ScalingMatrix.from_spatial(s))
              for region, T, K, s in SELECTION_MESHES]
    for config, K in WORKLOAD_MESHES:
        cfg = cli.Config.from_dict(config)
        sys0 = cfg.build_system()
        meshes.append(("workloads", cfg.region, sys0.T, K,
                       cfg.scaling_matrix(sys0.n)))
    meshes += [("random", region, T, K, ScalingMatrix.from_spatial(s))
               for region, T, K, s in random_meshes()]
    for part, region, T, K, scaling in meshes:
        cx = build_complex(region, T, K, scaling)
        record[part].append({"simp_gen": cx.simp_gen.tolist(),
                             "simp_verts": cx.simp_verts.tolist()})
    for region, K in CHECKED_MESHES:
        report = check_complex(build_complex(region, 1.0, K))
        record["checks"].append({
            "face_violations": report.face_violations,
            "duplicate_simplices": report.duplicate_simplices,
            "pairs_checked": report.pairs_checked})
    write_json(outdir, "geometry.json", record)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    outdir = argv[1]
    os.makedirs(outdir, exist_ok=True)
    certificates(outdir)
    meshes(outdir)
    random_problems(outdir)
    oracle(outdir)
    geometry(outdir)
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
