"""Solve time of the synthesis workloads in two source trees.

Usage: python3 tools/solvetime.py PARENT_DIR CHANGE_DIR [--pairs N]

Each pair runs, per tree and per workload (the SYNTH_2D and SYNTH_3D
configurations of `perfbench/workloads.py`, at their first level K), one
fresh process that builds the mesh, calls `assemble` and then `solve`,
alternating which tree goes first. The process times `solve` alone and,
by wrapping `solver._MatrixCone`'s constructor, `steps` and `factor` (the
interior tests), the matrix cones' kernels within it. One unrecorded run
per tree first compiles its bytecode. Prints one JSON line: per workload
and tree the median and quartiles of the solve's seconds per iteration
and of the cone kernels' seconds per solve, the number of pairs each tree
won on either, and whether the two trees gave the same status and
iteration counts in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

WORKLOADS = {"synth-2d": "SYNTH_2D", "synth-3d": "SYNTH_3D"}

PROBE = """
import json, sys, time
sys.path.insert(0, "perfbench")
import workloads
from cpacontract import cli, solver
from cpacontract.assembly import assemble
from cpacontract.triangulation import build_complex

spent = {"construct": 0.0, "steps": 0.0, "interior": 0.0}

def timed(fun, key):
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fun(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - t
    return wrapper

cone = solver._MatrixCone
cone.__init__ = timed(cone.__init__, "construct")
cone.steps = timed(cone.steps, "steps")
cone.factor = staticmethod(timed(cone.factor, "interior"))
config = cli.Config.from_dict(getattr(workloads, sys.argv[1]))
system = config.build_system()
cx = build_complex(config.region, system.T, config.k_min,
                   config.scaling_matrix(system.n))
problem, _ = assemble(cx, system, config.epsilon0,
                      uniform_cd=config.uniform_cd, objective=config.objective)
t = time.perf_counter()
sol = solver.solve(problem, config.solver)
seconds = time.perf_counter() - t
print("SOLVETIME", json.dumps({"status": sol.status,
                               "iterations": sol.iterations,
                               "solve_s": seconds, "cone_s": spent}))
"""


def measure(tree, name):
    """The probe's report of one fresh process on workload `name`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, "-c", PROBE, WORKLOADS[name]],
                         env=env, cwd=tree, capture_output=True, text=True,
                         timeout=600, check=True)
    line = [x for x in out.stdout.splitlines() if x.startswith("SOLVETIME ")]
    rec = json.loads(line[-1][len("SOLVETIME "):])
    rec["per_iter_s"] = rec["solve_s"] / max(rec["iterations"], 1)
    rec["cone_total_s"] = sum(rec["cone_s"].values())
    return rec


def _quartiles(values):
    return dict(zip(("q1", "median", "q3"),
                    np.percentile(values, [25, 50, 75]).round(5).tolist()))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for tree in trees.values():
        measure(tree, "synth-3d")
    runs = {name: {side: [] for side in trees} for name in WORKLOADS}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in WORKLOADS:
            for side in order:
                runs[name][side].append(measure(trees[side], name))
    out = {"pairs": args.pairs}
    for name, per_side in runs.items():
        rec = {}
        for side, rs in per_side.items():
            rec[side] = {
                "solve_s_per_iter": _quartiles([r["per_iter_s"] for r in rs]),
                "cone_kernels_s": _quartiles([r["cone_total_s"] for r in rs]),
                "cone_parts_median_s": {
                    key: round(float(np.median([r["cone_s"][key]
                                                for r in rs])), 5)
                    for key in rs[0]["cone_s"]},
                "status": sorted({r["status"] for r in rs}),
                "iterations": sorted({r["iterations"] for r in rs})}
        pairs = list(zip(per_side["parent"], per_side["change"]))
        rec["wins"] = {key: {
            "parent": sum(a[key] < b[key] for a, b in pairs),
            "change": sum(b[key] < a[key] for a, b in pairs)}
            for key in ("per_iter_s", "cone_total_s")}
        rec["same_status_and_iterations"] = all(
            (a["status"], a["iterations"]) == (b["status"], b["iterations"])
            for a, b in pairs)
        out[name] = rec
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
