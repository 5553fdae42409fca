"""One measurement of this checkout, or two source trees in alternated pairs.

Usage: python3 tools/pairs.py peak NAME [PARENT_DIR CHANGE_DIR] [--pairs N]
       python3 tools/pairs.py solve [PARENT_DIR CHANGE_DIR] [--pairs N]
       python3 tools/pairs.py coldstart CERT [PARENT_DIR CHANGE_DIR]
                              [--pairs N]

A measure is a probe: Python code that one fresh process runs with a
tree's `src`, `perfbench` and `tests` on its path. It prints one record:
`metrics`, numbers where lower is better; `answer`, what the two trees
must agree on; and any further labels. The harness adds `process_s`, the
seconds from the process's start to its exit.

- `peak NAME`: one `cli.cmd_synthesize` of NAME, a perfbench synthesis
  workload (`synth-1d`, `synth-2d`, `synth-3d`) or an acceptance criterion
  (`criterion-1`, `criterion-2`), without an output file. Metrics: its
  wall seconds, the final `ru_maxrss` in MB (`maxrss_mb`) and `ru_maxrss`
  at the end of each stage of each level, in order, as `K{K}_{stage}_mb`
  with stage `mesh`, `assembly`, `solve` and `verify` (the returns of
  `build_complex`, `assemble`, `solve` and `build_certificate`). Answer:
  exit code, certified level `k`, solver status and iterations, C and the
  Floquet bound (null when no level was certified). Label `peak_stage`:
  the first [K, stage] whose end saw the final peak.
- `solve`: the synth-2d, then the synth-3d configuration of
  `perfbench/workloads.py` at its first level K: mesh, `assemble`, then
  `solve`, timed alone. Metrics per workload: the solve's seconds per
  iteration, and the seconds of the matrix cones' kernels within it
  (`solver._MatrixCone`'s constructor, `steps` and `factor`, the interior
  tests), in total and each. Answer: status and iterations per workload.
- `coldstart CERT`: a timed `import cpacontract.cli` (`import_s`), then
  `cli.main(["verify", CERT])`, so `process_s` is a cold `verify` as a
  user waits for it. Answer: the verify exit code and whether the process
  loaded any `scipy` module.

Without trees, the probe runs once on this checkout and its record is
printed. With two trees, each tree first runs one unrecorded warm-up
(bytecode, file cache), then N pairs (10 by default) run the probe once
per tree, the parent first in even pairs. One JSON line follows: per tree
the quartiles of each metric (to 4 significant digits) and how often each
answer and label was seen; per metric the pairs each tree won with the
lower value (ties count for neither); and `same_answer`, whether the two
answers agreed in every pair.

The full criterion-2 run (~30 s, ~1.1 GB) is too large for a benchmark
workload; compare its peaks here.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 1800
MARK = "PAIRS-RECORD "

# run before every probe
PRELUDE = f"""
import json, sys

def report(metrics, answer, **labels):
    print({MARK!r} + json.dumps(dict(metrics=metrics, answer=answer,
                                     **labels)))
"""

PEAK = """
import resource, time
import test_acceptance, workloads
from cpacontract import cli

CONFIGS = {"synth-1d": workloads.SYNTH_1D, "synth-2d": workloads.SYNTH_2D,
           "synth-3d": workloads.SYNTH_3D,
           "criterion-1": test_acceptance.CRITERION_1_CONFIG,
           "criterion-2": test_acceptance.CRITERION_2_CONFIG}

def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

stages = []  # [K, stage, MB] at the end of each stage

def ends(name, stage):
    fun = getattr(cli, name)

    def wrapper(*args, **kwargs):
        out = fun(*args, **kwargs)
        level = args[2] if stage == "mesh" else stages[-1][0]
        stages.append([level, stage, maxrss_mb()])
        return out
    setattr(cli, name, wrapper)

for name, stage in (("build_complex", "mesh"), ("assemble", "assembly"),
                    ("solve", "solve"), ("build_certificate", "verify")):
    ends(name, stage)
config = cli.Config.from_dict(CONFIGS[sys.argv[1]])
t0 = time.perf_counter()
code, cert = cli.cmd_synthesize(config, progress=lambda *a, **k: None)
wall = time.perf_counter() - t0
peak = max(mb for _, _, mb in stages)
solver = cert["solver"] if cert else {}
report(dict({"wall_s": wall, "maxrss_mb": maxrss_mb()},
            **{f"K{k}_{stage}_mb": mb for k, stage, mb in stages}),
       {"exit_code": code, "k": cert["k"] if cert else None,
        "status": solver.get("status"),
        "iterations": solver.get("iterations"),
        "C": float(cert["constants"]["C"]) if cert else None,
        "floquet_bound": float(cert["floquet_bound"]) if cert else None},
       peak_stage=next([k, s] for k, s, mb in stages if mb == peak))
"""

SOLVE = """
import time
import workloads
from cpacontract import cli, solver
from cpacontract.assembly import assemble
from cpacontract.triangulation import build_complex

spent = {}

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
metrics, answer = {}, {}
for name, raw in (("synth-2d", workloads.SYNTH_2D),
                  ("synth-3d", workloads.SYNTH_3D)):
    spent.update(construct=0.0, steps=0.0, interior=0.0)
    config = cli.Config.from_dict(raw)
    system = config.build_system()
    cx = build_complex(config.region, system.T, config.k_min,
                       config.scaling_matrix(system.n))
    problem, _ = assemble(cx, system, config.epsilon0,
                          uniform_cd=config.uniform_cd,
                          objective=config.objective)
    t = time.perf_counter()
    sol = solver.solve(problem, config.solver)
    seconds = time.perf_counter() - t
    metrics[f"{name}.solve_s_per_iter"] = seconds / max(sol.iterations, 1)
    metrics[f"{name}.cone_kernels_s"] = sum(spent.values())
    metrics.update({f"{name}.cone_{key}_s": s for key, s in spent.items()})
    answer[name] = {"status": sol.status, "iterations": sol.iterations}
report(metrics, answer)
"""

COLDSTART = """
import time
t = time.perf_counter()
import cpacontract.cli
import_s = time.perf_counter() - t
code = cpacontract.cli.main(["verify", sys.argv[1]])
report({"import_s": import_s},
       {"verify_exit": code, "loads_scipy": any(
           m.partition(".")[0] == "scipy" for m in sys.modules)})
"""

# measure -> (probe, the name of its one argument or None)
MEASURES = {"peak": (PEAK, "NAME"), "solve": (SOLVE, None),
            "coldstart": (COLDSTART, "CERT")}


def run(probe, args, tree):
    """The record of one fresh process running `probe` on `tree`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(tree, sub) for sub in ("src", "perfbench", "tests")))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", PRELUDE + probe, *args],
                         env=env, capture_output=True, text=True,
                         timeout=TIMEOUT_S)
    seconds = time.perf_counter() - t0
    lines = [x for x in out.stdout.splitlines() if x.startswith(MARK)]
    if out.returncode or not lines:
        sys.exit(f"the probe failed on {tree} (exit {out.returncode}):\n"
                 f"{out.stderr}")
    record = json.loads(lines[-1][len(MARK):])
    record["metrics"]["process_s"] = seconds
    return record


def _quartiles(values):
    import numpy as np

    return dict(zip(("q1", "median", "q3"), (float(f"{q:.4g}") for q in
                                             np.percentile(values,
                                                           [25, 50, 75]))))


def compare(measure, trees, pairs):
    """The record of `pairs` alternated pairs of `measure(tree)` on
    `trees`, {"parent": dir, "change": dir}, after one warm-up each."""
    for tree in trees.values():
        measure(tree)
    runs = {side: [] for side in trees}
    for i in range(pairs):
        for side in (("parent", "change") if i % 2 == 0
                     else ("change", "parent")):
            runs[side].append(measure(trees[side]))
    both = list(zip(runs["parent"], runs["change"]))
    names = list(dict.fromkeys(key for rs in runs.values() for r in rs
                               for key in r["metrics"]))
    out = {"pairs": pairs}
    for side, rs in runs.items():
        values = {key: [r["metrics"][key] for r in rs if key in r["metrics"]]
                  for key in names}
        out[side] = {"metrics": {key: _quartiles(v)
                                 for key, v in values.items() if v}}
        for field in dict.fromkeys(f for r in rs for f in r):
            if field != "metrics":
                out[side][field] = dict(collections.Counter(
                    json.dumps(r.get(field), sort_keys=True) for r in rs))
    shared = {key: [(a["metrics"][key], b["metrics"][key]) for a, b in both
                    if key in a["metrics"] and key in b["metrics"]]
              for key in names}
    out["wins"] = {key: {"parent": sum(a < b for a, b in ab),
                         "change": sum(b < a for a, b in ab)}
                   for key, ab in shared.items()}
    out["same_answer"] = all(a["answer"] == b["answer"] for a, b in both)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("measure", choices=MEASURES)
    p.add_argument("args", nargs="*",
                   metavar="[NAME | CERT] [PARENT_DIR CHANGE_DIR]")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    probe, arg_name = MEASURES[args.measure]
    probe_args, trees = (args.args[:1], args.args[1:]) if arg_name else (
        [], args.args)
    if arg_name and not probe_args:
        p.error(f"{args.measure} needs {arg_name}")
    if len(trees) not in (0, 2):
        p.error("give both PARENT_DIR and CHANGE_DIR, or neither")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    head = {"measure": args.measure, "arg": (probe_args or [None])[0]}
    if trees:
        record = compare(lambda tree: run(probe, probe_args, tree), dict(zip(
            ("parent", "change"), map(os.path.abspath, trees))), args.pairs)
    else:
        record = run(probe, probe_args, ROOT)
    print(json.dumps(dict(head, **record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
