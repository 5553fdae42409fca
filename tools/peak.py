"""Peak RSS of one synthesis, or of two source trees in alternated pairs.

Usage: python3 tools/peak.py NAME
       python3 tools/peak.py NAME PARENT_DIR CHANGE_DIR [--pairs N]

NAME is a perfbench synthesis workload (`synth-1d`, `synth-2d`,
`synth-3d`, the configurations of `perfbench/workloads.py`) or an
acceptance criterion (`criterion-1`, `criterion-2`, the configurations of
`tests/test_acceptance.py`).

With NAME alone, one `cli.cmd_synthesize` call runs in this process
without an output file, and one JSON line follows: wall seconds,
`ru_maxrss` in MB, exit code, certified level K, solver status and
iterations, C and the Floquet bound (null when no level was certified).
A second JSON line attributes the peak: `ru_maxrss` at the end of each
stage of each level, in order, as [K, stage, MB] with stage `mesh`
(`build_complex` returned), `assembly`, `solve` and `verify` (each read
at the `progress` message that ends it), and `peak_stage`, the first
[K, stage] whose end saw the final peak.

With two trees, each pair runs that measurement once per tree, each in a
fresh process on the tree's own sources and configurations, alternating
which tree goes first (N pairs, 5 by default). One JSON line follows: per
tree the median and quartiles of `ru_maxrss` and of the wall seconds, and
how often each peak stage was seen; the pairs in which each tree had the
lower peak; and whether status, level and iterations agreed in every
pair.

The full criterion-2 run (~30 s, ~1.1 GB) is too large for a benchmark
workload; compare its peaks with the pair mode.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("synth-1d", "synth-2d", "synth-3d", "criterion-1", "criterion-2")

# a `cmd_synthesize` progress message that ends a stage: key -> stage
STAGES = ((" simplices, ", "assembly"), (": solver ", "solve"),
          ("verification ", "verify"))


def maxrss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 1)


def configs():
    import test_acceptance
    import workloads

    return {"synth-1d": workloads.SYNTH_1D, "synth-2d": workloads.SYNTH_2D,
            "synth-3d": workloads.SYNTH_3D,
            "criterion-1": test_acceptance.CRITERION_1_CONFIG,
            "criterion-2": test_acceptance.CRITERION_2_CONFIG}


def measure(name, tree):
    """The two JSON records of one synthesis of `name` in this process, on
    the sources and configurations of `tree`."""
    for sub in ("src", "perfbench", "tests"):
        sys.path.insert(0, os.path.join(tree, sub))
    from cpacontract import cli

    config = cli.Config.from_dict(configs()[name])
    stages = []
    build_complex = cli.build_complex

    def mesh(*args, **kwargs):
        cx = build_complex(*args, **kwargs)
        stages.append([args[2], "mesh", maxrss_mb()])
        return cx

    def progress(message, *args, **kwargs):
        stage = next((name for key, name in STAGES if key in message), None)
        if stage is not None:
            stages.append([stages[-1][0], stage, maxrss_mb()])

    cli.build_complex = mesh
    t0 = time.perf_counter()
    try:
        code, cert = cli.cmd_synthesize(config, progress=progress)
    finally:
        cli.build_complex = build_complex
    wall = time.perf_counter() - t0
    solver = cert["solver"] if cert else {}
    peak = max(mb for _, _, mb in stages)
    return ({"name": name, "wall_s": round(wall, 3), "maxrss_mb": maxrss_mb(),
             "exit_code": code, "k": cert["k"] if cert else None,
             "status": solver.get("status"),
             "iterations": solver.get("iterations"),
             "C": float(cert["constants"]["C"]) if cert else None,
             "floquet_bound": float(cert["floquet_bound"]) if cert else None},
            {"name": name, "stages": stages, "peak_stage": next(
                [k, stage] for k, stage, mb in stages if mb == peak)})


def fresh(name, tree):
    """The records of one fresh process on `tree`, as one dict."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), name, "--tree", tree],
        cwd=tree, capture_output=True, text=True, timeout=1800, check=True)
    run, stages = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    run["peak_stage"] = stages["peak_stage"]
    return run


def _quartiles(values):
    return dict(zip(("q1", "median", "q3"),
                    np.percentile(values, [25, 50, 75]).round(3).tolist()))


def compare(name, trees, pairs):
    """The pair mode's record for `trees`, {"parent": dir, "change": dir}."""
    runs = {side: [] for side in trees}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(fresh(name, trees[side]))
    out = {"name": name, "pairs": pairs}
    for side, rs in runs.items():
        stages = [f"K={k} {stage}" for k, stage in (r["peak_stage"]
                                                    for r in rs)]
        out[side] = {"maxrss_mb": _quartiles([r["maxrss_mb"] for r in rs]),
                     "wall_s": _quartiles([r["wall_s"] for r in rs]),
                     "peak_stages": {s: stages.count(s)
                                     for s in sorted(set(stages))}}
    both = list(zip(runs["parent"], runs["change"]))
    out["lower_peak"] = {
        "parent": sum(a["maxrss_mb"] < b["maxrss_mb"] for a, b in both),
        "change": sum(b["maxrss_mb"] < a["maxrss_mb"] for a, b in both)}
    out["same_status_level_iterations"] = all(
        [a[key] for key in ("status", "k", "iterations")]
        == [b[key] for key in ("status", "k", "iterations")]
        for a, b in both)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("name", choices=NAMES)
    p.add_argument("trees", nargs="*", metavar="PARENT_DIR CHANGE_DIR")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--tree", default=ROOT, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.trees:
        if len(args.trees) != 2:
            p.error("give both PARENT_DIR and CHANGE_DIR, or neither")
        print(json.dumps(compare(args.name, dict(zip(
            ("parent", "change"), map(os.path.abspath, args.trees))),
            args.pairs)))
    else:
        for record in measure(args.name, os.path.abspath(args.tree)):
            print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
