"""Run one synthesis in this process and print its wall time and peak RSS.

Usage: python3 tools/peak.py NAME

NAME is a perfbench synthesis workload (`synth-1d`, `synth-2d`,
`synth-3d`, the configurations of `perfbench/workloads.py`) or an
acceptance criterion (`criterion-1`, `criterion-2`, the configurations of
`tests/test_acceptance.py`). The one `cli.cmd_synthesize` call runs
without an output file, and one JSON line follows: wall seconds,
`ru_maxrss` in MB, exit code, certified level K, solver status and
iterations, C and the Floquet bound (null when no level was certified).
A second JSON line attributes the peak: `ru_maxrss` at the end of each
stage of each level, in order, as [K, stage, MB] with stage `mesh`
(`build_complex` returned), `assembly`, `solve` and `verify` (each read
at the `progress` message that ends it), and `peak_stage`, the first
[K, stage] whose end saw the final peak.

The full criterion-2 run (~35 s, ~1.3 GB) is too large for a benchmark
workload; run this once per checkout, in alternation, to compare peaks.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "perfbench", "tests"):
    sys.path.insert(0, os.path.join(ROOT, sub))

from cpacontract import cli  # noqa: E402


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


def main(argv):
    known = configs()
    if len(argv) != 2 or argv[1] not in known:
        print(f"usage: {argv[0]} {{{','.join(known)}}}", file=sys.stderr)
        return 2
    config = cli.Config.from_dict(known[argv[1]])
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
    print(json.dumps({
        "name": argv[1], "wall_s": round(wall, 3),
        "maxrss_mb": maxrss_mb(),
        "exit_code": code, "k": cert["k"] if cert else None,
        "status": solver.get("status"),
        "iterations": solver.get("iterations"),
        "C": float(cert["constants"]["C"]) if cert else None,
        "floquet_bound": float(cert["floquet_bound"]) if cert else None}))
    peak = max(mb for _, _, mb in stages)
    print(json.dumps({"name": argv[1], "stages": stages, "peak_stage": next(
        [k, stage] for k, stage, mb in stages if mb == peak)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
