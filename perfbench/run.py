"""Benchmark of cpacontract: synthesis and certificate re-checks.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload synth-1d --seed 1 --seconds 20 \
        --trace 0

The load is a closed loop with one client: each operation starts when the
previous one has returned. At least one operation runs, and another starts
while it is expected to end within `--seconds`. With `--trace 0` the last
line of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` the first half of the time runs untraced, the second half under
the span tracer, and the metrics are the per-layer ones. The line before it holds
the details: environment, mesh size, every operation's answer and the
negative controls. Spans and details are also written under `.perfbench/`.

`--workload all` runs every workload in its own process and prints each
metric with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("synth-1d", "synth-2d", "synth-3d", "recheck-1d")
SETUP_REPEATS = 5

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "floquet_rate": ("1/time", "higher"),
    "ok_frac": ("ratio", "higher"),
}

PER_LAYER = {
    "triangulation.build_s": ("s", "lower"),
    "triangulation.simplices": ("count", "lower"),
    "triangulation.locate_calls": ("count", "lower"),
    "triangulation.locate_s": ("s", "lower"),
    "triangulation.self_s": ("s", "lower"),
    "assembly.assemble_s": ("s", "lower"),
    "assembly.bounds_s": ("s", "lower"),
    "assembly.m": ("count", "lower"),
    "assembly.blocks": ("count", "lower"),
    "assembly.self_s": ("s", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.s_per_iter": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.infeasible_s": ("s", "lower"),
    "solver.levels": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "verify.sampled_s": ("s", "lower"),
    "verify.samples_per_s": ("1/s", "higher"),
    "verify.boundary_s": ("s", "lower"),
    "verify.interp_s": ("s", "lower"),
    "verify.rebuild_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "orbits.find_orbit_s": ("s", "lower"),
    "orbits.monodromy_s": ("s", "lower"),
    "orbits.probe_s": ("s", "lower"),
    "orbits.self_s": ("s", "lower"),
    "systems.f_calls": ("count", "lower"),
    "systems.f_points": ("count", "lower"),
    "systems.jacobian_calls": ("count", "lower"),
    "systems.jacobian_points": ("count", "lower"),
    "systems.eval_s": ("s", "lower"),
    "systems.self_s": ("s", "lower"),
    "cli.certificate_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t)")


def import_workloads():
    """Import the package (and numpy/scipy) in this process; return the
    module and the seconds it took."""
    if not (SRC / "cpacontract" / "__init__.py").is_file():
        raise ImportError(f"no cpacontract package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    module = importlib.import_module("workloads")
    return module, time.perf_counter() - t0


def import_seconds_in_fresh_process():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _openblas_threads():
    """Thread counts reported by every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def run_ops(workload, state, seconds, start_id, runner):
    """Closed loop: run at least one operation, and start another while it
    is expected, from the last one's duration, to end within `seconds`."""
    records, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        op_id = start_id + len(records)
        t0 = time.perf_counter()
        try:
            rec = runner(op_id, lambda: workload.run(state))
        except Exception as exc:  # a crashed operation is a failed one
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t0)
        records.append(rec)
    return records, times


def _direct(op_id, fn):
    return fn()


def measure(args, wl_mod, first_import):
    workload = wl_mod.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)

    import_s = [first_import] + [import_seconds_in_fresh_process()
                                 for _ in range(SETUP_REPEATS - 1)]
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, str(WORKDIR))
        prepare_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    tracer = None
    if args.trace:
        import spans

        half = 0.5 * args.seconds
        records, times = run_ops(workload, state, half, 0, _direct)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_times = run_ops(workload, state, half,
                                           len(records), tracer.run_op)
        finally:
            tracer.uninstall()
        untraced_mean = statistics.fmean(times)
        records += traced
        times += traced_times
    else:
        records, times = run_ops(workload, state, args.seconds, 0, _direct)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [workload.failures(r) if "error" not in r else [r["error"]]
                for r in records]
    failed = sum(1 for f in failures if f)
    good = [r for r, f in zip(records, failures) if not f]
    controls = (workload.negative_controls(state, good[0]) if good
                else {"no correct answer to control": False})
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "mesh": wl_mod.mesh_size(state["path"]) if good else None,
        "setup": {"import_s": import_s, "prepare_s": prepare_s},
        "op_s": times, "records": records, "failures": failures,
        "negative_controls_rejected": controls,
    }
    correct = failed == 0 and all(controls.values())

    if tracer is None:
        bound = statistics.median(
            [r["floquet_bound"] for r in good] or [0.0])
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "floquet_rate": -bound,
            "ok_frac": (len(records) - failed) / len(records),
        }
        units = END_TO_END
    else:
        per_op = tracer.op_metrics()
        metrics = {name: statistics.fmean(m[name] for m in per_op.values())
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_mean
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        detail["accounting_error_s"] = self_sum - metrics["trace.wall_s"]
        correct = correct and (abs(detail["accounting_error_s"])
                               <= 1e-6 * metrics["trace.wall_s"])
        spans_path = WORKDIR / f"spans-{tag}.npz"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        units = PER_LAYER

    result = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, (unit, _) in units.items()},
    }
    with open(WORKDIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload in its own process and print its metrics."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:28s} {v['value']:.6g} {v['unit']}")
        if not result["correct"]:
            status = 1
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        wl_mod, first_import = import_workloads()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    return measure(args, wl_mod, first_import)


if __name__ == "__main__":
    sys.exit(main())
