"""Cold start of the certificate consumer in two source trees.

Usage: python3 tools/coldstart.py CERT PARENT_DIR CHANGE_DIR [--pairs N]

Each pair runs, per tree and in fresh processes, `import cpacontract.cli`
(timed inside the process, as the import alone) and
`cli.main(["verify", CERT])` (timed from process start to exit, as a user
waits for it), alternating which tree goes first. Each process reports
whether it loaded any `scipy` module. One unrecorded run per tree first
compiles its bytecode. Prints one JSON line: per tree the median and
quartiles of both timings, the verify exit codes and how many of its
processes loaded scipy, and per timing the number of pairs each tree won.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

SCIPY = ("sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')")
IMPORT_PROBE = ("import json, sys, time; t = time.perf_counter(); "
                "import cpacontract.cli; t = time.perf_counter() - t; "
                f"print('COLDSTART', json.dumps([t, {SCIPY}]))")
VERIFY_PROBE = ("import json, sys; from cpacontract import cli; "
                "code = cli.main(['verify', sys.argv[1]]); "
                f"print('COLDSTART', json.dumps([code, {SCIPY}]))")


def _run(tree, probe, *args):
    """(seconds from start to exit, the probe's report) of one process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         cwd=tree, capture_output=True, text=True,
                         timeout=300, check=True)
    seconds = time.perf_counter() - t0
    line = [x for x in out.stdout.splitlines() if x.startswith("COLDSTART ")]
    return seconds, json.loads(line[-1][len("COLDSTART "):])


def measure(tree, cert):
    (_, (import_s, loaded)), (verify_s, (code, loaded_v)) = (
        _run(tree, IMPORT_PROBE), _run(tree, VERIFY_PROBE, cert))
    return {"import_s": import_s, "verify_s": verify_s, "exit": code,
            "scipy": bool(loaded) + bool(loaded_v)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("cert")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    cert = os.path.abspath(args.cert)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for tree in trees.values():
        measure(tree, cert)
    runs = {side: [] for side in trees}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0
                     else ("change", "parent")):
            runs[side].append(measure(trees[side], cert))
    out = {"pairs": args.pairs, "cert": cert}
    for side, rs in runs.items():
        out[side] = {key: dict(zip(("q1", "median", "q3"), np.percentile(
            [r[key] for r in rs], [25, 50, 75]).round(4).tolist()))
            for key in ("import_s", "verify_s")}
        out[side]["verify_exit"] = sorted({r["exit"] for r in rs})
        out[side]["processes_loading_scipy"] = sum(r["scipy"] for r in rs)
    out["wins"] = {key: {
        "parent": sum(a[key] < b[key] for a, b in zip(runs["parent"],
                                                      runs["change"])),
        "change": sum(b[key] < a[key] for a, b in zip(runs["parent"],
                                                      runs["change"]))}
        for key in ("import_s", "verify_s")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
